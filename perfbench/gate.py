"""Correctness gate for one benchmark sample.

Reads the reports a sample wrote as plain JSON and imports nothing from
nctheta, so a defect in the program cannot also hide in its own check.
Each function returns the list of reasons the sample fails; empty means
the sample passed.
"""

from __future__ import annotations

import hashlib
import json
import os

# Additivity verdict each translation convention must reach.
EXPECTED_VERDICT = {"modified": "witness_found", "manin": "additive"}
# Reports each CLI subcommand writes, besides summary.json.
COMMAND_REPORTS = {"all": ["classify", "theta", "verify"],
                   "theta": ["classify", "theta"]}
# Relative agreement required between the e(0) coefficient of Theta*Theta
# and the independently summed sum_k c_k c_{-k}; both are double sums of
# the same terms in different orders.
PRODUCT_REL_TOL = 1e-12


def _load(out_dir, name, failures):
    try:
        with open(os.path.join(out_dir, f"{name}.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        failures.append(f"{name}.json unreadable: {exc}")
        return None


def check_cli(out_dir, exit_code, command, convention, tolerances, R, d):
    """Gate the reports of one `nctheta <command>` run."""
    failures = []
    if exit_code != 0:
        failures.append(f"exit code {exit_code}")
    summary = _load(out_dir, "summary", failures)
    if summary is not None:
        if summary.get("failures"):
            failures.append(f"summary failures: {summary['failures']}")
        if summary.get("exit_code") != 0:
            failures.append(f"summary exit_code {summary.get('exit_code')}")
        if summary.get("reports_written") != sorted(COMMAND_REPORTS[command]):
            failures.append(f"reports written: {summary.get('reports_written')}")
    theta = _load(out_dir, "theta", failures)
    if theta is not None:
        residual = theta.get("coefficient_formula_residual")
        if not isinstance(residual, float) or not residual <= tolerances["inner_rel"]:
            failures.append(f"coefficient_formula_residual {residual} exceeds "
                            f"inner_rel {tolerances['inner_rel']}")
        coeffs = theta.get("element", {}).get("coeffs", [])
        if len(coeffs) != (2 * R + 1) ** d:
            failures.append(f"theta element has {len(coeffs)} coefficients, "
                            f"want {(2 * R + 1) ** d}")
    if "verify" in COMMAND_REPORTS[command]:
        verify = _load(out_dir, "verify", failures)
        if verify is not None:
            failures += _check_verify(verify, convention, R, d)
    if not os.path.exists(os.path.join(out_dir, "classify.json")):
        failures.append("classify.json missing")
    return failures


def _check_verify(verify, convention, R, d):
    failures = []
    if verify.get("overall_pass") is not True:
        failures.append("overall_pass is not true")
    if verify.get("kind") != convention:
        failures.append(f"convention {verify.get('kind')}, want {convention}")
    entries = verify.get("functional_equation") or []
    if len(entries) != (2 * (R // 2) + 1) ** d:
        failures.append(f"{len(entries)} functional-equation entries, "
                        f"want {(2 * (R // 2) + 1) ** d}")
    if not all(e.get("pass") is True for e in entries):
        failures.append("a functional-equation entry failed")
    verdict = (verify.get("additivity") or {}).get("verdict")
    if verdict != EXPECTED_VERDICT[convention]:
        failures.append(f"additivity verdict {verdict}, "
                        f"want {EXPECTED_VERDICT[convention]}")
    if (verify.get("cocycle_consistency") or {}).get("pass") is not True:
        failures.append("cocycle consistency failed")
    return failures


def check_algebra(out_dir, exit_code, tolerances, translations):
    """Gate algebra.json: e(0) of Theta*Theta against sum_k c_k c_{-k}, and
    every reference functional-equation residual below residual_abs."""
    failures = []
    if exit_code != 0:
        failures.append(f"exit code {exit_code}")
    report = _load(out_dir, "algebra", failures)
    if report is None:
        return failures
    coeffs = {tuple(row["k"]): complex(row["re"], row["im"])
              for row in report["theta"]["coeffs"]}
    terms = [c * coeffs.get(tuple(-v for v in k), 0j) for k, c in coeffs.items()]
    expected = sum(terms)
    scale = sum(abs(t) for t in terms)
    zero = None
    for row in report["product"]["coeffs"]:
        if not any(row["k"]):
            zero = complex(row["re"], row["im"])
    if zero is None or not abs(zero - expected) <= PRODUCT_REL_TOL * scale:
        failures.append(f"e(0) of Theta*Theta is {zero}, want {expected}")
    residuals = report.get("fe_residuals", [])
    if len(residuals) != translations:
        failures.append(f"{len(residuals)} residuals, want {translations}")
    worst = max((r["residual"] for r in residuals), default=0.0)
    if not worst < tolerances["residual_abs"]:
        failures.append(f"reference FE residual {worst} exceeds "
                        f"residual_abs {tolerances['residual_abs']}")
    return failures


def report_digests(out_dir):
    """{file name: (bytes, sha256)} for every report in out_dir."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        digests[name] = (len(data), hashlib.sha256(data).hexdigest())
    return digests
