"""Tests of the benchmark harness itself.

Run from the repository root:  python3 -m pytest perfbench/tests
The metric test runs every workload once untraced and once traced, so it
takes a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from nctheta import cli  # noqa: E402

WORKLOADS = sorted(run.load_workloads())
MIXED = {"p": 1, "q": 2, "theta": [0.5], "Q": [[1, 0], [0, 1]],
         "Delta": [[0.2, 0.0], [0.0, 0.7]]}


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_names_the_harness_metrics():
    spec = _benchmark_json()
    assert {w["name"] for w in spec["workloads"]} <= set(run.load_workloads())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracer.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, monkeypatch, capsys):
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    spec = _benchmark_json()
    for trace, group in [(0, "end_to_end"), (1, "per_layer")]:
        code = run.main(["--workload", workload, "--seed", "3",
                         "--seconds", "0", "--trace", str(trace)])
        assert code == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in spec[group]]
        for m in spec[group]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if trace:
            assert result["metrics"]["trace.coverage"]["value"] >= 0.9


@pytest.fixture(scope="module")
def mixed_reports(tmp_path_factory):
    """Reports of `nctheta all` on a small mixed config, and its tolerances."""
    base = tmp_path_factory.mktemp("cli")
    config = base / "config.json"
    config.write_text(json.dumps({"embedding": MIXED, "truncation_R": 2,
                                  "seed": 5}))
    out = base / "out"
    assert cli.main(["all", "--config", str(config), "--out", str(out)]) == 0
    return out, dict(cli.DEFAULT_TOLERANCES)


def _tamper(src, dst, name, edit):
    shutil.copytree(src, dst)
    path = dst / name
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return dst


def _gate_cli(out, tolerances, convention="modified"):
    return gate.check_cli(out, 0, "all", convention, tolerances, R=2, d=4)


def test_gate_accepts_untampered_reports(mixed_reports):
    out, tolerances = mixed_reports
    assert _gate_cli(out, tolerances) == []


def _set(path, value):
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return edit


@pytest.mark.parametrize("name,edit,reason", [
    ("theta.json", _set(["coefficient_formula_residual"], 1e-3),
     "coefficient_formula_residual"),
    ("theta.json", lambda doc: doc["element"]["coeffs"].pop(), "coefficients"),
    ("verify.json", _set(["overall_pass"], False), "overall_pass"),
    ("verify.json", _set(["additivity", "verdict"], "additive"),
     "additivity verdict"),
    ("verify.json", _set(["functional_equation", 3, "pass"], False),
     "functional-equation entry failed"),
    ("verify.json", lambda doc: doc["functional_equation"].pop(),
     "functional-equation entries"),
    ("verify.json", _set(["cocycle_consistency", "pass"], False), "cocycle"),
    ("summary.json", _set(["failures"], ["functional equation residual"]),
     "summary failures"),
    ("summary.json", _set(["exit_code"], 2), "summary exit_code"),
])
def test_gate_rejects_tampered_cli_report(mixed_reports, tmp_path, name, edit,
                                          reason):
    out, tolerances = mixed_reports
    tampered = _tamper(out, tmp_path / "out", name, edit)
    failures = _gate_cli(tampered, tolerances)
    assert len(failures) == 1 and reason in failures[0]


def test_report_drift_within_a_run_fails_the_sample(mixed_reports, tmp_path):
    out, tolerances = mixed_reports
    bench_run = run.Run("verify_mixed", 5, deadline=0.0)
    record = {"exit_code": 0, "tolerances": tolerances, "truncation_R": 2, "d": 4}
    assert bench_run._gate(out, dict(record)) == []
    # Same content, different bytes: the JSON is re-serialized.
    rewritten = _tamper(out, tmp_path / "out", "theta.json", lambda doc: None)
    assert bench_run._gate(rewritten, dict(record)) == \
        ["reports differ from the first sample of this run"]


def test_gate_rejects_wrong_convention_and_exit_code(mixed_reports):
    out, tolerances = mixed_reports
    assert _gate_cli(out, tolerances, convention="manin")
    assert gate.check_cli(out, 2, "all", "modified", tolerances, R=2, d=4)


def test_gate_rejects_missing_report(mixed_reports, tmp_path):
    out, tolerances = mixed_reports
    shutil.copytree(out, tmp_path / "out")
    os.remove(tmp_path / "out" / "verify.json")
    assert _gate_cli(tmp_path / "out", tolerances)


@pytest.fixture(scope="module")
def algebra_report(tmp_path_factory):
    base = tmp_path_factory.mktemp("algebra")
    config = base / "config.json"
    config.write_text(json.dumps({"embedding": MIXED, "truncation_R": 1}))
    cfg = cli.load_config(str(config))
    out = base / "out"
    spec = {"fe_translations": 4, "convention": "modified"}
    assert worker.run_algebra(cfg, spec, 7, str(out)) == 0
    return out, cfg.tolerances


def test_gate_accepts_algebra_report(algebra_report):
    out, tolerances = algebra_report
    assert gate.check_algebra(out, 0, tolerances, 4) == []


def _bump_product_e0(doc):
    for row in doc["product"]["coeffs"]:
        if not any(row["k"]):
            row["re"] += 1e-6


@pytest.mark.parametrize("edit,reason", [
    (_bump_product_e0, "e(0)"),
    (lambda doc: doc["fe_residuals"][0].update(residual=1e-3), "residual"),
    (lambda doc: doc["fe_residuals"].pop(), "residuals"),
])
def test_gate_rejects_tampered_algebra_report(algebra_report, tmp_path, edit,
                                              reason):
    out, tolerances = algebra_report
    tampered = _tamper(out, tmp_path / "out", "algebra.json", edit)
    failures = gate.check_algebra(tampered, 0, tolerances, 4)
    assert len(failures) == 1 and reason in failures[0]


def test_algebra_translations_are_seeded_and_on_the_unit_shell():
    a = worker.algebra_translations(4, 24, seed=1)
    assert (a == worker.algebra_translations(4, 24, seed=1)).all()
    assert len({tuple(g) for g in a}) == 24
    assert (abs(a).max(axis=1) == 1).all()


def test_span_times_separate_self_and_inclusive_time():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("a", 2.0, 3.0, 1),
             ("c", 5.0, 6.0, 0)]
    calls, inclusive, self_time, roots = tracer.span_times(spans)
    assert dict(calls) == {"a": 2, "b": 1, "c": 1}
    assert dict(inclusive) == {"a": 10.0, "b": 3.0, "c": 1.0}
    assert dict(self_time) == {"a": 7.0, "b": 2.0, "c": 1.0}
    assert roots == 10.0


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
