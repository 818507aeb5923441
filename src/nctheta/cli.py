"""Batch verification harness.

One JSON configuration drives the whole pipeline: classify the complex
structure, build the theta vector, assemble the quantum theta element
and machine-check the functional equation, the cocycle consistency law
and the additivity dichotomy.  Reports are deterministic JSON files;
exit code 0 means every assertion held, 2 flags a verification failure
(including degenerate translations), 1 a usage, config or output error.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import holomorphy, manin, theta
from .errors import (ConfigError, DegenerateTranslation, NCThetaError,
                     NoFullStructure, NoPartialStructure)
from .heisenberg import GaussianVector
from .lattice import (EmbeddingMap, ball, embedding_from_config,
                      seeded_integers)
from .reports import render_report, write_report

SCHEMA_VERSION = 1
DEFAULT_TOLERANCES = {"inner_rel": 1e-6, "residual_abs": 1e-9, "tail_eps": 1e-15}


@dataclass(frozen=True, slots=True)
class Check:
    """One verdict of a run; a failed one's summary message is text.format(check)."""

    text: str
    passed: bool
    value: float | None = None
    bound: float | None = None
    where: object = None


def _real(v) -> bool:
    """A JSON number that is a finite double: int or float, not a boolean."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:  # an int beyond double range
        return False


def _complex_entry(v):
    if _real(v):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(map(_real, v)):
        return complex(v[0], v[1])
    if isinstance(v, dict) and v and set(v) <= {"re", "im"} and \
            all(map(_real, v.values())):
        return complex(v.get("re", 0.0), v.get("im", 0.0))
    raise ConfigError(f"cannot parse complex entry {v!r}")


def _complex_matrix(rows):
    return np.array([[_complex_entry(v) for v in row] for row in rows],
                    dtype=complex)


def _seed(v) -> int:
    """The run seed: a nonnegative int (not a boolean), else ConfigError."""
    if type(v) is not int or v < 0:
        raise ConfigError("seed must be a nonnegative integer")
    return v


def _known_fields(block, name: str, fields: set):
    """ConfigError naming the keys of a JSON object `block` outside
    `fields`; a block that is not an object is left to its parser."""
    unknown = set(block) - fields if isinstance(block, dict) else ()
    if unknown:
        raise ConfigError(f"unknown {name} fields: {sorted(unknown)}")


class RunConfig:
    """Validated run configuration."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        _known_fields(raw, "config", {"embedding", "complex_structure",
                                      "truncation_R", "tolerances", "seed",
                                      "outputs"})
        if "embedding" not in raw:
            raise ConfigError("config requires an 'embedding' object")
        _known_fields(raw["embedding"], "embedding",
                      {"p", "q", "theta", "Q", "Delta", "phi"})
        _known_fields(raw.get("complex_structure"), "complex_structure",
                      {"kind", "t1", "t2"})
        self.embedding: EmbeddingMap = embedding_from_config(raw["embedding"])
        self.structure = self._parse_structure(raw.get("complex_structure"))
        self.truncation_R = raw.get("truncation_R", 4)
        if type(self.truncation_R) is not int or self.truncation_R < 1:
            raise ConfigError("truncation_R must be an integer >= 1")
        tol = dict(DEFAULT_TOLERANCES)
        extra = raw.get("tolerances", {})
        if not isinstance(extra, dict) or not set(extra) <= set(tol):
            raise ConfigError(f"tolerances must be a subset of {sorted(tol)}")
        tol.update(extra)
        if any(not _real(v) or not v > 0 for v in tol.values()):
            raise ConfigError("tolerances must be positive finite numbers")
        self.tolerances = tol
        self.seed = _seed(raw.get("seed", 0))
        outputs = raw.get("outputs", ["classify", "theta", "verify"])
        if not isinstance(outputs, list) or \
                not set(outputs) <= {"classify", "theta", "verify"}:
            raise ConfigError("outputs must be a sublist of [classify, theta, verify]")
        self.outputs = outputs

    def _parse_structure(self, raw):
        """The configured structure, or None when the config names none."""
        if raw is None:
            return None
        cs = holomorphy.ComplexStructure(raw["kind"], _complex_matrix(raw["t1"]),
                                         _complex_matrix(raw["t2"]))
        holomorphy._check_structure(self.embedding, cs)
        return cs


def load_config(path: str) -> RunConfig:
    """The validated config at `path`; every error that reading or
    validating it raises (OverflowError: an int beyond double range) is a
    ConfigError."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    try:
        return RunConfig(raw)
    except ConfigError:
        raise
    except (NCThetaError, ValueError, KeyError, TypeError,
            OverflowError) as exc:
        raise ConfigError(f"bad config: {type(exc).__name__}: {exc}")


def _embedding_block(emb: EmbeddingMap) -> dict:
    return {"p": emb.p, "q": emb.q, "phi": emb.phi}


def _classify_report(cfg: RunConfig, classification) -> dict:
    if isinstance(classification, NoPartialStructure):
        classification = {"variant": "no_partial_structure",
                          "witness": {"condition": classification.condition}}
    else:
        classification = classification.to_dict()
    return {"schema_version": SCHEMA_VERSION,
            "instance": _embedding_block(cfg.embedding),
            "classification": classification}


def _holomorphy_check(cfg: RunConfig, vec: GaussianVector) -> Check:
    """The check that `vec` is holomorphic: its antiholomorphic residual at
    s = 0, +-e_i/2, +-e_i mapped through (Im Omega)^(-1/2), where vec has
    the same width on every axis (n seeded in {-1, 0, 1}^q), over max |vec|
    there times the operators' largest coefficient, 2 pi max |(T1, T2) X^-1|."""
    emb, bound = cfg.embedding, cfg.tolerances["inner_rel"]
    cs = holomorphy.solved_structure(emb, cfg.structure)
    axes = np.kron(np.eye(emb.p), [[-1], [-0.5], [0.5], [1]])
    w, V = np.linalg.eigh(vec.omega.imag)
    s = np.vstack([np.zeros(emb.p), axes])[:32] @ (V / np.sqrt(w) @ V.T)
    n = seeded_integers(cfg.seed, -1, 2, (len(s), emb.q))
    scale = 2 * np.pi * np.max(np.abs(np.hstack([cs.t1, cs.t2]) @ emb.x_inv[:2 * emb.p]))
    value = holomorphy.antiholomorphic_residual(emb, cs, vec, zip(s, n)) \
        / scale / np.max(np.abs(vec.evaluate(s, n)))
    return Check("theta vector not holomorphic: residual {0.value:.3e}",
                 value <= bound, value, bound)


def _theta_report(cfg: RunConfig, vec: GaussianVector, checks: list):
    """Build the element of `vec` and its closed-formula table and add the
    check that the two coefficient routes agree to inner_rel.  Returns
    (element, form context, table, report); the report is None unless
    "theta" is among the outputs."""
    emb, tol = cfg.embedding, cfg.tolerances
    R, tail_eps = cfg.truncation_R, tol["tail_eps"]
    ctx = theta.HermitianFormContext(vec.omega)
    element = theta.quantum_theta(emb, vec, R, tail_eps=tail_eps)
    table = manin.BallTable.build(ctx, emb, R, tail_eps)
    support = element.values != 0
    coeffs, closed = element.values[support], table.values[support]
    keep = np.abs(closed) > 1e-13
    formula_residual = float(np.max(np.abs(coeffs - closed))) \
        if coeffs.size else 0.0
    phase_residual = float(np.max(np.abs(np.angle(coeffs[keep] / closed[keep])))) \
        if np.any(keep) else 0.0
    formula_tol = tol["inner_rel"] * float(np.max(np.abs(closed), initial=0.0))
    checks.append(Check("coefficient formula residual {0.value:.3e} exceeds inner_rel"
                        " bound {0.bound:.3e}", not formula_residual > formula_tol,
                        formula_residual, formula_tol))
    report = None
    if "theta" in cfg.outputs:
        certificate = theta.decay_certificate(element)
        report = {
            "schema_version": SCHEMA_VERSION,
            "p": emb.p,
            "q": emb.q,
            "omega": vec.omega,
            "R": R,
            "tail_bound": certificate.get("tail_bound", 0.0),
            "decay_certificate": certificate,
            "coefficient_formula_residual": formula_residual,
            "coefficient_phase_residual": phase_residual,
            "element": element,
        }
    return element, ctx, table, report


def _verify_report(cfg: RunConfig, ctx: theta.HermitianFormContext, element,
                   table: manin.BallTable, checks: list) -> dict:
    """Functional equation for every |g|_inf <= R // 2; unless a translation
    is degenerate, also the cocycle law on seeded pairs and the additivity
    probe, added to `checks`.  overall_pass covers every stage's checks."""
    emb, tol = cfg.embedding, cfg.tolerances
    tail_eps = tol["tail_eps"]
    kind = manin.KIND_MANIN if emb.q == 0 else manin.KIND_MODIFIED
    g_radius = cfg.truncation_R // 2
    report = {"schema_version": SCHEMA_VERSION, "instance": _embedding_block(emb),
              "kind": kind, "seed": cfg.seed, "degenerate": False,
              "cocycle_consistency": None, "additivity": None}
    try:
        results = manin.verify_functional_equations(
            ctx, emb, element, ball(emb.d, g_radius), kind,
            tail_eps=tail_eps, residual_tol=tol["residual_abs"], table=table)
    except DegenerateTranslation as exc:
        report["degenerate"] = True
        report["functional_equation"] = [{
            "g": None, "kind": kind, "degenerate": True,
            "witnesses": [list(i) for i in exc.indices[:16]], "pass": False}]
        checks.append(Check("degenerate translation factors at {0.value}"
                            " ball indices", False, len(exc.indices)))
    else:
        report["functional_equation"] = results
        checks += [Check("functional equation residual {0.value:.3e} at g={0.where}",
                         entry["pass"], entry["max_residual"], tol["residual_abs"],
                         tuple(entry["g"])) for entry in results]
        pair_ball = max(1, g_radius)
        pair_idx = seeded_integers(cfg.seed, -pair_ball, pair_ball + 1,
                                   (100, 2, emb.d))
        consistency = report["cocycle_consistency"] = \
            manin.verify_cocycle_consistency(ctx, emb, kind, pair_idx,
                                             tail_eps=tail_eps)
        checks.append(Check("cocycle consistency residual out of tolerance",
                            consistency["pass"]))
        additivity = report["additivity"] = manin.additivity_probe(
            ctx, emb, kind, search_radius=3, tail_eps=tail_eps, seed=cfg.seed)
        expected, text = ("additive", "translations unexpectedly non-additive") \
            if kind == manin.KIND_MANIN else \
            ("witness_found", "no non-additivity witness found")
        checks.append(Check(text, additivity["verdict"] == expected))
    report["overall_pass"] = all(check.passed for check in checks)
    return report


def run_config(cfg: RunConfig, out_dir: str, seed: int | None = None) -> int:
    """Run the report stages the outputs need (classify; theta; verify,
    which needs theta and counts its formula check) and return the exit
    code.  Each report asked for is written when its stage ends, into a
    temporary staging directory, and none is kept: `theta.json` is
    written before verification allocates anything.  After the last
    stage the reports move into out_dir, made if missing, and then
    summary.json is written; a stage that raises, or a report name in
    out_dir taken by a directory, leaves out_dir as it was.  The staging
    directory is removed in every case."""
    if seed is not None:
        cfg.seed = _seed(seed)
    checks, written = [], []
    with tempfile.TemporaryDirectory() as staging:
        def stage(name, report):
            if name in cfg.outputs:
                write_report(os.path.join(staging, f"{name}.json"), report)
                written.append(name)

        classification = holomorphy.classify(cfg.embedding, cfg.structure)
        if "classify" in cfg.outputs:
            stage("classify", _classify_report(cfg, classification))
        if "theta" in cfg.outputs or "verify" in cfg.outputs:
            try:
                vec = holomorphy.build_theta_vector(cfg.embedding, cfg.structure,
                                                    classification)
            except (NoFullStructure, NoPartialStructure) as exc:
                checks.append(Check("theta vector: {0.where}", False, where=exc))
                stage("theta", {"schema_version": SCHEMA_VERSION, "error": str(exc)})
            else:
                if cfg.embedding.p:
                    checks.append(_holomorphy_check(cfg, vec))
                element, ctx, table, report = _theta_report(cfg, vec, checks)
                stage("theta", report)
                del report
                if "verify" in cfg.outputs:
                    stage("verify", _verify_report(cfg, ctx, element, table,
                                                   checks))
        os.makedirs(out_dir, exist_ok=True)
        for name in written + ["summary"]:  # checked before any report moves
            dst = os.path.join(out_dir, f"{name}.json")
            if os.path.isdir(dst) and not os.path.islink(dst):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), dst)
        for name in written:
            src, dst = (os.path.join(d, f"{name}.json") for d in (staging, out_dir))
            try:
                os.replace(src, dst)
            except OSError:  # another filesystem
                shutil.copyfile(src, dst)
    failures = [check.text.format(check) for check in checks if not check.passed]
    summary = {"schema_version": SCHEMA_VERSION, "failures": failures,
               "reports_written": sorted(written), "exit_code": 2 if failures else 0}
    write_report(os.path.join(out_dir, "summary.json"), summary)
    return summary["exit_code"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nctheta",
        description="Construct and verify quantum theta elements over "
                    "noncommutative tori.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("classify", "holomorphic-vector classification only"),
            ("theta", "classification plus theta element construction"),
            ("verify", "verification reports only"),
            ("all", "classification, theta element and verification")]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to the JSON config")
        sp.add_argument("--out", default=".", help="output directory for reports")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # -h exits 0, a usage error 2
        return 1 if exc.code else 0
    wanted = {
        "classify": ["classify"],
        "theta": ["classify", "theta"],
        "verify": ["verify"],
        "all": None,  # honor the config's outputs list
    }[args.command]
    try:
        cfg = load_config(args.config)
        if wanted is not None:
            cfg.outputs = wanted
        return run_config(cfg, args.out, args.seed)
    except ConfigError as exc:
        sys.stderr.write(render_report({"error": "config", "reason": str(exc)}))
        return 1
    except NCThetaError as exc:
        sys.stderr.write(render_report({"error": type(exc).__name__,
                                        "reason": str(exc)}))
        return 2
    except OSError as exc:  # staging or publishing the reports
        sys.stderr.write(render_report({"error": "output", "reason": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
