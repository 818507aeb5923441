"""Batch verification harness.

One JSON configuration drives the whole pipeline: classify the complex
structure, build the theta vector, assemble the quantum theta element
and machine-check the functional equation, the cocycle consistency law
and the additivity dichotomy.  Reports are deterministic JSON files;
exit code 0 means every assertion held, 2 flags a verification failure
(including degenerate translations), 1 a configuration or usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import holomorphy, manin, theta
from .errors import (ConfigError, DegenerateTranslation, NCThetaError,
                     NoPartialStructure)
from .heisenberg import GaussianVector
from .lattice import EmbeddingMap, ball, embedding_from_config
from .reports import render_report, write_report

SCHEMA_VERSION = 1
DEFAULT_TOLERANCES = {"inner_rel": 1e-6, "residual_abs": 1e-9, "tail_eps": 1e-15}


def _complex_entry(v):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    if isinstance(v, dict) and set(v) <= {"re", "im"} and v:
        return complex(float(v.get("re", 0.0)), float(v.get("im", 0.0)))
    raise ConfigError(f"cannot parse complex entry {v!r}")


def _complex_matrix(rows):
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ConfigError("complex matrices must be nested lists")
    return np.array([[_complex_entry(v) for v in row] for row in rows],
                    dtype=complex)


class RunConfig:
    """Validated run configuration."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - {"embedding", "complex_structure", "truncation_R",
                              "tolerances", "seed", "outputs"}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "embedding" not in raw:
            raise ConfigError("config requires an 'embedding' object")
        try:
            self.embedding: EmbeddingMap = embedding_from_config(raw["embedding"])
        except (NCThetaError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"bad embedding: {exc}")
        self.structure = self._parse_structure(raw.get("complex_structure"))
        self.truncation_R = raw.get("truncation_R", 4)
        if not isinstance(self.truncation_R, int) or self.truncation_R < 1:
            raise ConfigError("truncation_R must be an integer >= 1")
        tol = dict(DEFAULT_TOLERANCES)
        extra = raw.get("tolerances", {})
        if not isinstance(extra, dict) or not set(extra) <= set(tol):
            raise ConfigError(f"tolerances must be a subset of {sorted(tol)}")
        tol.update(extra)
        if any(not (isinstance(v, (int, float)) and v > 0) for v in tol.values()):
            raise ConfigError("tolerances must be positive numbers")
        self.tolerances = tol
        self.seed = raw.get("seed", 0)
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        outputs = raw.get("outputs", ["classify", "theta", "verify"])
        if not isinstance(outputs, list) or \
                not set(outputs) <= {"classify", "theta", "verify"}:
            raise ConfigError("outputs must be a sublist of [classify, theta, verify]")
        self.outputs = outputs

    def _parse_structure(self, raw):
        emb = self.embedding
        if raw is None:
            if emb.p == 0:
                return None
            if emb.q == 0:
                half = emb.d // 2
                return holomorphy.ComplexStructure.full(1j * np.eye(half),
                                                        np.eye(half))
            return holomorphy.ComplexStructure.default_partial(emb.p)
        if not isinstance(raw, dict) or "kind" not in raw:
            raise ConfigError("complex_structure needs a 'kind' field")
        kind = raw["kind"]
        if kind not in ("full", "partial"):
            raise ConfigError("complex_structure kind must be 'full' or 'partial'")
        try:
            t1 = _complex_matrix(raw["t1"])
            t2 = _complex_matrix(raw["t2"])
            cs = holomorphy.ComplexStructure(kind=kind, t1=t1, t2=t2)
        except KeyError as exc:
            raise ConfigError(f"complex_structure missing {exc}")
        except NCThetaError as exc:
            raise ConfigError(f"bad complex_structure: {exc}")
        if kind == "full":
            if emb.d % 2 != 0:
                raise ConfigError(
                    f"full structure needs even total dimension, got d={emb.d}")
            if cs.t1.shape != (emb.d // 2, emb.d // 2):
                raise ConfigError(
                    f"full structure blocks must be {emb.d // 2}x{emb.d // 2}")
        elif cs.t1.shape != (emb.p, emb.p):
            raise ConfigError(f"partial structure blocks must be {emb.p}x{emb.p}")
        return cs


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return RunConfig(raw)


def _embedding_block(emb: EmbeddingMap) -> dict:
    return {"p": emb.p, "q": emb.q, "phi": emb.phi}


def _classify_report(cfg: RunConfig) -> dict:
    emb = cfg.embedding
    cs = cfg.structure
    report = {"schema_version": SCHEMA_VERSION, "instance": _embedding_block(emb)}
    if cs is not None and cs.kind == "full":
        report["classification"] = holomorphy.classify_holomorphic(emb, cs).to_dict()
    elif emb.p == 0:
        if emb.d % 2 == 0:
            half = emb.d // 2
            default_full = holomorphy.ComplexStructure.full(1j * np.eye(half),
                                                            np.eye(half))
            report["classification"] = \
                holomorphy.classify_holomorphic(emb, default_full).to_dict()
        else:
            report["classification"] = {
                "variant": "skipped",
                "witness": {"note": "odd dimension admits no full structure"}}
    else:
        try:
            omega, gmat, witness = holomorphy.solve_partial(emb, cs)
            report["classification"] = holomorphy.HolomorphyResult(
                "partial", omega, gmat, witness).to_dict()
        except NoPartialStructure as exc:
            report["classification"] = {"variant": "no_partial_structure",
                                        "witness": {"condition": exc.condition}}
    return report


def _theta_form(cfg: RunConfig) -> np.ndarray:
    """Quadratic form for the theta pipeline (empty for p = 0).

    Full structures on q = 0 resolve through the classifier; everything
    else goes through the partial equations (with the default diagonal
    structure when the config supplied a full one on a mixed embedding).
    """
    emb = cfg.embedding
    cs = cfg.structure
    if emb.p == 0:
        return np.zeros((0, 0), dtype=complex)
    if cs is not None and cs.kind == "full" and emb.q == 0:
        result = holomorphy.classify_holomorphic(emb, cs)
        if result.variant != "unique":
            raise NoPartialStructure(
                result.witness.get("failed_condition", "nonexistent"),
                "supplied structure admits no holomorphic vector")
        return result.omega
    partial = cs if cs is not None and cs.kind == "partial" else \
        holomorphy.ComplexStructure.default_partial(emb.p)
    return holomorphy.build_theta_vector(emb, partial).omega


def run_config(cfg: RunConfig, out_dir: str, seed: int | None = None) -> int:
    """Execute the configured pipeline and write reports; returns exit code."""
    if seed is not None:
        cfg.seed = seed
    emb = cfg.embedding
    tol = cfg.tolerances
    tail_eps = tol["tail_eps"]
    failures = []
    reports = {}

    if "classify" in cfg.outputs:
        reports["classify"] = _classify_report(cfg)

    theta_el = None
    ctx = None
    if "theta" in cfg.outputs or "verify" in cfg.outputs:
        try:
            omega = _theta_form(cfg)
        except NoPartialStructure as exc:
            failures.append(f"theta vector: {exc}")
            reports["theta"] = {"schema_version": SCHEMA_VERSION, "error": str(exc)}
            omega = None
        if omega is not None:
            vec = GaussianVector.pure(omega, emb.q)
            ctx = theta.HermitianFormContext(omega)
            theta_el = theta.quantum_theta(emb, vec, cfg.truncation_R,
                                           tail_eps=tail_eps)
            certificate = theta.decay_certificate(theta_el)
            table = manin.BallTable.build(ctx, emb, cfg.truncation_R, tail_eps)
            support = theta_el.values != 0
            coeffs, closed = theta_el.values[support], table.values[support]
            keep = np.abs(closed) > 1e-13
            formula_residual = float(np.max(np.abs(coeffs - closed))) \
                if coeffs.size else 0.0
            phase_residual = float(np.max(np.abs(np.angle(coeffs[keep] / closed[keep])))) \
                if np.any(keep) else 0.0
            formula_tol = tol["inner_rel"] * float(np.max(np.abs(closed), initial=0.0))
            if formula_residual > formula_tol:
                failures.append(f"coefficient formula residual {formula_residual:.3e}"
                                f" exceeds inner_rel bound {formula_tol:.3e}")
            reports["theta"] = {
                "schema_version": SCHEMA_VERSION,
                "p": emb.p,
                "q": emb.q,
                "omega": omega,
                "R": cfg.truncation_R,
                "tail_bound": certificate.get("tail_bound", 0.0),
                "decay_certificate": certificate,
                "coefficient_formula_residual": formula_residual,
                "coefficient_phase_residual": phase_residual,
                "element": theta_el.to_dict(),
            }

    if "verify" in cfg.outputs and theta_el is not None:
        kind = manin.KIND_MANIN if emb.q == 0 else manin.KIND_MODIFIED
        rng = np.random.default_rng(cfg.seed)
        g_radius = cfg.truncation_R // 2
        degenerate = False
        points = [emb.point(k) for k in ball(emb.d, g_radius)]
        try:
            results = manin.verify_functional_equations(
                ctx, emb, theta_el, points, kind, tail_eps=tail_eps,
                residual_tol=tol["residual_abs"], table=table)
        except DegenerateTranslation as exc:
            degenerate = True
            results = [{"g": None, "kind": kind, "degenerate": True,
                        "witnesses": [list(i) for i in exc.indices[:16]],
                        "pass": False}]
            failures.append(
                f"degenerate translation factors at {len(exc.indices)} ball indices")
        else:
            failures += [f"functional equation residual {entry['max_residual']:.3e}"
                         f" at g={tuple(entry['g'])}"
                         for entry in results if not entry["pass"]]
        consistency = None
        additivity = None
        if not degenerate:
            pair_ball = max(1, g_radius)
            pair_idx = rng.integers(-pair_ball, pair_ball + 1, size=(100, 2, emb.d))
            consistency = manin.verify_cocycle_consistency(
                ctx, emb, kind, pair_idx, tail_eps=tail_eps)
            if not consistency["pass"]:
                failures.append("cocycle consistency residual out of tolerance")
            additivity = manin.additivity_probe(ctx, emb, kind, search_radius=3,
                                                tail_eps=tail_eps, seed=cfg.seed)
            if kind == manin.KIND_MANIN and additivity["verdict"] != "additive":
                failures.append("translations unexpectedly non-additive")
            if kind == manin.KIND_MODIFIED and \
                    additivity["verdict"] != "witness_found":
                failures.append("no non-additivity witness found")
        reports["verify"] = {
            "schema_version": SCHEMA_VERSION,
            "instance": _embedding_block(emb),
            "kind": kind,
            "seed": cfg.seed,
            "functional_equation": results,
            "cocycle_consistency": consistency,
            "additivity": additivity,
            "degenerate": degenerate,
            "overall_pass": not failures,
        }

    os.makedirs(out_dir, exist_ok=True)
    for name in cfg.outputs:
        if name in reports:
            write_report(os.path.join(out_dir, f"{name}.json"), reports[name])
    summary = {
        "schema_version": SCHEMA_VERSION,
        "failures": failures,
        "reports_written": sorted(set(cfg.outputs) & set(reports)),
        "exit_code": 0 if not failures else 2,
    }
    write_report(os.path.join(out_dir, "summary.json"), summary)
    return 0 if not failures else 2


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
    args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
