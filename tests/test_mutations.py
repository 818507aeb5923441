"""Kernel and solver mutants that a verifying run must catch.

Each test replaces one kernel, or the quadratic-form solver, by a wrong
version, in every module that imported it by name, and runs `run_config`
at seed 1 on the mixed and the continuous workload.  A caught mutant exits
2 with a named failure; the wrong quadratic form is also run where Im Omega
is large, so that the holomorphy check's sample points, scaled by
(Im Omega)^(-1/2), still see the vector.  The faults no run catches yet are strict xfails
naming the ROADMAP item whose runtime check is to catch them: a kernel
mutant, and ROADMAP E's false decay certificate under `nctheta theta`.
Once the check lands, the xfail passes, strict fails it, and the mark
comes off.  The inner-product route without its far path (theta._far) is
caught by the relative coefficient-formula check alone.
"""

import json

import numpy as np
import pytest

from nctheta import cli, heisenberg, holomorphy, lattice, manin, theta
from test_cli import VERIFY_CONT, VERIFY_MIXED, write_config

MODULES = (lattice, heisenberg, theta, manin, holomorphy, cli)


def _gaussian_factor(ctx, x):
    exponent = -np.pi / 2 * theta.hermitian_pairing_arrays(ctx, x, x).real * 1.0001
    return np.exp(exponent), exponent


def _pairing_without_conj(ctx, xg, xh):
    return lattice._component_dot(theta._vecmat(xg, ctx.im_inv), xh)


def _series_halfwidth(a, tail_eps):
    return 1


def _conjugated(original):
    return lambda xblocks, yblocks: np.conj(original(xblocks, yblocks))


def _omega_plus_tenth_i(original):
    # still symmetric with a positive definite Im part, so every other
    # check takes it as given
    def solve(A, C):
        omega, witness = original(A, C)
        return (None if omega is None else omega + 0.1 * np.eye(len(omega))), witness
    return solve


MUTANTS = {
    "gaussian_factor_exponent": ("_gaussian_factor", lambda _: _gaussian_factor),
    "pairing_without_conj": ("hermitian_pairing_arrays",
                             lambda _: _pairing_without_conj),
    "series_halfwidth_1": ("_series_halfwidth", lambda _: _series_halfwidth),
    "cocycle_conjugated": ("cocycle_arrays", _conjugated),
    "omega_plus_tenth_i": ("_solve_quadratic_form", _omega_plus_tenth_i),
}
NOT_CAUGHT_C = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP C: no runtime witness of the lattice-series kernel or of the "
    "mixed-case cocycle yet"))


def _mutate(monkeypatch, mutant):
    name, make = MUTANTS[mutant]
    original = next(getattr(m, name) for m in MODULES if hasattr(m, name))
    replacement = make(original)
    for module in MODULES:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


@pytest.mark.parametrize("mutant, workload", [
    ("gaussian_factor_exponent", VERIFY_MIXED),
    ("gaussian_factor_exponent", VERIFY_CONT),
    ("pairing_without_conj", VERIFY_MIXED),
    ("pairing_without_conj", VERIFY_CONT),
    # verify_cont (q = 0) sums no lattice series: an equivalent mutant there
    pytest.param("series_halfwidth_1", VERIFY_MIXED, marks=NOT_CAUGHT_C),
    pytest.param("cocycle_conjugated", VERIFY_MIXED, marks=NOT_CAUGHT_C),
    ("cocycle_conjugated", VERIFY_CONT),
], ids=lambda v: getattr(v, "stem", v))
def test_kernel_mutant_fails_the_run(tmp_path, monkeypatch, mutant, workload):
    cfg = cli.load_config(str(workload))
    _mutate(monkeypatch, mutant)
    out = tmp_path / "out"
    assert cli.run_config(cfg, str(out), 1) == 2
    assert json.loads((out / "summary.json").read_text())["failures"]


@pytest.mark.parametrize("workload", [VERIFY_MIXED, VERIFY_CONT],
                         ids=lambda v: v.stem)
def test_wrong_omega_is_not_holomorphic(tmp_path, monkeypatch, workload):
    cfg = cli.load_config(str(workload))
    _mutate(monkeypatch, "omega_plus_tenth_i")
    out = tmp_path / "out"
    assert cli.run_config(cfg, str(out), 1) == 2
    failures = json.loads((out / "summary.json").read_text())["failures"]
    assert [f for f in failures if f.startswith("theta vector not holomorphic: residual ")]


def test_wrong_omega_is_not_holomorphic_at_large_im_omega(tmp_path, monkeypatch):
    # t1 = 50i: exp(-pi Im Omega / 4) is far below inner_rel at the unscaled
    # points s = +-e/2, +-e, where the mutant read 3.9e-38 and passed; at
    # the scaled points it reads 2.3e-5
    cfg = cli.load_config(write_config(tmp_path, {
        "embedding": {"p": 1, "q": 0, "theta": [0.5]},
        "complex_structure": {"kind": "full", "t1": [[[0, 50]]], "t2": [[1]]},
        "truncation_R": 2}))
    _mutate(monkeypatch, "omega_plus_tenth_i")
    out = tmp_path / "out"
    assert cli.run_config(cfg, str(out), 1) == 2
    failures = json.loads((out / "summary.json").read_text())["failures"]
    assert failures == ["theta vector not holomorphic: residual 2.280e-05"]


def test_inner_product_without_its_far_path_fails_the_relative_check(tmp_path,
                                                                      monkeypatch):
    # theta 6.586, R = 6: the inner-product coefficient at k = (-6, -5) is a
    # product of a subnormal and a large factor, 61 % off the closed formula
    # and far below the absolute bound
    cfg = cli.load_config(write_config(tmp_path, {
        "embedding": {"p": 1, "q": 0, "theta": [6.586]}, "truncation_R": 6}))
    monkeypatch.setattr(theta, "_far", lambda *factors: False)
    out = tmp_path / "out"
    assert cli.run_config(cfg, str(out), 1) == 2
    failures = json.loads((out / "summary.json").read_text())["failures"]
    assert failures == ["coefficient formula relative residual 6.053e-01 at"
                        " k=(-6, -5) exceeds inner_rel 1.000e-06"]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP E: the decay certificate is not checked against the closed "
    "formula, so a false tail_bound passes"))
def test_false_decay_certificate_fails_the_run(tmp_path):
    cfg = write_config(tmp_path, {
        "embedding": {"p": 1, "q": 0, "theta": [0.8082604624727913]},
        "complex_structure": {"kind": "full",
                              "t1": [[[6.163571480202582, 0.5018596633410932]]],
                              "t2": [[1]]},
        "truncation_R": 2})
    out = tmp_path / "out"
    assert cli.main(["theta", "--config", cfg, "--out", str(out)]) == 2
