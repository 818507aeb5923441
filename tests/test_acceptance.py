"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured runtime (run with -s to see them)."""

import json
import time

import numpy as np
import pytest

import nctheta as nc
from nctheta import cli, manin
from nctheta.errors import DegenerateTranslation
from nctheta.heisenberg import GaussianVector
from nctheta.lattice import ball
from nctheta.theta import HermitianFormContext

THETA_I_0 = 1.086434811213308014575316


def _instances():
    return {
        "p1q0": (nc.canonical_embedding(1, 0, theta=[0.5]),
                 np.array([[1j]])),
        "p2q0": (nc.canonical_embedding(2, 0, theta=[0.5, 0.25]),
                 np.array([[0.3 + 1.0j, 0.1 + 0.2j],
                           [0.1 + 0.2j, -0.2 + 1.5j]])),
        "p1q2": (nc.canonical_embedding(1, 2, theta=[0.5], Q=np.eye(2),
                                        Delta=np.diag([0.2, 0.7])),
                 np.array([[2j]])),
        "p0q2": (nc.canonical_embedding(0, 2, Q=[[2, 1], [0, 1]],
                                        Delta=[[0.15, 0.0], [0.0, 0.25]]),
                 np.zeros((0, 0), dtype=complex)),
    }


class _Criterion:
    def __init__(self, number, description, budget):
        self.number = number
        self.description = description
        self.budget = budget
        self.start = None

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] criterion {self.number}: {self.description} "
              f"({elapsed:.2f}s)")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, \
                f"criterion {self.number} exceeded {self.budget}s ({elapsed:.2f}s)"
        return False


def test_criterion_1_presentation_relations():
    with _Criterion(1, "generator presentation relations", 5.0):
        for name, (emb, omega) in _instances().items():
            f = GaussianVector.pure(omega, emb.q)
            t = nc.induced_theta(emb)
            for i in range(emb.d):
                for j in range(emb.d):
                    uij = nc.apply_generator(emb, i,
                                             nc.apply_generator(emb, j, f))
                    uji = nc.apply_generator(emb, j,
                                             nc.apply_generator(emb, i, f))
                    phase = np.exp(2j * np.pi * t[i, j])
                    a = nc.sample_on_grid(uij, 2.0, 0.5, 3)
                    b = nc.sample_on_grid(uji, 2.0, 0.5, 3)
                    assert np.max(np.abs(a.values - phase * b.values)) < 1e-9
        # q = 0 noncommutativity matrix entries are exact
        emb1, _ = _instances()["p1q0"]
        assert nc.induced_theta(emb1)[0, 1] == 0.5
        emb2, _ = _instances()["p2q0"]
        t2 = nc.induced_theta(emb2)
        assert t2[0, 2] == 0.5 and t2[1, 3] == 0.25
        assert np.count_nonzero(t2) == 4


def test_criterion_2_connection_law():
    with _Criterion(2, "connection commutation law", 10.0):
        rng = np.random.default_rng(0)
        for name, (emb, omega) in _instances().items():
            f = GaussianVector.pure(omega, emb.q)
            B = nc.connection_matrix(emb)
            for i in range(emb.d):
                for j in range(emb.d):
                    ej = np.zeros(emb.d, dtype=int)
                    ej[j] = 1
                    col = emb.point(ej)
                    uj_f = nc.apply_heisenberg(col, f)
                    left = nc.apply_connection(emb, i, uj_f)
                    right = nc.heisenberg_on_linear(
                        col, nc.apply_connection(emb, i, f))
                    for _ in range(3):
                        s = rng.normal(size=emb.p) * 0.5
                        n = rng.integers(-2, 3, emb.q)
                        lhs = left.evaluate(s, n) - right.evaluate(s, n)
                        rhs = (2j * np.pi if i == j else 0.0) * uj_f.evaluate(s, n)
                        assert abs(lhs - rhs) < 1e-10
            # finite-difference oracle for the derivative part
            h = 1e-5
            for j in range(emb.d):
                lg = nc.apply_connection(emb, j, f)
                for _ in range(4):
                    s = rng.normal(size=emb.p) * 0.5
                    n = rng.integers(-2, 3, emb.q)
                    fd = 0j
                    for k in range(emb.p):
                        e = np.zeros(emb.p)
                        e[k] = h
                        fd += B[j, emb.p + k] * (f.evaluate(s + e, n)
                                                 - f.evaluate(s - e, n)) / (2 * h)
                    fd += (-2j * np.pi) * (B[j, :emb.p] @ s
                                           + B[j, 2 * emb.p:] @ n) * f.evaluate(s, n)
                    val = lg.evaluate(s, n)
                    assert abs(val - fd) <= 1e-6 * max(1.0, abs(val))


def test_criterion_3_holomorphy_classifier():
    with _Criterion(3, "holomorphy existence classifier", 10.0):
        rng = np.random.default_rng(1)
        # (a) pure continuous embeddings: unique solution
        for theta in [[2.0], [0.5, 0.25]]:
            p = len(theta)
            emb = nc.canonical_embedding(p, 0, theta=theta)
            for _ in range(100):
                s = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
                s = (s + s.T) / 2
                s = s + 1j * (1.0 - np.min(np.linalg.eigvalsh(s.imag))) * np.eye(p)
                t = s @ np.diag(theta)
                res = nc.classify_holomorphic(
                    emb, nc.ComplexStructure("full", t, np.eye(p)))
                assert res.variant == "unique"
                assert res.witness["substitution_residual"] < 1e-9
                np.testing.assert_allclose(
                    res.omega, t @ np.diag(1.0 / np.array(theta)), atol=1e-9)
        # (b) mixed embeddings: rank obstruction
        emb_mixed, _ = _instances()["p1q2"]
        for _ in range(100):
            t1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            t2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            res = nc.classify_holomorphic(emb_mixed,
                                          nc.ComplexStructure("full", t1, t2))
            assert res.variant == "nonexistent"
            assert res.witness["left_rank"] <= 1 < 2 == res.witness["required_rank"]
        # (c) pure lattice embeddings: delta remnant only
        emb_latt, _ = _instances()["p0q2"]
        for _ in range(100):
            t1 = rng.normal(size=(1, 1)) + 1j * rng.normal(size=(1, 1))
            t2 = rng.normal(size=(1, 1)) + 1j * rng.normal(size=(1, 1))
            res = nc.classify_holomorphic(emb_latt,
                                          nc.ComplexStructure("full", t1, t2))
            assert res.variant == "delta_only"


def test_criterion_4_inner_product_oracle_equivalence():
    with _Criterion(4, "closed-form vs quadrature inner products", 60.0):
        rng = np.random.default_rng(2)
        grids = {
            "p1q0": (5.0, 0.05, 1, 7.5, 1),
            "p2q0": (4.5, 0.05, 1, 7.5, 1),
            "p1q2": (5.0, 0.05, 7, 7.5, 12),
            "p0q2": (1.0, 1.0, 7, 1.0, 14),
        }
        for name, (emb, omega) in _instances().items():
            f = GaussianVector.pure(omega, emb.q)
            L, step, N, Lg, Ng = grids[name]
            fs = nc.sample_on_grid(f, L, step, N)
            gs = nc.sample_on_grid(f, Lg, step, Ng)
            count = 0
            while count < 20:
                k = rng.integers(-2, 3, emb.d)
                h = emb.point(k)
                closed = nc.inner_product_closed(f, f, h)
                quad = nc.inner_product_quadrature(fs, gs, h)
                if abs(closed) < 1e-13:
                    assert abs(quad) < 1e-10
                else:
                    assert abs(closed - quad) / abs(closed) < 1e-6, (name, k)
                count += 1


def test_criterion_5_classical_theta_kernel():
    with _Criterion(5, "classical theta kernel", None):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        oracle = mp.nsum(lambda n: mp.e ** (-mp.pi * n**2), [-mp.inf, mp.inf])
        assert abs(nc.classical_theta(1j, 0.0) - complex(oracle)) < 1e-12
        assert abs(complex(oracle) - THETA_I_0) < 1e-15
        rng = np.random.default_rng(3)
        for _ in range(10):
            tau = complex(rng.normal() * 0.2, 0.7 + rng.uniform(0, 1))
            z = complex(rng.normal(), rng.normal() * 0.5)
            lhs = nc.classical_theta(tau, z + tau)
            rhs = np.exp(-1j * np.pi * tau - 2j * np.pi * z) \
                * nc.classical_theta(tau, z)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        assert abs(nc.classical_theta(1j, (1 + 1j) / 2)) < 1e-12


def test_criterion_6_functional_equation_continuous():
    with _Criterion(6, "functional equation, pure continuous embeddings", 30.0):
        for name in ["p1q0", "p2q0"]:
            emb, omega = _instances()[name]
            ctx = HermitianFormContext(omega)
            th = nc.quantum_theta(emb, GaussianVector.pure(omega, emb.q), 4)
            for k in ball(emb.d, 2):
                rep = nc.verify_functional_equation(
                    ctx, emb, th, emb.point(k), manin.KIND_MANIN)
                assert rep["max_residual"] < 1e-9, (name, k)


def test_criterion_7_functional_equation_mixed():
    with _Criterion(7, "functional equation, mixed embedding", 60.0):
        emb, omega = _instances()["p1q2"]
        ctx = HermitianFormContext(omega)
        th = nc.quantum_theta(emb, GaussianVector.pure(omega, emb.q), 4)
        assert not nc.degeneracy_scan(ctx, emb, 4)
        points = ball(emb.d, 2)
        entries = nc.verify_functional_equations(ctx, emb, th, points,
                                                 manin.KIND_MODIFIED)
        assert len(entries) == len(points)
        for g, rep in zip(points, entries):
            assert rep["max_residual"] < 1e-9, g


def test_criterion_8_additivity_dichotomy():
    with _Criterion(8, "translation additivity dichotomy", 30.0):
        for name in ["p1q0", "p2q0"]:
            emb, omega = _instances()[name]
            ctx = HermitianFormContext(omega)
            rep = nc.additivity_probe(ctx, emb, manin.KIND_MANIN,
                                      search_radius=3)
            assert rep["verdict"] == "additive"
            assert rep["max_exponent_residual"] < 1e-10
            assert rep["max_relative_deviation"] < 1e-10
        for name in ["p1q2", "p0q2"]:
            emb, omega = _instances()[name]
            ctx = HermitianFormContext(omega)
            rep = nc.additivity_probe(ctx, emb, manin.KIND_MODIFIED,
                                      search_radius=3)
            assert rep["verdict"] == "witness_found"
            assert rep["witness"]["deviation"] > 1e-6


def test_criterion_9_degeneracy_flagged(tmp_path):
    with _Criterion(9, "degenerate translation flagged, exit 2", None):
        emb = nc.canonical_embedding(1, 2, theta=[0.5], Q=np.eye(2),
                                     Delta=np.diag([0.5, 0.3]))
        omega = np.array([[2j]])
        ctx = HermitianFormContext(omega)
        th = nc.quantum_theta(emb, GaussianVector.pure(omega, 2), 4)
        with pytest.raises(DegenerateTranslation) as exc:
            nc.verify_functional_equation(ctx, emb, th,
                                          emb.point([0, 0, 0, 1]),
                                          manin.KIND_MODIFIED)
        assert exc.value.indices
        config = {
            "embedding": {"p": 1, "q": 2, "theta": [0.5],
                          "Q": [[1, 0], [0, 1]],
                          "Delta": [[0.5, 0.0], [0.0, 0.3]]},
            "truncation_R": 4,
        }
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        code = cli.main(["all", "--config", str(path), "--out", str(out)])
        assert code == 2
        verify = json.loads((out / "verify.json").read_text())
        assert verify["degenerate"] is True


def test_criterion_10_deterministic_reports(tmp_path):
    with _Criterion(10, "byte-identical reports for fixed config and seed",
                    None):
        config = {
            "embedding": {"p": 1, "q": 2, "theta": [0.5],
                          "Q": [[1, 0], [0, 1]],
                          "Delta": [[0.2, 0.0], [0.0, 0.7]]},
            "truncation_R": 4,
            "seed": 123,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.main(["all", "--config", str(path), "--out", str(out1)]) == 0
        assert cli.main(["all", "--config", str(path), "--out", str(out2)]) == 0
        for name in ["classify.json", "theta.json", "verify.json",
                     "summary.json"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
