import numpy as np
import pytest

import nctheta as nc
from nctheta.errors import DimensionMismatch, GridTooLarge
from nctheta.heisenberg import GaussianVector, heisenberg_on_linear


def direct_action(h, f, s, n):
    """Right-hand side of the operator action evaluated literally."""
    phase = np.exp(2j * np.pi * (h.w2 @ s + h.r @ n)
                   + 1j * np.pi * (h.w1 @ h.w2 + h.m @ h.r))
    return phase * f.evaluate(s + h.w1, n + h.m)


def test_apply_identity(inst_1_2):
    emb, omega = inst_1_2
    f = GaussianVector.pure(omega, emb.q)
    g = nc.apply_heisenberg(emb.point([0, 0, 0, 0]), f)
    assert g.c0 == pytest.approx(1.0)
    np.testing.assert_allclose(g.ell, f.ell)
    np.testing.assert_array_equal(g.n0, f.n0)


def test_apply_plane_wave():
    emb = nc.canonical_embedding(1, 0, theta=[0.5])
    f = GaussianVector.pure(np.array([[1j]]))
    g = nc.apply_heisenberg(emb.point([0, 1]), f)
    assert g.ell[0] == pytest.approx(1.0)
    assert g.c0 == pytest.approx(1.0)
    np.testing.assert_allclose(g.omega, f.omega)


def test_apply_shift_constants():
    emb = nc.canonical_embedding(1, 0, theta=[0.5])
    f = GaussianVector.pure(np.array([[1j]]))
    g = nc.apply_heisenberg(emb.point([1, 0]), f)
    assert g.ell[0] == pytest.approx(0.5j)
    assert g.c0 == pytest.approx(np.exp(-0.25 * np.pi))


def test_apply_matches_direct_evaluation(inst_1_2, inst_general):
    rng = np.random.default_rng(2)
    for emb, omega in [(inst_1_2[0], inst_1_2[1]),
                       (inst_general, np.array([[0.4 + 0.8j]]))]:
        f = GaussianVector.pure(omega, emb.q)
        # push f around first so ell, mu, n0 are generic
        f = nc.apply_heisenberg(emb.point(rng.integers(-2, 3, emb.d)), f)
        for _ in range(20):
            h = emb.point(rng.integers(-3, 4, emb.d))
            g = nc.apply_heisenberg(h, f)
            s = rng.normal(size=emb.p)
            n = rng.integers(-3, 4, emb.q)
            val = g.evaluate(s, n)
            ref = direct_action(h, f, s, n)
            assert val == pytest.approx(ref, rel=1e-12, abs=1e-300)


def test_family_closure_random(inst_1_2):
    emb, omega = inst_1_2
    rng = np.random.default_rng(4)
    f = GaussianVector.pure(omega, emb.q)
    for _ in range(100):
        h = emb.point(rng.integers(-4, 5, emb.d))
        f2 = nc.apply_heisenberg(h, f)
        np.testing.assert_allclose(f2.omega, f.omega)
        assert np.min(np.linalg.eigvalsh(f2.omega.imag)) > 0
        f = f2 if abs(f2.c0) > 1e-150 else GaussianVector.pure(omega, emb.q)


def test_generator_shift_and_modulation():
    emb = nc.canonical_embedding(1, 0, theta=[0.5])
    f = GaussianVector.pure(np.array([[1j]]))
    s = np.array([0.3])
    shifted = nc.apply_generator(emb, 0, f)
    assert shifted.evaluate(s, []) == pytest.approx(f.evaluate(s + 0.5, []))
    modulated = nc.apply_generator(emb, 1, f)
    assert modulated.evaluate(s, []) == pytest.approx(
        np.exp(2j * np.pi * s[0]) * f.evaluate(s, []))


def test_generator_commutation_phase():
    emb = nc.canonical_embedding(1, 0, theta=[0.5])
    f = GaussianVector.pure(np.array([[1j]]))
    u12 = nc.apply_generator(emb, 0, nc.apply_generator(emb, 1, f))
    u21 = nc.apply_generator(emb, 1, nc.apply_generator(emb, 0, f))
    s = np.array([0.7])
    assert u12.evaluate(s, []) == pytest.approx(
        np.exp(2j * np.pi * 0.5) * u21.evaluate(s, []), abs=1e-12)


def test_generator_commutation_full_corpus(corpus):
    for name, (emb, omega) in corpus.items():
        f = GaussianVector.pure(omega, emb.q)
        t = nc.induced_theta(emb)
        for i in range(emb.d):
            for j in range(emb.d):
                uij = nc.apply_generator(emb, i, nc.apply_generator(emb, j, f))
                uji = nc.apply_generator(emb, j, nc.apply_generator(emb, i, f))
                phase = np.exp(2j * np.pi * t[i, j])
                a = nc.sample_on_grid(uij, 2.0, 0.5, 3)
                b = nc.sample_on_grid(uji, 2.0, 0.5, 3)
                assert np.max(np.abs(a.values - phase * b.values)) < 1e-9, \
                    (name, i, j)


def test_connection_matrix_canonical():
    emb = nc.canonical_embedding(1, 0, theta=[0.5])
    np.testing.assert_allclose(nc.connection_matrix(emb), np.diag([2.0, 1.0]))
    emb2 = nc.canonical_embedding(1, 2, theta=[0.3], Q=[[2, 1], [0, 1]],
                                  Delta=np.diag([0.2, 0.7]))
    B = nc.connection_matrix(emb2)
    np.testing.assert_allclose(B[0, 0], 10.0 / 3.0)
    np.testing.assert_allclose(B[1, 1], 1.0)
    np.testing.assert_allclose(B[2:, 2:], [[0.5, -0.5], [0.0, 1.0]])


def test_connection_matrix_residual_random():
    rng = np.random.default_rng(8)
    for _ in range(10):
        phi = np.zeros((4, 3))
        phi[:3, :3] = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        phi[2, :] = np.round(phi[2, :])
        if abs(phi[2, 2]) < 1:
            phi[2, 2] = 2.0
        phi[3, :] = rng.uniform(0, 1, 3)
        emb = nc.EmbeddingMap(p=1, q=1, phi=phi)
        B = nc.connection_matrix(emb)
        assert np.max(np.abs(B @ emb.x_tilde - np.eye(3))) < 1e-10


def test_connection_closed_form():
    emb = nc.canonical_embedding(1, 0, theta=[0.5])
    f = GaussianVector.pure(np.array([[1j]]))
    d1 = nc.apply_connection(emb, 0, f)
    np.testing.assert_allclose(d1.coef_s, [-4j * np.pi])
    assert d1.const == 0 and d1.coef_n.size == 0
    d2 = nc.apply_connection(emb, 1, f)
    np.testing.assert_allclose(d2.coef_s, [2j * np.pi * 1j])
    s = np.array([0.4])
    # derivative row equals the analytic s-derivative of the family
    h = 1e-6
    fd = (f.evaluate(s + h, []) - f.evaluate(s - h, [])) / (2 * h)
    assert d2.evaluate(s, []) == pytest.approx(fd, rel=1e-8)


def test_connection_finite_difference_corpus(corpus):
    h = 1e-5
    for name, (emb, omega) in corpus.items():
        if emb.p == 0:
            continue
        f = GaussianVector.pure(omega, emb.q)
        B = nc.connection_matrix(emb)
        rng = np.random.default_rng(17)
        for j in range(emb.d):
            lg = nc.apply_connection(emb, j, f)
            for _ in range(5):
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
                assert lg.evaluate(s, n) == pytest.approx(fd, rel=1e-6), (name, j)


def test_connection_generator_commutator(corpus):
    # (conn_i U_j - U_j conn_i) f = 2 pi i delta_ij U_j f, pointwise.
    rng = np.random.default_rng(23)
    for name, (emb, omega) in corpus.items():
        f = GaussianVector.pure(omega, emb.q)
        for i in range(emb.d):
            for j in range(emb.d):
                ej = np.zeros(emb.d, dtype=int)
                ej[j] = 1
                col = emb.point(ej)
                uj_f = nc.apply_heisenberg(col, f)
                left = nc.apply_connection(emb, i, uj_f)
                right = heisenberg_on_linear(col, nc.apply_connection(emb, i, f))
                for _ in range(3):
                    s = rng.normal(size=emb.p) * 0.6
                    n = rng.integers(-2, 3, emb.q)
                    lhs = left.evaluate(s, n) - right.evaluate(s, n)
                    rhs = (2j * np.pi if i == j else 0.0) * uj_f.evaluate(s, n)
                    assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs))), \
                        (name, i, j)


def test_connection_combination_matches_sum(inst_2_0):
    emb, omega = inst_2_0
    f = GaussianVector.pure(omega, emb.q)
    rng = np.random.default_rng(31)
    w = rng.normal(size=emb.d) + 1j * rng.normal(size=emb.d)
    combo = nc.connection_combination(emb, w, f)
    for _ in range(5):
        s = rng.normal(size=emb.p)
        expected = sum(w[j] * nc.apply_connection(emb, j, f).evaluate(s, [])
                       for j in range(emb.d))
        assert combo.evaluate(s, []) == pytest.approx(expected, rel=1e-12)


def test_sample_values():
    f = GaussianVector.pure(np.array([[1j]]), q=1)
    grid = nc.sample_on_grid(f, 2.0, 0.5, 2)
    assert grid.values.shape == (9, 5)
    mid = grid.values[4, 2]
    assert mid == pytest.approx(f.c0)
    zero = GaussianVector(p=1, q=1, omega=[[1j]], ell=[0], c0=0.0,
                          n0=[0], mu=[0])
    assert np.all(nc.sample_on_grid(zero, 1.0, 0.5, 1).values == 0)


def test_non_integral_lattice_center_rejected():
    # an absolute, not relative, test: 1e6 + 0.5 is not rounded to 1e6
    for n0 in ([1e6 + 0.5], [0.4], [np.nan]):
        with pytest.raises(ValueError):
            GaussianVector(p=1, q=1, omega=[[1j]], ell=[0], c0=1.0, n0=n0,
                           mu=[0])
    f = GaussianVector(p=1, q=1, omega=[[1j]], ell=[0], c0=1.0, n0=[1e6],
                       mu=[0])
    assert f.n0.tolist() == [1000000]


def test_sample_budget():
    f = GaussianVector.pure(np.array([[1j]]))
    with pytest.raises(GridTooLarge):
        nc.sample_on_grid(f, 10.0, 1e-7, 1)


def test_sample_parseval_against_closed_form():
    f = GaussianVector.pure(np.array([[1j]]), q=1)
    grid = nc.sample_on_grid(f, 6.0, 0.01, 8)
    mass = np.sum(np.abs(grid.values) ** 2) * grid.grid_step
    closed = nc.inner_product_closed(f, f, nc.canonical_embedding(
        1, 1, theta=[0.5], Q=[[1]], Delta=[[0.2]]).point([0, 0, 0]))
    assert mass == pytest.approx(closed.real, rel=1e-6)
    assert abs(closed.imag) < 1e-12


def test_dimension_mismatch_errors(inst_1_0, inst_1_2):
    emb1, om1 = inst_1_0
    emb2, om2 = inst_1_2
    f2 = GaussianVector.pure(om2, emb2.q)
    with pytest.raises(DimensionMismatch):
        nc.apply_heisenberg(emb1.point([1, 0]), f2)
    with pytest.raises(DimensionMismatch):
        nc.apply_generator(emb1, 5, GaussianVector.pure(om1))
