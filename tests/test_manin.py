import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import nctheta as nc
from nctheta import cli, manin
from nctheta.errors import (DegenerateTranslation, DimensionMismatch,
                             GridTooLarge, NCThetaError)
from nctheta.heisenberg import GaussianVector
from nctheta.lattice import QuantumElement, ball, cocycle_arrays, cocycle_exponent_arrays
from nctheta.manin import (ADDITIVITY_TOL, BallTable, TranslationFactor,
                           _multipliers, _translations,
                           functional_equation_residual_ops)
from nctheta.theta import (STRUCTURAL_ZERO_TOL, TAIL_EPS, HermitianFormContext, _far,
                           b_product_arrays, complex_coordinates, hermitian_form,
                           hermitian_pairing_arrays, theta_coefficients)
from test_cli import VERIFY_CONT

THETA_I_0 = 1.086434811213308014575316


def build(emb, omega, R=4):
    f = GaussianVector.pure(omega, emb.q)
    ctx = HermitianFormContext(omega)
    return ctx, nc.quantum_theta(emb, f, R)


def test_translation_factor_at_zero(inst_1_2):
    emb, omega = inst_1_2
    ctx = HermitianFormContext(omega)
    zero = emb.point([0, 0, 0, 0])
    manin = nc.translation_factor(ctx, emb, zero, "manin")
    assert manin.value == pytest.approx(1.0)
    modified = nc.translation_factor(ctx, emb, zero, "modified")
    assert modified.value == pytest.approx(THETA_I_0 ** 2, rel=1e-12)
    assert not modified.degenerate


def test_translation_factor_worked_value():
    emb = nc.canonical_embedding(1, 0, theta=[0.5])
    ctx = HermitianFormContext(np.array([[1j]]))
    g = emb.point([2, 0])  # continuous blocks (1, 0)
    tf = nc.translation_factor(ctx, emb, g, "manin")
    assert tf.value == pytest.approx(np.exp(-np.pi / 2), rel=1e-12)


def test_translation_factor_degenerate_flag():
    emb = nc.canonical_embedding(1, 2, theta=[0.5], Q=np.eye(2),
                                 Delta=np.diag([0.5, 0.3]))
    ctx = HermitianFormContext(np.array([[2j]]))
    g = emb.point([0, 0, 1, 0])  # r = (0.5, 0), m = (1, 0)
    tf = nc.translation_factor(ctx, emb, g, "modified")
    assert tf.degenerate and abs(tf.value) < 1e-14


def test_translation_form_dimension_checked(inst_1_0):
    # a form of another dimension is a typed error in both conventions,
    # raised by complex_coordinates, the one place that compares the two
    emb, omega = inst_1_0
    _, element = build(emb, omega, R=2)
    ctx = HermitianFormContext(np.diag([1j, 1j]))
    g = emb.point([1, 0])
    for kind in ("manin", "modified"):
        for call in [
                lambda: theta_coefficients(ctx, emb, ball(emb.d, 1)),
                lambda: BallTable.build(ctx, emb, 2),
                lambda: nc.verify_functional_equations(ctx, emb, element,
                                                       ball(emb.d, 1), kind),
                lambda: nc.translate(ctx, emb, g, element, kind),
                lambda: nc.translation_factor(ctx, emb, g, kind),
                lambda: hermitian_form(ctx, g, g),
                lambda: complex_coordinates(ctx, np.zeros((3, 1)),
                                            np.zeros((3, 1)))]:
            with pytest.raises(DimensionMismatch):
                call()


def test_translate_identity_and_support(inst_1_0):
    emb, omega = inst_1_0
    ctx, th = build(emb, omega, R=3)
    out = nc.translate(ctx, emb, emb.point([0, 0]), th, "manin")
    K, _ = th.as_arrays()
    for k in K:
        assert out.coeff(k) == pytest.approx(th.coeff(k), rel=1e-12)
    np.testing.assert_array_equal(out.as_arrays()[0], K)
    g = emb.point([1, -1])
    shifted = nc.translate(ctx, emb, g, th, "manin")
    np.testing.assert_array_equal(shifted.as_arrays()[0], K)


@pytest.mark.parametrize("kind", ["manin", "modified"])
def test_translate_equals_scalar_products(inst_1_2, kind):
    # every translated coefficient carries the bits of the scalar c * T
    emb, omega = inst_1_2
    ctx, th = build(emb, omega, R=2)
    g = emb.point([1, 0, -1, 1])
    T = _multipliers(ctx, emb, g, th.as_arrays()[0], kind, nc.theta.TAIL_EPS)
    out = nc.translate(ctx, emb, g, th, kind)
    expected = {k: c * complex(t) for (k, c), t in zip(th.coeffs.items(), T)}
    assert out.coeffs == {k: v for k, v in expected.items() if abs(v) >= 1e-300}


def test_translate_manin_composition_exact(inst_1_0):
    emb, omega = inst_1_0
    ctx, th = build(emb, omega, R=3)
    g1, g2 = emb.point([1, 0]), emb.point([0, 1])
    once = nc.translate(ctx, emb, g2, nc.translate(ctx, emb, g1, th, "manin"),
                        "manin")
    both = nc.translate(ctx, emb, emb.point([1, 1]), th, "manin")
    for k in th.as_arrays()[0]:
        a, b = once.coeff(k), both.coeff(k)
        assert a == pytest.approx(b, rel=1e-10, abs=1e-300)


def test_translate_degenerate_offenders_listed():
    emb = nc.canonical_embedding(1, 2, theta=[0.5], Q=np.eye(2),
                                 Delta=np.diag([0.5, 0.3]))
    ctx = HermitianFormContext(np.array([[2j]]))
    el = nc.QuantumElement.from_coeffs(
        emb, {(0, 0, 1, 0): 1.0, (0, 0, 0, 0): 1.0}, 1)
    with pytest.raises(DegenerateTranslation) as exc:
        nc.translate(ctx, emb, emb.point([0, 0, 0, 1]), el, "modified")
    assert (0, 0, 1, 0) in exc.value.indices
    # g itself is checked even when the element has no support
    with pytest.raises(DegenerateTranslation) as exc:
        nc.translate(ctx, emb, emb.point([0, 0, 1, 0]),
                     nc.QuantumElement.from_coeffs(emb, {}, 1), "modified")
    assert exc.value.indices == [(0, 0, 1, 0)]


def test_functional_equation_p1q0(inst_1_0):
    emb, omega = inst_1_0
    ctx, th = build(emb, omega)
    rep = nc.verify_functional_equation(ctx, emb, th, emb.point([1, 0]), "manin")
    assert rep["max_residual"] < 1e-9 and rep["pass"]
    rep0 = nc.verify_functional_equation(ctx, emb, th,
                                         emb.point([0, 0]), "manin")
    assert rep0["max_residual"] <= 1e-15


def test_functional_equation_p1q2(inst_1_2):
    emb, omega = inst_1_2
    ctx, th = build(emb, omega)
    rep = nc.verify_functional_equation(ctx, emb, th,
                                        emb.point([0, 0, 1, 0]), "modified")
    assert rep["max_residual"] < 1e-9 and rep["pass"]
    rep0 = nc.verify_functional_equation(ctx, emb, th,
                                         emb.point([0, 0, 0, 0]), "modified")
    assert rep0["max_residual"] <= 1e-15


def test_functional_equation_interior_radius(inst_1_0):
    emb, omega = inst_1_0
    ctx, th = build(emb, omega)
    rep = nc.verify_functional_equation(ctx, emb, th, emb.point([2, 1]), "manin")
    assert rep["interior_radius"] == 2
    with pytest.raises(ValueError):
        nc.verify_functional_equation(ctx, emb, th, emb.point([3, 0]), "manin")
    with pytest.raises(ValueError):
        nc.verify_functional_equations(
            ctx, emb, th, np.array([[0, 0], [0, -3]]), "manin")


def test_functional_equation_matches_ops_path(inst_1_0, inst_1_2):
    for (emb, omega), kind in [(inst_1_0, "manin"), (inst_1_2, "modified")]:
        ctx, th = build(emb, omega, R=2)
        idx = np.zeros(emb.d, dtype=int)
        idx[0] = 1
        g = emb.point(idx)
        rep = nc.verify_functional_equation(ctx, emb, th, g, kind)
        ref = functional_equation_residual_ops(ctx, emb, th, g, kind)
        assert rep["max_residual"] == pytest.approx(ref, abs=1e-14)


def _frozen_residual_ops(ctx, emb, theta, g, kind):
    """functional_equation_residual_ops with its per-key coeff() loop,
    for reference."""
    factor_g = nc.translation_factor(ctx, emb, g, kind)
    shifted = nc.translate(ctx, emb, g, theta, kind)
    lhs = nc.QuantumElement.basis(emb, g.index).multiply(shifted).scaled(
        factor_g.value)
    gr = int(np.max(np.abs(g.index)))
    return max((abs(lhs.coeff(k) - theta.coeff(k))
                for k in ball(emb.d, theta.radius - gr)), default=0.0)


@pytest.mark.parametrize("name,kind", [("p1q0", "manin"), ("p2q0", "manin"),
                                       ("p1q2", "modified")])
def test_residual_ops_equals_frozen_per_key_loop(name, kind, corpus):
    emb, omega = corpus[name]
    for R in (1, 2, 3):
        ctx, th = build(emb, omega, R)
        # |g|_inf = 0, R/2, R and R + 1, the last with no interior ball
        for size in (0, R // 2, R, R + 1):
            idx = np.zeros(emb.d, dtype=int)
            idx[0], idx[-1] = size, -(size // 2)
            g = emb.point(idx)
            got = functional_equation_residual_ops(ctx, emb, th, g, kind)
            assert got == _frozen_residual_ops(ctx, emb, th, g, kind), (R, size)
            if size > R:
                assert got == 0.0


def test_functional_equation_p0q2(inst_0_2):
    emb, omega = inst_0_2
    ctx, th = build(emb, omega)
    for k in [(1, 0), (0, 1), (-2, 1), (2, 2)]:
        rep = nc.verify_functional_equation(ctx, emb, th, emb.point(k),
                                            "modified")
        assert rep["max_residual"] < 1e-9, k


def test_functional_equation_general_embedding(inst_general):
    emb = inst_general
    vec = nc.build_theta_vector(emb, nc.ComplexStructure.default_partial(1))
    ctx = HermitianFormContext(vec.omega)
    th = nc.quantum_theta(emb, vec, 4)
    for k in [(1, 0, 0), (0, 1, -1), (-1, 1, 1), (2, -2, 1)]:
        rep = nc.verify_functional_equation(ctx, emb, th, emb.point(k),
                                            "modified")
        assert rep["max_residual"] < 1e-9, k


def test_functional_equation_outcome_invariant_under_torus_lift(inst_1_2):
    # shifting the torus block by integers flips individual coefficient
    # signs but the functional equation keeps closing
    emb, omega = inst_1_2
    lifted = nc.canonical_embedding(1, 2, theta=[0.5], Q=np.eye(2),
                                    Delta=np.diag([0.2, 0.7]) + np.eye(2))
    ctx, th = build(lifted, omega)
    for k in [(0, 0, 1, 0), (1, 0, 0, 1)]:
        rep = nc.verify_functional_equation(ctx, lifted, th, lifted.point(k),
                                            "modified")
        assert rep["max_residual"] < 1e-9


def test_degeneracy_scan_and_flag_before_division():
    emb = nc.canonical_embedding(1, 2, theta=[0.5], Q=np.eye(2),
                                 Delta=np.diag([0.5, 0.3]))
    omega = np.array([[2j]])
    ctx, th = build(emb, omega)
    zeros = nc.degeneracy_scan(ctx, emb, 4)
    assert zeros and all(k[2] % 2 == 1 for k in zeros)
    # theta-zero coefficients survive only as cancellation noise (~1e-17),
    # which can even exceed honest far-corner coefficients (~1e-22), so no
    # magnitude threshold on the support separates them; the normalized
    # scan is what finds them
    assert all(abs(th.coeff(k)) < 1e-14 for k in zeros)
    assert any(abs(c) < 1e-17 for c in th.coeffs.values())
    with pytest.raises(DegenerateTranslation) as exc:
        nc.verify_functional_equation(ctx, emb, th, emb.point([0, 0, 0, 1]),
                                      "modified")
    assert exc.value.indices == zeros
    # the batched engine scans before its first translation, even one
    # whose own factor is fine
    with pytest.raises(DegenerateTranslation) as exc:
        nc.verify_functional_equations(ctx, emb, th, np.array([[0, 0, 0, 0]]),
                                       "modified")
    assert exc.value.indices == zeros


def test_functional_equation_forms_underflowed_products():
    # H(x, x) = 0.1 w1^2 + 10 w2^2 reaches 476 at k = (+-2, +-2, .), so
    # the closed coefficient underflows to 0 there without being a theta
    # zero, while every inner-product coefficient stays finite: the engine
    # forms those entries as c_{g+h} (theta_h / c_h), and the multipliers
    # of translate still refuse the underflowed products
    emb = nc.canonical_embedding(1, 1, theta=[33.0], Q=[[1]], Delta=[[0.3]])
    omega = np.array([[0.1j]])
    ctx, th = build(emb, omega, R=2)
    assert not nc.degeneracy_scan(ctx, emb, 2)
    entries = [nc.verify_functional_equation(ctx, emb, th, emb.point([0, 0, 0]),
                                             "modified"),
               *nc.verify_functional_equations(
                   ctx, emb, th, np.array([[0, 1, 0], [0, 0, 0]]), "modified")]
    assert all(e["pass"] and e["max_residual"] <= 2.3e-16 for e in entries)
    for call, first in (
            (lambda: _multipliers(ctx, emb, emb.point([0, 0, 0]), ball(3, 2),
                                  "modified", TAIL_EPS), "(-2, -2, -2)"),
            (lambda: nc.translate(ctx, emb, emb.point([-1, 1, 1]), th, "modified"),
             "(-2, 0, -2)")):
        with pytest.raises(NCThetaError, match="underflow") as exc:
            call()
        assert not isinstance(exc.value, DegenerateTranslation)
        assert f"at indices [{first}, " in str(exc.value)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(q=st.sampled_from([1, 2]),
       theta=st.floats(-1, math.log10(20)).map(lambda e: 10.0 ** e),
       delta=st.lists(st.floats(-1, 1), min_size=4, max_size=4))
# at R = 4, C_g c_h is 0.0 at 5 window entries of g = (-2, -2, -2)
@example(q=1, theta=12.0, delta=[0.3] * 4)
def test_modified_engine_refuses_or_returns_in_range_residuals(q, theta, delta):
    # mixed embeddings, Q = I: the engine raises only a degenerate
    # translation or the FE budget, and every residual it returns is below
    # residual_abs (q = 2 stops at R = 4: its R = 6 call takes 0.65 s)
    emb = nc.canonical_embedding(1, q, theta=[theta], Q=np.eye(q),
                                 Delta=np.reshape(delta[:q * q], (q, q)))
    vec = nc.build_theta_vector(emb)
    ctx = HermitianFormContext(vec.omega)
    for R in (2, 4, 6)[:4 - q]:
        th = nc.quantum_theta(emb, vec, R)
        try:
            entries = nc.verify_functional_equations(
                ctx, emb, th, ball(emb.d, R // 2), "modified",
                residual_tol=cli.DEFAULT_TOLERANCES["residual_abs"])
        except (DegenerateTranslation, GridTooLarge):
            continue
        assert all(e["pass"] for e in entries), (R, max(e["max_residual"] for e in entries))


def test_manin_exponent_path_keeps_every_residual(monkeypatch):
    # verify_cont with its coefficient at k = (-R, ..., -R) zeroed: a stored
    # theta_h of 0 sends the manin FE through its exponent path, and every
    # residual keeps the bits of the run that takes the direct product only
    cfg = cli.load_config(str(VERIFY_CONT))
    emb, R = cfg.embedding, cfg.truncation_R
    vec = nc.build_theta_vector(emb, cfg.structure)
    ctx = HermitianFormContext(vec.omega)
    element = nc.quantum_theta(emb, vec, R, tail_eps=cfg.tolerances["tail_eps"])
    values = element.values.copy()
    values[(0,) * emb.d] = 0
    calls = []

    def counted(*factors):
        calls.append(len(factors))
        return _far(*factors)

    monkeypatch.setattr(manin, "_far", counted)
    residuals = []
    for th in (element, QuantumElement(emb, values)):
        rows = nc.verify_functional_equations(ctx, emb, th, ball(emb.d, R // 2), "manin")
        residuals.append([row["max_residual"] for row in rows])
        assert bool(calls) == (th is not element)  # the gate took the exponents
    assert len(residuals[0]) == 625
    assert residuals[0] == residuals[1]


def test_underflowed_factor_products_raise():
    # Omega = 0.02i (theta = 50): the factors at these pairs are about
    # 1e-273 each, so C_g C_h (cocycle check) and C_g c_h (multipliers)
    # underflow to 0 while no factor is 0.  The modified convention raises;
    # the manin pair is compared on its exponents, where the law holds
    cont = nc.canonical_embedding(1, 0, theta=[50.0])
    mixed = nc.canonical_embedding(1, 1, theta=[50.0], Q=[[1]], Delta=[[0.3]])
    ctx = HermitianFormContext(np.array([[0.02j]]))
    rep = nc.verify_cocycle_consistency(ctx, cont, "manin", [([2, 2], [2, 2])])
    assert rep["pass"] and rep["pairs_checked"] == 1
    assert rep["max_modulus_residual"] < 1e-10
    g, h = [-2, -2, -2], [-2, -2, -1]
    for call, where in (
            (lambda: nc.verify_cocycle_consistency(
                ctx, mixed, "modified", [(g, h)]), "[(-2, -2, -2), (-2, -2, -1)]"),
            (lambda: _multipliers(ctx, mixed, mixed.point(g), np.array([h]),
                                  "modified", TAIL_EPS), "[(-2, -2, -1)]")):
        with pytest.raises(NCThetaError, match="underflow") as exc:
            call()
        assert str(exc.value).endswith(where)


def test_translate_refuses_a_subnormal_factor_product():
    # theta = 50, default structure, R = 2: for g = (1, 0, 0), C_g c_h is
    # 4.5e-309 at the 8 corners of the ball, subnormal but not 0.  The
    # modified translation and its reference residual raise the underflow
    # error there instead of dividing by the product
    emb = nc.canonical_embedding(1, 1, theta=[50.0], Q=[[1]], Delta=[[0.3]])
    vec = nc.build_theta_vector(emb)
    ctx = HermitianFormContext(vec.omega)
    element = nc.quantum_theta(emb, vec, 2)
    g = emb.point((1, 0, 0))
    for call in (lambda: nc.translate(ctx, emb, g, element, "modified"),
                 lambda: functional_equation_residual_ops(ctx, emb, element, g,
                                                          "modified")):
        with pytest.raises(NCThetaError, match="underflow") as exc:
            call()
        assert not isinstance(exc.value, DegenerateTranslation)
        assert str(exc.value).startswith(
            "translation factors underflow double precision at indices "
            "[(-2, -2, -2), (-2, -2, 2), ")


def test_cocycle_consistency_general_embedding(inst_general):
    emb = inst_general
    vec = nc.build_theta_vector(emb, nc.ComplexStructure.default_partial(1))
    ctx = HermitianFormContext(vec.omega)
    rng = np.random.default_rng(6)
    pairs = [(rng.integers(-3, 4, emb.d), rng.integers(-3, 4, emb.d))
             for _ in range(50)]
    rep = nc.verify_cocycle_consistency(ctx, emb, "modified", pairs)
    assert rep["pass"] and rep["pairs_checked"] == 50


def test_cocycle_consistency_manin(inst_1_0, inst_2_0):
    rng = np.random.default_rng(0)
    for emb, omega in [inst_1_0, inst_2_0]:
        ctx = HermitianFormContext(omega)
        pairs = [(rng.integers(-2, 3, emb.d), rng.integers(-2, 3, emb.d))
                 for _ in range(100)]
        rep = nc.verify_cocycle_consistency(ctx, emb, "manin", pairs)
        assert rep["pass"]
        assert rep["max_modulus_residual"] < 1e-10


def test_cocycle_consistency_trivial_pairs(inst_1_0):
    emb, omega = inst_1_0
    ctx = HermitianFormContext(omega)
    rep = nc.verify_cocycle_consistency(
        ctx, emb, "manin", [([0, 0], [2, 1]), ([2, 1], [0, 0])])
    assert rep["max_modulus_residual"] < 1e-14
    assert rep["max_phase_residual"] < 1e-14


def test_cocycle_consistency_manin_beyond_double_range():
    # Omega = 0.1i, theta = 10: H(x, x) = 10 |k|^2, so on ball(2, 3)
    # C_{g+h} underflows to 0 at 60 pairs while every C_g C_h stays
    # nonzero, and in the last three pairs C_g C_h is subnormal; there the
    # ratio of the two sides is formed from the exponents, and the law holds
    emb = nc.canonical_embedding(1, 0, theta=[10.0])
    ctx = HermitianFormContext(np.array([[0.1j]]))
    K = ball(2, 3)
    pairs = [(g, h) for g in K for h in K]
    pairs += [((3, 3), (5, 2)), ((3, 3), (-5, -2)), ((-3, 3), (2, 5))]
    rep = nc.verify_cocycle_consistency(ctx, emb, "manin", pairs)
    assert rep["pass"] and rep["pairs_checked"] == len(pairs)
    assert rep["max_modulus_residual"] < 1e-10
    assert rep["max_phase_residual"] < 1e-10


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP J: the manin cocycle check sums exponents near 1.5e6, whose "
    "rounding (one ulp is 2.3e-10) is above MODULUS_TOL"))
def test_cocycle_exponent_rounding_floor():
    # Omega = 0.001i (theta = 1000), g = h = (11, 11): log C_g = -3.8e5 and
    # log C_{g+h} = -1.5e6.  The law holds exactly, but the exponents of
    # the two sides differ by 1.2e-10 after rounding
    emb = nc.canonical_embedding(1, 0, theta=[1000.0])
    ctx = HermitianFormContext(np.array([[0.001j]]))
    rep = nc.verify_cocycle_consistency(ctx, emb, "manin", [((11, 11), (11, 11))])
    assert rep["pass"]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP J: the manin additivity probe compares exp(-pi H) at |H| near "
    "1e5, whose phase rounding (1.16e-10) is above ADDITIVITY_TOL"))
def test_additivity_phase_rounding_floor():
    # theta = 20000, default structure (Omega = 5e-5 i), search radius 3:
    # the exponents add exactly (residual 0.0), but T_{g1} T_{g2} and
    # T_{g1+g2} differ by 1.16e-10 relative; `nctheta all` exits 2 at R = 1
    # with "translations unexpectedly non-additive" alone
    emb = nc.canonical_embedding(1, 0, theta=[20000.0])
    ctx = HermitianFormContext(nc.build_theta_vector(emb).omega)
    rep = nc.additivity_probe(ctx, emb, "manin", search_radius=3)
    assert rep["max_exponent_residual"] == 0.0
    assert rep["verdict"] == "additive"


def test_cocycle_consistency_modified_underflow_raises():
    # Omega = 0.1i, theta = 10: for g = (-3, -3, -3) and h over ball(3, 3),
    # C_{g+h} underflows to 0 at 36 pairs where no factor vanishes
    # structurally; the ratio of the two sides is then 0/0
    emb = nc.canonical_embedding(1, 1, theta=[10.0], Q=[[1.0]], Delta=[[0.3]])
    ctx = HermitianFormContext(np.array([[0.1j]]))
    pairs = [((-3, -3, -3), h) for h in ball(3, 3)]
    with pytest.raises(NCThetaError, match="underflow"):
        nc.verify_cocycle_consistency(ctx, emb, "modified", pairs)
    # at lattice index +-5 the b-factor has a zero: C_{g+h} vanishes
    # structurally, and the pair is skipped rather than compared
    rep = nc.verify_cocycle_consistency(
        ctx, emb, "modified", [((0, 0, 2), (0, 0, 3)), ((1, 0, -2), (0, 1, -3))])
    assert rep["pairs_skipped_degenerate"] == 2 and rep["pairs_checked"] == 0


def test_cocycle_consistency_modified(inst_1_2, inst_0_2):
    rng = np.random.default_rng(1)
    for emb, omega in [inst_1_2, inst_0_2]:
        ctx = HermitianFormContext(omega)
        pairs = [(rng.integers(-2, 3, emb.d), rng.integers(-2, 3, emb.d))
                 for _ in range(100)]
        rep = nc.verify_cocycle_consistency(ctx, emb, "modified", pairs)
        assert rep["pass"]
        assert rep["max_definition_residual"] < 1e-12


def test_additivity_manin(inst_1_0, inst_2_0):
    for emb, omega in [inst_1_0, inst_2_0]:
        ctx = HermitianFormContext(omega)
        rep = nc.additivity_probe(ctx, emb, "manin", search_radius=3)
        assert rep["verdict"] == "additive"
        assert rep["max_exponent_residual"] < 1e-10
        assert rep["max_relative_deviation"] < 1e-10


def test_additivity_manin_deviation_found(inst_1_0, monkeypatch):
    # a pairing that is not linear in its first slot breaks the composition
    # law: the probe itself, not a patched report, says deviation_found
    def skewed(ctx, x, y):
        return hermitian_pairing_arrays(ctx, x, y) + 1e-3 * np.sum(np.abs(x) ** 2, axis=-1)

    monkeypatch.setattr(nc.manin, "hermitian_pairing_arrays", skewed)
    emb, omega = inst_1_0
    rep = nc.additivity_probe(HermitianFormContext(omega), emb, "manin", search_radius=3)
    assert rep["verdict"] == "deviation_found"
    assert rep["max_exponent_residual"] > ADDITIVITY_TOL


def test_additivity_witness_modified(inst_1_2, inst_0_2):
    for emb, omega in [inst_1_2, inst_0_2]:
        ctx = HermitianFormContext(omega)
        rep = nc.additivity_probe(ctx, emb, "modified", search_radius=3)
        assert rep["verdict"] == "witness_found"
        assert rep["witness"]["deviation"] > 1e-6
        # re-check the recorded witness through the multiplier path
        g1 = emb.point(rep["witness"]["g1"])
        g2 = emb.point(rep["witness"]["g2"])
        h = emb.point(rep["witness"]["h"])
        el = nc.QuantumElement.basis(emb, h.index)
        t1 = nc.translate(ctx, emb, g1,
                          nc.translate(ctx, emb, g2, el, "modified"),
                          "modified").coeff(tuple(h.index))
        t12 = nc.translate(ctx, emb, emb.point(g1.index + g2.index), el,
                           "modified").coeff(tuple(h.index))
        assert abs(t1 - t12) > 1e-6


def test_additivity_search_order(inst_1_0, monkeypatch):
    # the search walks the ball shell by shell (sup norm), lexicographic
    # within a shell; the translations of the continuous instance compose,
    # so the truncated search visits h through every nonzero point in turn
    emb, omega = inst_1_0
    ctx = HermitianFormContext(omega)
    seen = []

    def recording(ctx_, emb_, G, H, *args):
        seen.append(tuple(H[0].tolist()))
        return _translations(ctx_, emb_, G, H, *args)

    monkeypatch.setattr(nc.manin, "_translations", recording)
    monkeypatch.setattr(nc.manin, "MAX_CHECKS", 24)
    rep = nc.additivity_probe(ctx, emb, "modified", search_radius=2)
    assert rep["verdict"] == "no_witness_found" and rep["search_truncated"]
    expected = sorted(itertools.product(range(-2, 3), repeat=2),
                      key=lambda k: (max(abs(x) for x in k), k))
    # one kernel call per triple
    assert seen == [k for k in expected if any(k)]


def test_modified_probe_skips_degenerate_triples():
    # Delta_11 = 0.5 zeroes the factors of every index with odd k_3, so the
    # search skips the triples through those before its witness
    emb = nc.canonical_embedding(1, 2, theta=[0.5], Q=np.eye(2),
                                 Delta=np.diag([0.5, 0.3]))
    rep = nc.additivity_probe(HermitianFormContext(np.array([[2j]])), emb,
                              "modified", search_radius=1)
    assert rep["verdict"] == "witness_found"
    assert (rep["triples_checked"], rep["triples_skipped_degenerate"]) == \
        (19_444, 19_443)
    w = rep["witness"]
    assert w["g1"] == w["g2"] == w["h"] == [-1, -1, 0, -1]
    assert w["deviation"] > nc.manin.WITNESS_DEVIATION


def test_additivity_witness_equals_frozen_multipliers(inst_1_2, inst_0_2):
    # one kernel call per triple keeps the bits of the three one-g
    # multiplier calls it replaced
    for emb, omega in [inst_1_2, inst_0_2]:
        ctx = HermitianFormContext(omega)
        w = nc.additivity_probe(ctx, emb, "modified", search_radius=3)["witness"]
        h = np.array([w["h"]])
        t1, t2, t12 = (_frozen_multipliers(ctx, emb, emb.point(g), h, "modified",
                                           TAIL_EPS)[0][0]
                       for g in (w["g1"], w["g2"], np.add(w["g1"], w["g2"])))
        assert w["deviation"] == float(abs(t1 * t2 - t12))


def test_additivity_zero_translation_convention(inst_1_2):
    # the unnormalized factor at the origin makes the zero translation a
    # constant 1 / C_0, so composing with it is excluded from the search
    emb, omega = inst_1_2
    ctx = HermitianFormContext(omega)
    zero = emb.point([0, 0, 0, 0])
    el = nc.QuantumElement.basis(emb, [0, 0, 1, 1])
    c0 = nc.translation_factor(ctx, emb, zero, "modified").value
    out = nc.translate(ctx, emb, zero, el, "modified")
    assert out.coeff((0, 0, 1, 1)) == pytest.approx(1.0 / c0, rel=1e-12)


def test_manin_zero_translation_is_identity(inst_1_0):
    emb, omega = inst_1_0
    ctx = HermitianFormContext(omega)
    el = nc.QuantumElement.basis(emb, [1, 1])
    out = nc.translate(ctx, emb, emb.point([0, 0]), el, "manin")
    assert out.coeff((1, 1)) == pytest.approx(1.0, rel=1e-14)


def test_functional_equation_full_ball(inst_1_2):
    emb, omega = inst_1_2
    ctx, th = build(emb, omega)
    points = ball(emb.d, 2)
    batched = nc.verify_functional_equations(ctx, emb, th, points, "modified")
    assert len(batched) == len(points)
    # the batch shares one cube and one table; its entries carry the
    # exact bits of the single-g calls (a sample of them: each builds the
    # whole table)
    for i in range(0, len(points), 60):
        assert batched[i] == nc.verify_functional_equation(
            ctx, emb, th, emb.point(points[i]), "modified")
    assert max(entry["max_residual"] for entry in batched) < 1e-9


def test_modified_residual_compares_the_two_routes(inst_1_2):
    # T_g(h) = c_{g+h} / (C_g c_h alpha), so the left-hand side is
    # c_{g+h} theta_h / c_h: the residual checks that the inner-product
    # coefficient divided by the closed formula agrees at h and g + h
    emb, omega = inst_1_2
    ctx, th = build(emb, omega)
    R = th.radius
    closed, _ = theta_coefficients(ctx, emb, ball(emb.d, R))
    closed = closed.reshape(th.values.shape)
    points = ball(emb.d, R // 2)
    entries = nc.verify_functional_equations(ctx, emb, th, points, "modified")
    for g, entry in zip(points, entries):
        at_gh = ball(emb.d, R - int(np.max(np.abs(g)))) + R
        at_h = at_gh - g
        c_gh, c_h = closed[tuple(at_gh.T)], closed[tuple(at_h.T)]
        theta_gh, theta_h = th.values[tuple(at_gh.T)], th.values[tuple(at_h.T)]
        direct = np.max(np.abs(c_gh * theta_h / c_h - theta_gh))
        assert abs(entry["max_residual"] - direct) <= 1e-15, g


# Frozen copies of the index-based functional-equation engine, the scalar
# cocycle loop and the translation factor that the cube-slice engine, the
# batched cocycle check and the one-row closed formula replaced; the tests
# below assert that the new code keeps their bits.

def _frozen_translation_factor(ctx, emb, g, kind, tail_eps=TAIL_EPS):
    hgg = hermitian_form(ctx, g, g).real
    if kind == "manin":
        return TranslationFactor(point=g, value=complex(np.exp(-np.pi / 2 * hgg)),
                                 kind=kind, degenerate=False)
    bt, norm = b_product_arrays(g.r[None, :], g.m[None, :].astype(float), tail_eps)
    value = complex(bt[0] * np.exp(-np.pi / 2 * hgg))
    return TranslationFactor(point=g, value=value, kind=kind,
                             degenerate=bool(norm[0] < STRUCTURAL_ZERO_TOL))


def _frozen_multipliers(ctx, emb, g, indices, kind, tail_eps, factor_g=None,
                        coefficients=None):
    W1, W2, M, Rr = emb.blocks(indices)
    alpha = np.exp(1j * np.pi * cocycle_exponent_arrays(
        (g.w1, g.w2, g.m.astype(float), g.r), (W1, W2, M.astype(float), Rr)))
    if kind == "manin":
        xg = complex_coordinates(ctx, g.w1, g.w2)
        xh = complex_coordinates(ctx, W1, W2)
        hvals = hermitian_pairing_arrays(ctx, xg, xh)
        return np.exp(-np.pi * hvals), alpha
    if factor_g is None:
        factor_g = _frozen_translation_factor(ctx, emb, g, kind, tail_eps)
    if coefficients is None:
        def coefficients(K):
            return theta_coefficients(ctx, emb, K, tail_eps)
    if factor_g.degenerate:
        raise DegenerateTranslation([g.index])
    c_h, norm_h = coefficients(indices)
    bad = norm_h < STRUCTURAL_ZERO_TOL
    if np.any(bad):
        raise DegenerateTranslation(indices[bad])
    underflow = c_h == 0
    if factor_g.value == 0 or np.any(underflow):
        where = [g.index] if factor_g.value == 0 else indices[underflow]
        raise NCThetaError(
            "translation factors underflow double precision at indices "
            f"{[tuple(int(v) for v in k) for k in where[:8]]}")
    c_gh, _ = coefficients(indices + g.index)
    return c_gh / (factor_g.value * c_h * alpha), alpha


def _frozen_engine(ctx, emb, theta, points, kind, tail_eps=TAIL_EPS,
                   residual_tol=1e-9):
    R = theta.radius
    radii = [int(np.max(np.abs(g.index))) if g.index.size else 0
             for g in points]
    if any(2 * gr > R for gr in radii):
        raise ValueError("translation index must satisfy |g|_inf <= R/2")
    lookup = None
    if kind == "modified":
        table = nc.manin.BallTable.build(ctx, emb, R, tail_eps)
        zeros = table.zeros()
        if zeros:
            raise DegenerateTranslation(zeros, "theta support hits theta zeros")

        def lookup(indices):
            at = tuple((indices + table.radius).T)
            return table.values[at], table.norms[at]
    balls = {}
    entries = []
    for g, gr in zip(points, radii):
        interior = R - gr
        if interior not in balls:
            balls[interior] = ball(emb.d, interior)
        K_int = balls[interior]
        h_idx = K_int - g.index
        factor_g = _frozen_translation_factor(ctx, emb, g, kind, tail_eps)
        T, alpha = _frozen_multipliers(ctx, emb, g, h_idx, kind, tail_eps,
                                       factor_g, lookup)
        lhs = factor_g.value * alpha * T * theta.values[tuple((h_idx + R).T)]
        rhs = theta.values[tuple((K_int + R).T)]
        residual = float(np.max(np.abs(lhs - rhs)))
        entries.append({
            "g": [int(v) for v in g.index],
            "kind": kind,
            "interior_radius": int(interior),
            "max_residual": residual,
            "degenerate": False,
            "witnesses": [],
            "pass": bool(residual < residual_tol),
        })
    return entries


def _frozen_cocycle(ctx, emb, kind, pairs, tail_eps=TAIL_EPS):
    max_mod = 0.0
    max_phase = 0.0
    max_rel = 0.0
    n_checked = 0
    n_skipped = 0
    for g_idx, h_idx in pairs:
        g = emb.point(np.asarray(g_idx))
        h = emb.point(np.asarray(h_idx))
        fg = _frozen_translation_factor(ctx, emb, g, kind, tail_eps)
        fh = _frozen_translation_factor(ctx, emb, h, kind, tail_eps)
        fgh = _frozen_translation_factor(ctx, emb, emb.point(g.index + h.index),
                                         kind, tail_eps)
        if fg.degenerate or fh.degenerate:
            n_skipped += 1
            continue
        T, alpha = _frozen_multipliers(ctx, emb, g, h.index[None, :], kind,
                                       tail_eps)
        lhs = fgh.value / (fg.value * fh.value)
        rhs = T[0] * alpha[0]
        ratio = lhs / rhs
        max_mod = max(max_mod, abs(abs(ratio) - 1.0))
        max_phase = max(max_phase, abs(float(np.angle(ratio))))
        if kind == "modified":
            t_scalar = fgh.value / (fg.value * fh.value * alpha[0])
            max_rel = max(max_rel, abs(t_scalar - T[0]) / max(abs(T[0]), 1e-300))
        n_checked += 1
    ok = max_mod < 1e-10 if kind == "manin" else max_rel < 1e-12
    return {
        "kind": kind,
        "pairs_checked": n_checked,
        "pairs_skipped_degenerate": n_skipped,
        "max_modulus_residual": max_mod,
        "max_phase_residual": max_phase,
        "max_definition_residual": max_rel,
        "pass": bool(ok),
    }


# a raw Phi whose products round, with no theta zero within radius 4
RAW_PHI_1_2 = np.array([[0.5, 0.13, 0.0, 0.0],
                        [0.07, 1.1, 0.0, 0.0],
                        [0.0, 0.0, 1.0, 0.0],
                        [0.0, 0.0, 1.0, 1.0],
                        [0.0, 0.0, 0.2, 0.03],
                        [0.0, 0.0, 0.11, 0.7]])


GUARDS = ["p1q2", "p1q0", "p2q0", "raw_p1q2", "general", "p0q3"]
# p = 2 with a lattice sector (d = 6) guards the engine, at R = 2, and the
# cocycle check
ENGINE_GUARDS = GUARDS + ["p2q2"]
# the p1q2 guard at tail targets where the rows of one call, summed with
# the halfwidth of the call's largest |Re rem|, once had other bits than
# their one-row calls
TAIL_GUARDS = {"p1q2_tail_1e-9": 1e-9, "p1q2_tail_1e-3": 1e-3}


def _guard_instances(inst_1_2, inst_1_0, inst_2_0, inst_general):
    """(embedding, Omega, kind) of the bitwise guards."""
    emb_general = inst_general
    vec = nc.build_theta_vector(emb_general,
                                nc.ComplexStructure.default_partial(1))
    raw = nc.EmbeddingMap(p=1, q=2, phi=RAW_PHI_1_2)
    # the acceptance Q and Delta with two continuous components: p = 2
    # together with a lattice sector
    emb_2_2 = nc.canonical_embedding(2, 2, theta=[0.5, 0.25], Q=np.eye(2),
                                     Delta=np.diag([0.2, 0.7]))
    vec_2_2 = nc.build_theta_vector(emb_2_2,
                                    nc.ComplexStructure.default_partial(2))
    return {
        "p1q2": (*inst_1_2, "modified"),
        "p1q0": (*inst_1_0, "manin"),
        "p2q0": (*inst_2_0, "manin"),
        "raw_p1q2": (raw, np.array([[0.2 + 1.5j]]), "modified"),
        "general": (emb_general, vec.omega, "modified"),
        # three lattice components, so the cocycle exponent sums three terms
        "p0q3": (nc.canonical_embedding(0, 3, Q=np.eye(3),
                                        Delta=np.diag([0.13, 0.31, 0.71])),
                 np.zeros((0, 0), dtype=complex), "modified"),
        "p2q2": (emb_2_2, vec_2_2.omega, "modified"),
    }


@pytest.mark.parametrize("name", ENGINE_GUARDS + list(TAIL_GUARDS))
def test_engine_equals_frozen_index_engine(name, inst_1_2, inst_1_0, inst_2_0,
                                           inst_general):
    emb, omega, kind = _guard_instances(inst_1_2, inst_1_0, inst_2_0,
                                        inst_general)[name.split("_tail")[0]]
    tail_eps = TAIL_GUARDS.get(name, TAIL_EPS)
    ctx, th = build(emb, omega, R=2 if name == "p2q2" else 4)
    K = ball(emb.d, th.radius // 2)
    assert nc.verify_functional_equations(ctx, emb, th, K, kind, tail_eps) == \
        _frozen_engine(ctx, emb, th, [emb.point(k) for k in K], kind, tail_eps)


@pytest.mark.parametrize("name", ENGINE_GUARDS)
def test_engine_batches_and_index_sets_equal_frozen(name, inst_1_2, inst_1_0,
                                                    inst_2_0, inst_general,
                                                    monkeypatch):
    # batches of one pair, batches that split the shells between pairs and
    # one batch per shell; index sets that are not +-symmetric, repeat a
    # row or come in reverse order
    emb, omega, kind = _guard_instances(inst_1_2, inst_1_0, inst_2_0,
                                        inst_general)[name]
    ctx, th = build(emb, omega, R=2 if name == "p2q2" else 4)
    K = ball(emb.d, th.radius // 2)
    expected = _frozen_engine(ctx, emb, th, [emb.point(k) for k in K], kind)
    window = (2 * th.radius - 1) ** emb.d  # entries of one g with |g|_inf = 1
    for chunk in (1, 3 * window, (2 * th.radius + 1) ** emb.d * len(K)):
        monkeypatch.setattr(nc.lattice, "BATCH_ENTRIES", chunk)
        assert nc.verify_functional_equations(ctx, emb, th, K, kind) == \
            expected, chunk
    monkeypatch.undo()
    rng = np.random.default_rng(7)
    index_sets = {
        "first_half": K[:len(K) // 2],  # no g with its -g
        "random_half": K[np.sort(rng.permutation(len(K))[:len(K) // 2])],
        "one_unpaired": K[1:],  # K[-1] = -K[0] without K[0]
        "duplicates": np.concatenate([K[[3, 0]], K, K[[len(K) // 2, 3]]]),
        "reversed": K[::-1],
    }
    for label, Ks in index_sets.items():
        assert nc.verify_functional_equations(ctx, emb, th, Ks, kind) == \
            _frozen_engine(ctx, emb, th, [emb.point(k) for k in Ks], kind), label


def test_cocycle_of_negated_points_is_bitwise_equal(inst_general):
    # the engine computes the cocycle cube of one g of each pair {g, -g}
    # and flips it for the other: S(-g, -h) == S(g, h) to the last bit
    for emb in (nc.EmbeddingMap(p=1, q=2, phi=RAW_PHI_1_2), inst_general):
        K = ball(emb.d, 2)
        alpha, mirrored = (cocycle_arrays([b[:, None] for b in blocks],
                                          [b[None] for b in blocks])
                           for blocks in (emb.blocks(K), emb.blocks(-K)))
        assert alpha.shape == (len(K), len(K))
        assert np.array_equal(alpha.view(np.uint64), mirrored.view(np.uint64))


@pytest.mark.parametrize("name", ENGINE_GUARDS + list(TAIL_GUARDS))
def test_cocycle_equals_frozen_scalar_loop(name, inst_1_2, inst_1_0, inst_2_0,
                                           inst_general):
    emb, omega, kind = _guard_instances(inst_1_2, inst_1_0, inst_2_0,
                                        inst_general)[name.split("_tail")[0]]
    tail_eps = TAIL_GUARDS.get(name, TAIL_EPS)
    ctx = HermitianFormContext(omega)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pair_idx = rng.integers(-2, 3, size=(100, 2, emb.d))
        pairs = [(row[0], row[1]) for row in pair_idx]
        assert nc.verify_cocycle_consistency(ctx, emb, kind, pairs, tail_eps) == \
            _frozen_cocycle(ctx, emb, kind, pairs, tail_eps), seed


def test_engine_rejects_rows_as_blocks_does(inst_1_2):
    emb, omega = inst_1_2
    ctx, th = build(emb, omega, R=2)
    for K, error in ((np.array([[0, 0, 0.5, 0]]), ValueError),
                     (np.array([[0, 0, 1]]), DimensionMismatch),
                     (np.zeros(4, dtype=int), DimensionMismatch)):
        for call in (emb.blocks, lambda K: nc.verify_functional_equations(
                ctx, emb, th, K, "modified")):
            with pytest.raises(error):
                call(K)


def test_cocycle_rejects_ragged_pairs(inst_1_2):
    emb, omega = inst_1_2
    ctx = HermitianFormContext(omega)
    for pairs in ([([0, 0, 0, 1], [0, 0, 1])], [([0, 0, 0], [0, 0, 1])]):
        with pytest.raises(DimensionMismatch):
            nc.verify_cocycle_consistency(ctx, emb, "modified", pairs)


@pytest.mark.parametrize("name", GUARDS)
def test_translation_factor_equals_frozen(name, inst_1_2, inst_1_0, inst_2_0,
                                          inst_general):
    emb, omega, kind = _guard_instances(inst_1_2, inst_1_0, inst_2_0,
                                        inst_general)[name]
    ctx = HermitianFormContext(omega)
    for k in ball(emb.d, 2):
        g = emb.point(k)
        new = nc.translation_factor(ctx, emb, g, kind)
        old = _frozen_translation_factor(ctx, emb, g, kind)
        assert (new.value, new.degenerate) == (old.value, old.degenerate), k


def _outcome(call):
    try:
        call()
    except (ValueError, NCThetaError) as exc:
        return type(exc), str(exc)
    return None


def test_engine_errors_in_frozen_order():
    # |g|_inf > R/2 before the scan, the scan before any translation, each
    # with the frozen engine's message and offending indices
    degenerate = nc.canonical_embedding(1, 2, theta=[0.5], Q=np.eye(2),
                                        Delta=np.diag([0.5, 0.3]))
    ctx, th = build(degenerate, np.array([[2j]]), R=4)
    seen = []
    for ks in ([(0, 0, 0, 0), (0, 0, 0, 3)], [(0, 0, 0, 0)]):
        points = [degenerate.point(k) for k in ks]
        new = _outcome(lambda: nc.verify_functional_equations(
            ctx, degenerate, th, np.array(ks), "modified"))
        assert new == _outcome(lambda: _frozen_engine(
            ctx, degenerate, th, points, "modified")), ks
        seen.append(new)
    expected = [
        (ValueError, "translation index must satisfy |g|_inf <= R/2"),
        (DegenerateTranslation, "theta support hits theta zeros at lattice "
                                "indices [(-4, -4, -3, ")]
    assert [(kind, message[:len(prefix)]) for (kind, message), (_, prefix)
            in zip(seen, expected)] == expected
    # where the frozen engine raised an underflow of c_h for g = 0 (theta =
    # 33) or already for g = (0, 1, 0) (theta = 80), and of C_g at
    # g = (-1, 1, 1), the far products are formed as c_{g+h} (theta_h / c_h)
    for theta in (33.0, 80.0):
        emb = nc.canonical_embedding(1, 1, theta=[theta], Q=[[1]], Delta=[[0.3]])
        ctx, th = build(emb, np.array([[0.1j]]), R=2)
        for ks in ([(0, 1, 0), (0, 0, 0)], [(-1, 1, 1), (0, 0, 0)]):
            points = [emb.point(k) for k in ks]
            assert _outcome(lambda: _frozen_engine(ctx, emb, th, points, "modified"))[1] \
                .startswith("translation factors underflow double precision")
            entries = nc.verify_functional_equations(ctx, emb, th, np.array(ks), "modified")
            assert all(e["pass"] and e["max_residual"] <= 6.2e-14 for e in entries), ks


class _CubesBuilt(Exception):
    pass


@pytest.mark.parametrize("embedding, R, kind, refused", [
    ({"p": 1, "q": 0, "theta": [0.5]}, 400, "manin", True),
    ({"p": 2, "q": 2, "theta": [0.5, 0.25], "Q": np.eye(2),
      "Delta": np.diag([0.2, 0.7])}, 4, "modified", False),
], ids=["d2_R400", "d6_R4"])
def test_engine_work_budget(monkeypatch, embedding, R, kind, refused):
    # the window entries, sum over g of (2 (R - |g|_inf) + 1)^d: 4.7e10 at
    # d = 2, R = 400 (about 35 minutes) are refused before any cube is
    # built; 3.2e8 at d = 6, R = 4 (about 27 s) go on to the cubes
    def cubes(*args):
        raise _CubesBuilt
    emb = nc.canonical_embedding(**embedding)
    zero = nc.QuantumElement(embedding=emb, values=np.zeros((2 * R + 1,) * emb.d))
    ctx = HermitianFormContext(1j * np.eye(emb.p))
    monkeypatch.setattr(manin, "ball", cubes)
    start = time.perf_counter()
    with pytest.raises(GridTooLarge if refused else _CubesBuilt) as info:
        nc.verify_functional_equations(ctx, emb, zero, ball(emb.d, R // 2), kind)
    assert time.perf_counter() - start < 1
    if refused:
        assert str(info.value) == \
            f"47232908001 FE window entries exceed FE_BUDGET {manin.FE_BUDGET}"


@pytest.mark.parametrize("dtype", [float, complex])
def test_kernels_on_cube_views_keep_np_sum_bits(dtype):
    # the engine passes the kernels a row of g against basic slices of
    # component-major cubes viewed with the components last; each entry
    # must carry the bits of np.sum over the stacked products, for short
    # (sequential) and long (pairwise) axes, and the shape of that sum
    # when there are no components (p = 0)
    rng = np.random.default_rng(5)
    at = (slice(1, 6), slice(2, 7))

    def draw(*shape):
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape)
        return x + 1j * rng.standard_normal(shape) if dtype is complex else x

    for n in range(10):
        xs = [draw(n) for _ in range(4)]
        cubes = [draw(n, 7, 7) for _ in range(4)]
        views = [np.moveaxis(c, 0, -1)[at] for c in cubes]
        stacked = [np.stack([c[j][at] for j in range(n)], axis=-1) if n else
                   np.zeros((5, 5, 0), dtype) for c in cubes]
        (w1x, w2x, mx, rx), (w1y, w2y, my, ry) = xs, stacked
        expected = (np.sum(w1x * w2y, axis=-1) + np.sum(mx * ry, axis=-1)
                    - np.sum(w1y * w2x, axis=-1) - np.sum(my * rx, axis=-1))
        got = cocycle_exponent_arrays(xs, views)
        assert got.dtype == expected.dtype and got.shape == (5, 5)
        assert got.tobytes() == expected.tobytes(), n
        if dtype is complex:
            a, b = rng.standard_normal((2, n, n))
            omega = (a + a.T) / 2 + 1j * (b @ b.T + n * np.eye(n))
        else:
            omega = 1j * np.eye(n)  # a real im_inv keeps real rows real
        ctx = HermitianFormContext(omega)
        expected = np.sum(nc.theta._vecmat(xs[0], ctx.im_inv)
                          * np.conj(stacked[0]), axis=-1)
        got = hermitian_pairing_arrays(ctx, xs[0], views[0])
        assert got.dtype == expected.dtype and got.shape == (5, 5)
        assert got.tobytes() == expected.tobytes(), n


def test_additivity_probe_subnormal_multiplier_is_no_deviation():
    # Omega = 7.6257 + 0.6209i: at one triple |T_g1(h)| = 1.6e-321 is
    # subnormal and has lost its digits, while T_g2(h) = 9.8e40 makes the
    # product normal again; such a triple is measured on the exponent
    # scale, as any multiplier outside the normal double range
    emb = nc.canonical_embedding(1, 0, theta=[0.8082604624727913])
    structure = nc.ComplexStructure(
        "full", np.array([[6.163571480202582 + 0.5018596633410932j]]),
        np.array([[1]]))
    result = nc.classify_holomorphic(emb, structure)
    assert result.variant == "unique"
    ctx = HermitianFormContext(result.omega)
    rep = nc.additivity_probe(ctx, emb, "manin", search_radius=3)
    assert rep["verdict"] == "additive"
    assert rep["max_relative_deviation"] < ADDITIVITY_TOL
