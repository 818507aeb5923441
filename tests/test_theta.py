import bisect
import math
import time
import warnings
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nctheta as nc
from nctheta.errors import (BadTau, DimensionMismatch, DivergentIntegral,
                            GridMismatch, NCThetaError, SingularEmbedding)
from nctheta.heisenberg import GaussianVector
from nctheta.lattice import ball
from nctheta.manin import BallTable
from nctheta.theta import (SERIES_BUDGET, TAIL_EPS, HermitianFormContext,
                           _closed_inner_products, _series_halfwidth,
                           _shifted_lattice_sums,
                           b_product_arrays, complex_coordinates,
                           hermitian_pairing_arrays, theta_coefficients)

# sum_n exp(-pi n^2), computed with 40-digit summation (mpmath), frozen.
THETA_I_0 = 1.086434811213308014575316
# square of the value above
THETA_I_0_SQ = 1.180340599016096226045338


def test_theta_value_at_origin():
    assert nc.classical_theta(1j, 0.0) == pytest.approx(THETA_I_0, abs=1e-12)


def test_theta_matches_extended_precision_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    rng = np.random.default_rng(0)
    for _ in range(5):
        tau = complex(rng.normal() * 0.3, 0.6 + rng.uniform(0, 1.5))
        z = complex(rng.normal(), rng.normal() * 0.8)
        oracle = mp.nsum(
            lambda n: mp.e ** (1j * mp.pi * tau * n**2 + 2j * mp.pi * n * z),
            [-mp.inf, mp.inf])
        ours = nc.classical_theta(tau, z)
        assert ours == pytest.approx(complex(oracle), rel=1e-12, abs=1e-12)


def test_theta_zero_and_periodicity():
    assert abs(nc.classical_theta(1j, (1 + 1j) / 2)) < 1e-12
    rng = np.random.default_rng(1)
    for _ in range(10):
        z = complex(rng.normal(), rng.normal() * 0.5)
        assert nc.classical_theta(1j, z + 1) == pytest.approx(
            nc.classical_theta(1j, z), rel=1e-12, abs=1e-12)


def test_theta_quasi_periodicity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        tau = complex(rng.normal() * 0.2, 0.8 + rng.uniform(0, 1))
        z = complex(rng.normal(), rng.normal() * 0.5)
        lhs = nc.classical_theta(tau, z + tau)
        rhs = np.exp(-1j * np.pi * tau - 2j * np.pi * z) * nc.classical_theta(tau, z)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_theta_bad_tau():
    with pytest.raises(BadTau):
        nc.classical_theta(1.0 - 0.5j, 0.0)


def test_theta_large_shift_recentred():
    # the series is summed around its peak n0 = -6, where the plain sum
    # would need terms up to exp(36 pi)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    z = 0.25 + 6j
    oracle = complex(mp.jtheta(3, mp.pi * z, mp.exp(-mp.pi)))
    assert abs(nc.classical_theta(1j, z) - oracle) <= 1e-12 * abs(oracle)


def test_theta_out_of_range_raises():
    # |theta(1e10 i | i)| ~ exp(pi 1e20): not a double, and the halfwidth
    # search must not grow with Im z
    start = time.perf_counter()
    with pytest.raises(NCThetaError):
        nc.classical_theta(1j, 1e10j)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(NCThetaError):
        nc.classical_theta(1j, 60j)
    # a tiny Im tau would need millions of terms: refused before summing
    start = time.perf_counter()
    with pytest.raises(NCThetaError):
        nc.classical_theta(1e-12j, 0.1)
    assert time.perf_counter() - start < 1.0
    # so is a subnormal one at tail_eps >= 1, whose bisection meets n where
    # the ratio exp(-2 pi a (n + 1)) rounds to 1 (a ZeroDivisionError once)
    for tail_eps in (1.0, 5.0, 1e300):
        with pytest.raises(NCThetaError, match="needs more than"):
            nc.classical_theta(5e-324j, 0, tail_eps=tail_eps)


def test_theta_huge_im_tau_keeps_its_value():
    # the root of the halfwidth's head bound is formed from 1/2, not from
    # Im tau, whose square overflows past Im tau = 2.7e154
    for tau in (1e155j, 1e200j, 1e300j):
        assert nc.classical_theta(tau, 0.0) == 1.0
        assert nc.classical_theta(tau, 0.3) == pytest.approx(1.0, abs=1e-15)
    # from Im tau = 1.2e302 the halfwidth's two terms both overflow at some
    # bisection midpoints (inf - inf), and from 2.9e307 2 pi Im tau does
    for x in [*np.geomspace(1e301, 1.79e308, 60), 1.1e302, 1.144e302, 2.87e307,
              np.finfo(float).max]:
        assert nc.classical_theta(x * 1j, 0) == 1, x
        assert nc.classical_theta(complex(0.5, x), 0.3 + 1e3j) == 1, x
    # where the n = -1 term is as large as the n = 0 term, a typed error
    # (the series is 2: test_theta_two_peak_terms_beyond_2pi_range)
    with pytest.raises(NCThetaError, match="is not a finite double"):
        nc.classical_theta(4e307j, 2e307j)


@pytest.mark.xfail(strict=True, raises=NCThetaError, reason=(
    "ROADMAP P: once 2 pi Im tau overflows, _shifted_lattice_sums rounds "
    "n0 = Re c1 / inf to 0, so rem = c1 - inf * 0 is NaN, and its j = +-2 "
    "terms form -inf + inf"))
def test_theta_two_peak_terms_beyond_2pi_range():
    # z = tau / 2: the n = 0 and n = -1 terms are 1 and every other term
    # is 0, so the series is 2
    for tau in (4e307j, 3e307j):
        assert nc.classical_theta(tau, tau / 2) == 2


def _frozen_series_halfwidth(a, b, tail_eps):
    """_series_halfwidth with its sums formed in one way only, for reference."""
    log_tail = math.log(tail_eps)

    def below(n):
        log_ratio = -math.pi * a * (2 * n + 3) + 2 * math.pi * b
        log_head = -math.pi * a * (n + 1) ** 2 + 2 * math.pi * b * (n + 1)
        return log_ratio < 0.0 and log_head + math.log(
            2.0 / (1.0 - math.exp(log_ratio))) < log_tail

    root = b / a + math.sqrt(max((b / a) ** 2 - log_tail / (math.pi * a), 0.0))
    n = SERIES_BUDGET + 1
    if root <= n:
        n = bisect.bisect_left(range(n), True, key=below,
                               lo=max(1, math.ceil(b / a) + 1, math.floor(root) - 1))
    return n


def test_series_halfwidth_keeps_its_values_where_its_sums_are_finite():
    for a in np.geomspace(1e-3, 1e301, 305).tolist():
        for tail_eps in (1e-15, 1e-9, 1e-3):
            assert _series_halfwidth(a, tail_eps) == \
                _frozen_series_halfwidth(a, a / 2, tail_eps), (a, tail_eps)
    # beyond, both terms of a sum overflow at the first bisection midpoints,
    # and the frozen copy's NaN there ends in a budget error
    for a in (1.2e302, 1e305, 2.9e307, 1.79e308):
        assert _series_halfwidth(a, TAIL_EPS) == 2, a


def _halfwidth_draws(count, seed):
    """(a, tail_eps) pairs: a log-uniform over all positive doubles with
    tail_eps log-uniform in [1e-300, 1e300], subnormal a with tail_eps >= 1,
    and a = 1 with tail_eps log-uniform in [1e-300, 1]."""
    rng = np.random.default_rng(seed)
    n = count // 4
    wide = np.exp(rng.uniform(math.log(5e-324), math.log(1.79e308), 2 * n))
    subnormal = rng.integers(1, 2**52, n) * 5e-324
    return (list(zip(wide.tolist(), np.exp(rng.uniform(-690, 690, 2 * n)).tolist()))
            + list(zip(subnormal.tolist(), np.exp(rng.uniform(0, 690, n)).tolist()))
            + [(1.0, e) for e in np.exp(rng.uniform(-690, 0, n)).tolist()])


def test_series_halfwidth_equals_frozen_copy_at_the_recentred_bound():
    # the package's bound is the frozen copy's at b = a / 2; where the
    # frozen sums form NaN the answer is 2, and where its bisection divides
    # by a ratio that rounds to 1, such an n is not below the tail
    outcomes = set()
    for a, tail_eps in _halfwidth_draws(20000, 41):
        try:
            want = _frozen_series_halfwidth(a, a / 2, tail_eps)
        except ZeroDivisionError:
            want = ZeroDivisionError
        if a >= 1.2e302:
            assert want == SERIES_BUDGET + 1 and _series_halfwidth(a, tail_eps) == 2
            outcomes.add("nan")
        elif want is ZeroDivisionError:
            try:
                n = _series_halfwidth(a, tail_eps)
            except NCThetaError:
                outcomes.add("zero_division")
                continue
            # n is the first that holds, a ratio of 1 counting as not: this
            # needs tail_eps > 2 / (1 - ratio) > 2
            def holds(k):
                try:
                    return _halfwidth_holds(k, a, a / 2, math.log(tail_eps))
                except ZeroDivisionError:
                    return False
            assert tail_eps > 1 and holds(n) and not holds(n - 1), (a, tail_eps, n)
            outcomes.add("first_ratio_below_1")
        elif want > SERIES_BUDGET:
            with pytest.raises(NCThetaError):
                _series_halfwidth(a, tail_eps)
            outcomes.add("budget")
        else:
            assert _series_halfwidth(a, tail_eps) == want, (a, tail_eps)
            outcomes.add("n")
    assert outcomes == {"nan", "zero_division", "first_ratio_below_1", "budget", "n"}


def test_non_finite_inputs_raise_typed():
    # the halfwidth no longer depends on the input, so no series budget
    # sees a NaN: the value itself is checked.  An infinite input makes
    # inf * 0 inside the sums: NaN again, with no RuntimeWarning first
    emb = nc.canonical_embedding(1, 2, theta=[0.5], Q=np.eye(2),
                                 Delta=np.diag([0.2, 0.7]))
    f = GaussianVector.pure(np.array([[2j]]), 2)
    h = emb.point([1, 0, 1, 0])
    nan_mu = GaussianVector(p=1, q=2, omega=[[2j]], ell=[0], c0=1, n0=[0, 0],
                            mu=[complex(0, np.nan), 0])
    nan_m = nc.LatticePoint(h.index, h.w1, h.w2, np.array([np.nan, 0.0]), h.r)
    inf_mu = GaussianVector(p=1, q=2, omega=[[2j]], ell=[0], c0=1, n0=[0, 0],
                            mu=[np.inf, 0])
    inf_ell = GaussianVector(p=1, q=2, omega=[[2j]], ell=[np.inf], c0=1, n0=[0, 0],
                             mu=[0, 0])
    calls = [lambda: nc.classical_theta(1j, np.nan),
             lambda: nc.b_factor(np.nan, 1),
             lambda: nc.inner_product_closed(nan_mu, f, h),
             lambda: nc.inner_product_closed(f, f, nan_m),
             lambda: nc.b_factor(np.inf, 1), lambda: nc.b_factor(-np.inf, 1),
             lambda: nc.inner_product_closed(inf_mu, f, h),
             lambda: nc.inner_product_closed(f, inf_mu, h),
             lambda: nc.inner_product_closed(inf_ell, f, h)]
    for block in range(4):
        blocks = [h.w1, h.w2, h.m, h.r]
        blocks[block] = np.full(blocks[block].shape, np.inf)
        calls.append(lambda blocks=blocks: nc.inner_product_closed(
            f, f, nc.LatticePoint(h.index, *blocks)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(NCThetaError, match="is not a finite double"):
                call()


def _halfwidth_holds(n, a, b, log_tail):
    """The tail condition at one n, in scalar arithmetic."""
    log_ratio = -math.pi * a * (2 * n + 3) + 2 * math.pi * b
    if log_ratio >= 0.0:
        return False
    log_head = -math.pi * a * (n + 1) ** 2 + 2 * math.pi * b * (n + 1)
    return log_head + math.log(2.0 / (1.0 - math.exp(log_ratio))) < log_tail


def _linear_halfwidth(a, b, tail_eps):
    """The halfwidth search as a linear scan up from b/a, for reference.

    Each block of consecutive n (64 at first, then twice as many up to
    2^16) is tested at once in numpy, whose exp and log may round
    otherwise than math's; where its margin to the bound is within 1e-6,
    the scalar test decides.  The products and sums are the scalar
    test's, in its order, so their bits agree.
    """
    log_tail = math.log(tail_eps)
    start, block = max(1, math.ceil(b / a) + 1), 64
    while True:
        n = np.arange(start, start + block)
        log_ratio = -math.pi * a * (2 * n + 3) + 2 * math.pi * b
        log_head = -math.pi * a * (n + 1) ** 2 + 2 * math.pi * b * (n + 1)
        with np.errstate(invalid="ignore", divide="ignore"):
            margin = log_tail - (log_head + np.log(2.0 / (1.0 - np.exp(log_ratio))))
        holds = (log_ratio < 0.0) & (margin > 0.0)
        near = (log_ratio < 0.0) & (np.abs(margin) <= 1e-6)
        holds[near] = [_halfwidth_holds(k, a, b, log_tail) for k in n[near].tolist()]
        if holds.any():
            return int(n[np.argmax(holds)])
        start, block = start + block, min(2 * block, 2**16)


def test_series_halfwidth_matches_linear_search():
    for a in np.geomspace(1e-6, 10, 18):
        for tail_eps in (1e-300, 1e-15, 1e-3, 0.5):
            expected = _linear_halfwidth(a, a / 2, tail_eps)
            if expected > SERIES_BUDGET:
                with pytest.raises(NCThetaError):
                    _series_halfwidth(a, tail_eps)
            else:
                assert _series_halfwidth(a, tail_eps) == expected


def test_series_halfwidth_bisects():
    # the answer lies ~4*10^4 checks past the quadratic root here
    start = time.perf_counter()
    assert _series_halfwidth(1e-10, 1e-15) == 372502
    assert time.perf_counter() - start < 5e-3


def _frozen_shifted_lattice_sums(c1, c0, tail_eps=TAIL_EPS, a=1.0):
    """The lattice-series kernel as a (2N+1) x rows term array and its
    running sum, for reference."""
    c1 = np.asarray(c1, dtype=complex)
    c0 = np.asarray(c0, dtype=complex)
    n0 = np.round(c1.real / (2.0 * np.pi * a.real))
    rem = c1 - 2.0 * np.pi * a * n0
    bmax = float(np.max(np.abs(rem.real))) / (2.0 * np.pi) if c1.size else 0.0
    N = _frozen_series_halfwidth(a.real, bmax, tail_eps)
    j = np.arange(-N, N + 1, dtype=float)
    terms = np.exp(-np.pi * a * j[:, None] ** 2 + rem.ravel()[None, :] * j[:, None])
    core = np.cumsum(terms, axis=0)[-1].reshape(c1.shape)
    scale = np.exp(-np.pi * a * n0**2 + c1 * n0 + c0)
    return scale * core, np.abs(core), n0


def _lattice_sum_cases():
    rng = np.random.default_rng(11)
    wide = rng.normal(size=(3, 4000)) * 20 + 1j * rng.normal(size=(3, 4000)) * 5
    return {
        # one element: sum() would add its terms pairwise
        "one": (np.array([[0.3 - 2.1j]]), np.array([[0.1j]]), 1.0),
        # F-ordered, as b_product_arrays can pass it
        "wide": (wide.T, rng.normal(size=(4000, 3)) + 0j, 1.0),
        "complex_a": (rng.normal(size=(300, 2)) * 3 + 1j * rng.normal(size=(300, 2)),
                      rng.normal(size=(300, 2)) + 0j, 0.7 - 0.4j),
    }


@pytest.mark.parametrize("name", ["one", "wide", "complex_a"])
def test_shifted_lattice_sums_equal_frozen_running_sum(name):
    c1, c0, a = _lattice_sum_cases()[name]
    got = _shifted_lattice_sums(c1, c0, a=a)
    want = _frozen_shifted_lattice_sums(c1, c0, a=a)
    for x, y in zip(got, want):
        assert x.shape == y.shape and x.flags.c_contiguous == y.flags.c_contiguous
        assert (x == y).all()


def test_shifted_lattice_sums_peak_memory():
    # the terms are added one row at a time: no (2N+1) x rows array
    c1, c0, a = _lattice_sum_cases()["wide"]
    peaks = []
    for kernel in (_shifted_lattice_sums, _frozen_shifted_lattice_sums):
        tracemalloc.start()
        try:
            kernel(c1, c0, a=a)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 0.6 * peaks[1], peaks


@pytest.mark.parametrize("q", [2, 3, 5])
def test_lattice_kernels_ignore_memory_layout(q):
    # b.prod(axis=1) rounds differently on F-ordered arrays; the kernels
    # must give the bits of C-ordered input whatever layout they are passed
    rng = np.random.default_rng(q)
    n = 400
    layouts = (np.ascontiguousarray, np.asfortranarray)
    c1 = rng.normal(size=(n, q)) * 20 + 1j * rng.normal(size=(n, q)) * 5
    c0 = rng.normal(size=(n, q)) + 1j * rng.normal(size=(n, q))
    sums = [_shifted_lattice_sums(lay(c1), lay(c0)) for lay in layouts]
    r = rng.uniform(-3, 3, size=(n, q))
    m = rng.integers(-6, 7, size=(n, q))
    products = [b_product_arrays(lay(r), lay(m)) for lay in layouts]
    emb = nc.canonical_embedding(1, q, theta=[0.5], Q=np.eye(q),
                                 Delta=rng.uniform(0.05, 0.45, size=(q, q)))
    blocks = emb.blocks(rng.integers(-3, 4, size=(n, emb.d)))
    f = GaussianVector(p=1, q=q, omega=[[0.3 + 1.2j]], ell=[0.1 - 0.2j],
                       c0=0.8 - 0.3j, n0=rng.integers(-1, 2, q),
                       mu=rng.normal(size=q) + 0.1j)
    g = GaussianVector.pure([[0.5j]], q)
    inner = [_closed_inner_products(f, g, [lay(b) for b in blocks], TAIL_EPS)
             for lay in layouts]
    for c_out, f_out in zip(*sums):
        assert c_out.tobytes() == f_out.tobytes()
    for c_out, f_out in zip(*products):
        assert c_out.tobytes() == f_out.tobytes()
    assert inner[0].tobytes() == inner[1].tobytes()


def test_b_factor_values():
    assert nc.b_factor(0.0, 0) == pytest.approx(THETA_I_0, abs=1e-12)
    # independent series oracle for b(0.3, 1)
    n = np.arange(-30, 31)
    series = np.sum(np.exp(-np.pi * n**2 + 2j * np.pi * n * (-0.3 + 0.5j)))
    expected = np.exp(-np.pi / 2 - 1j * np.pi * 0.3) * series
    assert nc.b_factor(0.3, 1) == pytest.approx(expected, rel=1e-13)
    # theta zero: half-integer torus coordinate with odd integer shift
    assert abs(nc.b_factor(0.5, 1)) < 1e-14
    assert abs(nc.b_factor(0.5, 3)) < 1e-14
    assert abs(nc.b_factor(0.5, 2)) > 1e-3


def test_b_factor_lift_sign_contract():
    # shifting the torus coordinate by a full period flips odd-m factors
    rng = np.random.default_rng(3)
    for _ in range(10):
        r = rng.uniform(-1, 1)
        m = int(rng.integers(-4, 5))
        assert nc.b_factor(r + 1.0, m) == pytest.approx(
            (-1) ** m * nc.b_factor(r, m), rel=1e-12, abs=1e-14)


def test_b_factor_large_shift_no_overflow():
    # peak-shifted evaluation: the naive series peak exp(pi m^2/4) would
    # overflow doubles near |m| = 30 while the factor itself underflows
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = nc.b_factor(0.3, 40)
        assert val == 0.0 or abs(val) < 1e-300
        vals, norms = b_product_arrays(np.array([[0.3, 0.1]]),
                                       np.array([[40, -52]]))
        assert np.all(np.isfinite(norms))
        assert norms[0] > 1e-3  # not a structural zero, just tiny
    # moderate values still match the direct series
    n = np.arange(-40, 41)
    direct = np.exp(-np.pi / 2 * 36 - 1j * np.pi * 6 * 0.3) * np.sum(
        np.exp(-np.pi * n**2 + 2j * np.pi * n * (-0.3 + 3j)))
    assert nc.b_factor(0.3, 6) == pytest.approx(direct, rel=1e-12)


def test_b_product_structural_zero_detection():
    r = np.array([[0.5, 0.2], [0.3, 0.2]])
    m = np.array([[1, 0], [1, 0]])
    vals, norms = b_product_arrays(r, m)
    assert abs(vals[0]) < 1e-14 and norms[0] < 1e-12
    assert norms[1] > 1e-3


def test_hermitian_form_values(inst_1_0):
    emb, omega = inst_1_0
    ctx = HermitianFormContext(omega)
    zero = emb.point([0, 0])
    assert nc.hermitian_form(ctx, zero, zero) == 0
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = emb.point(rng.integers(-4, 5, 2))
        h = emb.point(rng.integers(-4, 5, 2))
        hg = nc.hermitian_form(ctx, g, g)
        assert hg.imag == pytest.approx(0.0, abs=1e-12)
        assert hg.real == pytest.approx(g.w1[0] ** 2 + g.w2[0] ** 2, rel=1e-12) \
            or (g.w1[0] == 0 and g.w2[0] == 0)
        assert nc.hermitian_form(ctx, g, h) == pytest.approx(
            np.conj(nc.hermitian_form(ctx, h, g)), abs=1e-12)


def test_hermitian_form_positivity(inst_2_0):
    emb, omega = inst_2_0
    ctx = HermitianFormContext(omega)
    assert np.max(np.abs(ctx.im_inv @ omega.imag - np.eye(2))) < 1e-10
    rng = np.random.default_rng(5)
    for _ in range(30):
        k = rng.integers(-4, 5, 4)
        g = emb.point(k)
        val = nc.hermitian_form(ctx, g, g)
        assert val.imag == pytest.approx(0.0, abs=1e-10)
        if np.any(k != 0):
            assert val.real > 0
    assert nc.hermitian_form(ctx, emb.point([0] * 4), emb.point([0] * 4)) == 0


def test_hermitian_kernels_row_independent():
    # every batch row has the bits of its one-row call, and one-row values
    # are those of w1 @ Omega + w2 and sum((xg @ inv(Im Omega)) * conj(xh))
    # on vectors; the blocks come from a raw Phi whose products round
    rng = np.random.default_rng(6)
    for p in range(1, 7):
        a, b = rng.normal(size=(2, p, p))
        omega = (a + a.T) / 2 + 1j * (b @ b.T + p * np.eye(p))
        ctx = HermitianFormContext(omega)
        emb = nc.EmbeddingMap(p=p, q=0, phi=rng.normal(size=(2 * p, 2 * p)))
        K = rng.integers(-4, 5, (300, 2 * p))
        W1, W2, _, _ = emb.blocks(K)
        X = complex_coordinates(ctx, W1, W2)
        Y = X[::-1]
        H = hermitian_pairing_arrays(ctx, X, Y)
        for i, k in enumerate(K):
            g = emb.point(k)
            assert np.array_equal(g.w1, W1[i]) and np.array_equal(g.w2, W2[i])
            x = complex_coordinates(ctx, g.w1, g.w2)
            assert np.array_equal(x, X[i]) and np.array_equal(x, g.w1 @ omega + g.w2)
            value = hermitian_pairing_arrays(ctx, x, Y[i])
            assert value == H[i]
            assert value == np.sum((x @ ctx.im_inv) * np.conj(Y[i]))


def _quadrature_gaussian(M, v, L, step):
    p = M.shape[0]
    ax = np.arange(-L, L + step / 2, step)
    if p == 1:
        integrand = np.exp(-M[0, 0] * ax**2 + v[0] * ax)
        return np.trapezoid(integrand, dx=step)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    quad = M[0, 0] * X**2 + (M[0, 1] + M[1, 0]) * X * Y + M[1, 1] * Y**2
    integrand = np.exp(-quad + v[0] * X + v[1] * Y)
    return np.trapezoid(np.trapezoid(integrand, dx=step), dx=step)


def test_gaussian_integral_against_quadrature():
    rng = np.random.default_rng(6)
    for trial in range(50):
        p = 1 if trial % 2 == 0 else 2
        a = rng.normal(size=(p, p))
        re = a @ a.T + 0.6 * np.eye(p)
        im = rng.normal(size=(p, p))
        im = (im + im.T) / 2
        M = re + 1j * im
        v = 0.8 * (rng.normal(size=p) + 1j * rng.normal(size=p))
        closed = nc.gaussian_integral(M, v)
        quad = _quadrature_gaussian(M, v, L=9.0, step=0.02 if p == 1 else 0.06)
        assert closed == pytest.approx(quad, rel=1e-8)


def test_gaussian_integral_divergent():
    with pytest.raises(DivergentIntegral):
        nc.gaussian_integral(np.array([[-1.0 + 0.5j]]), np.array([0j]))


def test_gaussian_integral_rejects_malformed_shapes():
    # a 1-d or 0-d M once gave 1 where the integral is sqrt(pi / 2)
    for M, v in [(np.array([2.0]), np.array([0.0])), (np.array(2.0), np.array([0.0])),
                 (np.array(2.0), np.array(0.0)), (np.ones((2, 3)), np.zeros(2)),
                 (np.eye(2), np.zeros(1)), (np.eye(2), np.zeros((2, 1)))]:
        with pytest.raises(DimensionMismatch):
            nc.gaussian_integral(M, v)
    assert nc.gaussian_integral(np.zeros((0, 0)), np.zeros(0)) == 1
    assert nc.gaussian_integral([[2.0]], [0.0]) == pytest.approx(math.sqrt(math.pi / 2))


def test_inner_product_diagonal_normalization(inst_1_2):
    emb, omega = inst_1_2
    f = GaussianVector.pure(omega, emb.q)
    val = nc.inner_product_closed(f, f, emb.point([0, 0, 0, 0]))
    norm = 1.0 / np.sqrt(2.0 * float(omega.imag[0, 0]))
    assert val == pytest.approx(norm * THETA_I_0_SQ, rel=1e-12)


def test_inner_product_worked_value():
    emb = nc.canonical_embedding(1, 0, theta=[0.5])
    f = GaussianVector.pure(np.array([[1j]]))
    # index (2, 0) has continuous blocks (1, 0)
    val = nc.inner_product_closed(f, f, emb.point([2, 0]))
    assert val == pytest.approx(np.exp(-np.pi / 2) / np.sqrt(2.0), rel=1e-12)


def _sampled_pair(emb, f, g, L, step, N, Lg, Ng):
    fs = nc.sample_on_grid(f, L, step, N)
    gs = nc.sample_on_grid(g, Lg, step, Ng)
    return fs, gs


def test_quadrature_matches_closed_p1q0(inst_1_0):
    emb, omega = inst_1_0
    f = GaussianVector.pure(omega)
    fs, gs = _sampled_pair(emb, f, f, 5.0, 0.05, 1, 7.5, 1)
    for k in [(0, 0), (1, 0), (0, 2), (-2, 1), (2, -2)]:
        h = emb.point(k)
        quad = nc.inner_product_quadrature(fs, gs, h)
        closed = nc.inner_product_closed(f, f, h)
        assert quad == pytest.approx(closed, rel=1e-8), k


def test_quadrature_matches_closed_p1q2(inst_1_2):
    emb, omega = inst_1_2
    f = GaussianVector.pure(omega, emb.q)
    fs, gs = _sampled_pair(emb, f, f, 5.0, 0.05, 7, 7.5, 12)
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = rng.integers(-2, 3, 4)
        h = emb.point(k)
        quad = nc.inner_product_quadrature(fs, gs, h)
        closed = nc.inner_product_closed(f, f, h)
        assert quad == pytest.approx(closed, rel=1e-6), k


def test_quadrature_general_vectors(inst_1_2):
    # non-centered family members (after operator action) still agree
    emb, omega = inst_1_2
    base = GaussianVector.pure(omega, emb.q)
    f = nc.apply_heisenberg(emb.point([1, 0, 1, 0]), base)
    g = nc.apply_heisenberg(emb.point([0, 1, 0, 1]), base)
    fs, gs = _sampled_pair(emb, f, g, 5.0, 0.05, 7, 7.5, 12)
    for k in [(0, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, -1), (-1, 0, -1, 1)]:
        h = emb.point(k)
        quad = nc.inner_product_quadrature(fs, gs, h)
        closed = nc.inner_product_closed(f, g, h)
        assert quad == pytest.approx(closed, rel=1e-6), k


def test_quadrature_zero_vector(inst_1_0):
    emb, omega = inst_1_0
    f = GaussianVector.pure(omega)
    zero = GaussianVector(p=1, q=0, omega=omega, ell=[0], c0=0.0, n0=[], mu=[])
    fs = nc.sample_on_grid(zero, 5.0, 0.05, 1)
    gs = nc.sample_on_grid(f, 7.5, 0.05, 1)
    assert nc.inner_product_quadrature(fs, gs, emb.point([1, 0])) == 0


def test_quadrature_grid_mismatch(inst_1_0):
    emb, omega = inst_1_0
    f = GaussianVector.pure(omega)
    fs = nc.sample_on_grid(f, 5.0, 0.05, 1)
    gs_small = nc.sample_on_grid(f, 5.5, 0.05, 1)
    with pytest.raises(GridMismatch):
        # shift 0.5*3 = 1.5 exceeds the 0.5 margin
        nc.inner_product_quadrature(fs, gs_small, emb.point([3, 0]))
    gs_step = nc.sample_on_grid(f, 7.5, 0.075, 1)
    with pytest.raises(GridMismatch):
        nc.inner_product_quadrature(fs, gs_step, emb.point([1, 0]))


def test_quantum_theta_center_coefficients(inst_1_0, inst_1_2):
    emb, omega = inst_1_0
    th = nc.quantum_theta(emb, GaussianVector.pure(omega), 2)
    assert th.coeff((0, 0)) == pytest.approx(1.0, rel=1e-12)
    emb2, omega2 = inst_1_2
    th2 = nc.quantum_theta(emb2, GaussianVector.pure(omega2, 2), 2)
    assert th2.coeff((0, 0, 0, 0)) == pytest.approx(THETA_I_0_SQ, rel=1e-12)


def test_quantum_theta_requires_centered_member(inst_1_0):
    emb, omega = inst_1_0
    off = GaussianVector(p=1, q=0, omega=omega, ell=[0.5], c0=1.0, n0=[], mu=[])
    with pytest.raises(ValueError):
        nc.quantum_theta(emb, off, 2)


def test_quantum_theta_matches_quadrature(inst_1_2):
    emb, omega = inst_1_2
    f = GaussianVector.pure(omega, emb.q)
    th = nc.quantum_theta(emb, f, 2)
    norm = np.sqrt(2.0 * float(omega.imag[0, 0]))
    fs, gs = _sampled_pair(emb, f, f, 5.0, 0.05, 7, 7.5, 12)
    rng = np.random.default_rng(8)
    for _ in range(10):
        k = rng.integers(-2, 3, 4)
        quad = norm * nc.inner_product_quadrature(fs, gs, emb.point(k))
        assert th.coeff(tuple(k)) == pytest.approx(quad, rel=1e-6, abs=1e-12)


def test_quantum_theta_equals_scalar_route_bitwise(inst_1_2, inst_2_0):
    # quantum_theta does the (f, f)-only work once and splits the whole
    # ball in one blocks() call; every coefficient must still carry the
    # exact bits of a separate inner_product_closed call at emb.point(k),
    # also for a raw Phi whose products round (a matrix product would
    # round a row differently with other rows in the batch)
    phi = np.array([[0.5, 0.13, 0.0, 0.0],
                    [0.07, 1.1, 0.0, 0.0],
                    [0.0, 0.0, 1.0, 0.0],
                    [0.0, 0.0, 1.0, 1.0],
                    [0.05, 0.02, 0.21, 0.03],
                    [0.01, 0.03, 0.11, 0.7]])
    raw = (nc.EmbeddingMap(p=1, q=2, phi=phi), np.array([[0.2 + 1.5j]]))
    for emb, omega in [inst_1_2, inst_2_0, raw]:
        f = GaussianVector.pure(omega, emb.q)
        th = nc.quantum_theta(emb, f, 2)
        norm = np.sqrt((2 ** emb.p) * float(np.linalg.det(omega.imag)))
        assert len(th.coeffs) == 5 ** emb.d
        coeffs = th.coeffs
        for k in ball(emb.d, 2):
            scalar = norm * nc.inner_product_closed(f, f, emb.point(k))
            assert coeffs[tuple(k.tolist())] == scalar, k


def _scalar_inner_products(f, g, tail_eps):
    """The inner-product route as a per-h closure, one lattice point at a
    time with 1-D products and scalar complex arithmetic, for reference."""
    p, q = f.p, f.q
    og_bar = np.conj(g.omega)
    lg_bar = np.conj(g.ell)
    mug_bar = np.conj(g.mu)
    scale = f.c0 * np.conj(g.c0)
    # Continuous sector.
    M = -1j * np.pi * (f.omega - og_bar)
    if p:
        if np.min(np.linalg.eigvalsh(M.real)) <= 0.0:
            raise DivergentIntegral("Re M must be positive definite")
        lam = np.linalg.eigvals(M)
        prefactor = np.pi ** (M.shape[0] / 2) * np.exp(-0.5 * np.sum(np.log(lam)))
    ell = f.ell - lg_bar
    # Lattice sector.
    af = f.n0.astype(float)
    ag = g.n0.astype(float)
    a_sum = af + ag
    af2 = af**2
    mu = f.mu - mug_bar

    def at(h):
        v = 2j * np.pi * (ell - og_bar @ h.w1 - h.w2)
        const = np.exp(-1j * np.pi * (h.w1 @ h.w2 + h.w1 @ og_bar @ h.w1)
                       - 2j * np.pi * (lg_bar @ h.w1)) if p else 1.0
        gauss = complex(prefactor * np.exp(v @ np.linalg.solve(M, v) / 4.0)) \
            if p else 1.0 + 0j
        cont = const * gauss
        latt = 1.0 + 0j
        if q:
            mm = h.m.astype(float)
            beta = mu - h.r
            c1 = np.pi * (a_sum - mm) + 2j * np.pi * beta
            c0 = -np.pi / 2 * (af2 + (mm - ag) ** 2)
            sums, _, _ = _shifted_lattice_sums(c1, c0, tail_eps)
            latt = np.prod(sums) * np.exp(
                -2j * np.pi * (mug_bar @ mm) - 1j * np.pi * (mm @ h.r))
        return complex(scale * cont * latt)

    return at


def test_inner_products_equal_frozen_scalar_route(inst_1_2, inst_2_0, inst_general):
    # the array route must keep the bits of the scalar per-h evaluation;
    # a reassociated or vectorised complex product would move the last bit
    phi = np.array([[0.5, 0.13, 0.0, 0.0],
                    [0.07, 1.1, 0.0, 0.0],
                    [0.0, 0.0, 1.0, 0.0],
                    [0.0, 0.0, 1.0, 1.0],
                    [0.05, 0.02, 0.21, 0.03],
                    [0.01, 0.03, 0.11, 0.7]])
    raw = (nc.EmbeddingMap(p=1, q=2, phi=phi), np.array([[0.2 + 1.5j]]))
    general = (inst_general, np.array([[0.3 + 1.2j]]))
    for emb, omega in [inst_1_2, inst_2_0, raw, general]:
        f = GaussianVector.pure(omega, emb.q)
        values = nc.quantum_theta(emb, f, 2).values.ravel()
        norm = np.sqrt((2 ** emb.p) * float(np.linalg.det(omega.imag)))
        at = _scalar_inner_products(f, f, TAIL_EPS)
        for k, value in zip(ball(emb.d, 2), values):
            assert value == norm * at(emb.point(k)), (emb.p, emb.q, k)
    # non-centered vectors through inner_product_closed
    emb, omega = inst_1_2
    base = GaussianVector.pure(omega, emb.q)
    f = nc.apply_heisenberg(emb.point([1, 0, 1, 0]), base)
    g = nc.apply_heisenberg(emb.point([0, 1, 0, 1]), base)
    at = _scalar_inner_products(f, g, TAIL_EPS)
    for k in ball(emb.d, 1):
        h = emb.point(k)
        assert nc.inner_product_closed(f, g, h) == at(h), k
    # at tail_eps = 1e-9 too, where a halfwidth taken from the rows of the
    # call once summed 441 of these 2401 rows longer than alone
    f = GaussianVector.pure(omega, emb.q)
    th = nc.quantum_theta(emb, f, 3, tail_eps=1e-9)
    norm = np.sqrt(2.0 * float(omega.imag[0, 0]))
    at = _scalar_inner_products(f, f, 1e-9)
    for k, value in zip(ball(emb.d, 3), th.values.ravel()):
        assert value == norm * at(emb.point(k)), k


def _random_embedding(rng, p, q, raw):
    """A canonical embedding, or a raw Phi whose square block is
    U diag(s) V with s down to 0.1 and whose integer rows are in -3..3."""
    d = 2 * p + q
    if raw:
        u, _ = np.linalg.qr(rng.normal(size=(d, d)))
        v, _ = np.linalg.qr(rng.normal(size=(d, d)))
        phi = np.vstack([u @ np.diag(np.geomspace(1.0, 0.1, d)) @ v,
                         rng.uniform(-1, 1, (q, d))])
        phi[2 * p:2 * p + q] = np.round(3 * phi[2 * p:2 * p + q])
        return nc.EmbeddingMap(p=p, q=q, phi=phi)
    theta = rng.choice([0.5, np.sqrt(2) - 1, -0.3, 1.7], p)
    # unit upper triangular Q: det Q = 1
    Q = np.eye(q) + np.triu(rng.integers(-2, 3, (q, q)), 1)
    return nc.canonical_embedding(p, q, theta=theta, Q=Q, Delta=rng.normal(size=(q, q)))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(pq=st.sampled_from([(1, 1), (1, 2), (2, 1)]), raw=st.booleans(),
       tail_eps=st.sampled_from([1e-15, 1e-12, 1e-9, 1e-6, 1e-3]),
       size=st.sampled_from([1, 2, 3, 50]), seed=st.integers(0, 2**32 - 1))
def test_ball_rows_keep_their_bits_in_any_subset(pq, raw, tail_eps, size, seed):
    # the series halfwidth comes from (a, tail_eps) alone, so a row of the
    # closed formula or the inner-product route has the same bits whatever
    # other rows share its call (small subsets often hold no row whose
    # |Re rem| = pi, which the whole ball holds)
    rng = np.random.default_rng(seed)
    p, q = pq
    try:
        emb = _random_embedding(rng, p, q, raw)
    except (SingularEmbedding, ValueError):
        return
    sym = rng.normal(size=(p, p))
    omega = sym + sym.T + 1j * np.diag(rng.uniform(0.5, 2.0, p))
    ctx, f = HermitianFormContext(omega), GaussianVector.pure(omega, q)
    g = nc.apply_heisenberg(emb.point(rng.integers(-2, 3, emb.d)), f)
    K = ball(emb.d, 3)
    subset = rng.choice(len(K), size=size, replace=False)
    full = (theta_coefficients(ctx, emb, K, tail_eps),
            _closed_inner_products(f, g, emb.blocks(K), tail_eps))
    part = (theta_coefficients(ctx, emb, K[subset], tail_eps),
            _closed_inner_products(f, g, emb.blocks(K[subset]), tail_eps))
    for x, y in zip([*full[0], full[1]], [*part[0], part[1]]):
        assert np.array_equal(x[subset].view(np.int64), y.view(np.int64))


@pytest.mark.parametrize("p, q, R", [(1, 0, 200), (1, 1, 25)])
def test_theta_stage_peak_memory(p, q, R):
    # quantum_theta and BallTable.build fill their cubes in batches of
    # ball rows; one kernel call on the whole ball peaked at 16 and 8.5
    # cubes (q = 0), 18.6 and 12.5 (q = 1)
    emb = nc.canonical_embedding(p, q, theta=[0.5], Q=np.eye(q),
                                 Delta=0.3 * np.eye(q))
    omega = np.array([[0.2 + 1j]])
    cube = 16 * (2 * R + 1) ** emb.d
    f, ctx = GaussianVector.pure(omega, q), HermitianFormContext(omega)
    for build in (lambda: nc.quantum_theta(emb, f, R),
                  lambda: BallTable.build(ctx, emb, R)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * cube, peak / cube


def test_quantum_theta_coefficient_formula(inst_1_2):
    # inner-product route equals the b-product/Hermitian-form formula
    emb, omega = inst_1_2
    ctx = HermitianFormContext(omega)
    th = nc.quantum_theta(emb, GaussianVector.pure(omega, emb.q), 3)
    K, coeffs = th.as_arrays()
    closed, _ = theta_coefficients(ctx, emb, K)
    assert np.max(np.abs(coeffs - closed)) < 1e-12
    keep = np.abs(closed) > 1e-13
    phases = np.abs(np.angle(coeffs[keep] / closed[keep]))
    assert np.max(phases) < 1e-10


def test_quantum_theta_far_coefficients_keep_their_digits():
    # theta = 6.586, Omega = 0.152i: far out, exp(log_const) is subnormal
    # where the Gaussian is large; at k = (6, 5) their product read
    # 1.3e-274 against the closed formula's 8.58e-275.  Rows where a factor
    # or the product leaves the normal double range take one exp of the
    # summed exponents, and every normal coefficient keeps its digits
    emb = nc.canonical_embedding(1, 0, theta=[6.58600221378509])
    vec = nc.build_theta_vector(emb)
    coeffs = nc.quantum_theta(emb, vec, 6).values.ravel()
    closed, _ = theta_coefficients(HermitianFormContext(vec.omega), emb, ball(2, 6))
    normal = np.abs(closed) >= np.finfo(float).tiny
    assert np.count_nonzero(~normal) == 4
    assert np.max(np.abs(coeffs[normal] / closed[normal] - 1)) < 1e-12


def test_quantum_theta_decay_certificate(inst_1_0):
    emb, omega = inst_1_0
    th = nc.quantum_theta(emb, GaussianVector.pure(omega), 4)
    cert = nc.decay_certificate(th)
    assert cert["valid"] and cert["slope"] < 0
    # the fitted envelope must dominate the mass actually dropped between
    # the truncation ball and a larger one
    wide = nc.quantum_theta(emb, GaussianVector.pure(omega), 6)
    dropped = sum(abs(c) for k, c in wide.coeffs.items()
                  if max(abs(x) for x in k) > 4)
    assert dropped <= cert["tail_bound"]
    # fast-decaying instance reaches certificate level 1e-10 at R = 4
    emb_fast = nc.canonical_embedding(1, 0, theta=[2.0])
    th_fast = nc.quantum_theta(emb_fast, GaussianVector.pure(omega), 4)
    cert_fast = nc.decay_certificate(th_fast)
    assert cert_fast["valid"] and cert_fast["tail_bound"] < 1e-10


def test_decay_certificate_flags_unfinished_tail():
    emb = nc.canonical_embedding(1, 0, theta=[0.5])
    K = ball(2, 2)
    r2 = np.sum(K ** 2, axis=1).reshape(5, 5)
    # |c_k| = exp(-1e-7 |k|^2): the tail is still growing after 999 shells
    slow = nc.QuantumElement(embedding=emb, values=np.exp(-1e-7 * r2))
    cert = nc.decay_certificate(slow)
    assert not cert["valid"] and "not converged" in cert["reason"]
    # amplitude exp(705) with slow decay: the first tail shell's envelope
    # term exceeds exp(700)
    huge = nc.QuantumElement(embedding=emb, values=np.exp(705.0 - 0.01 * r2))
    cert = nc.decay_certificate(huge)
    assert not cert["valid"] and "double range" in cert["reason"]
