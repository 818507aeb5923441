"""Theta series, Gaussian integrals and the quantum theta coefficients.

The inner product of two Gaussian family members against a translated
one factorizes into a product of one-dimensional theta-type lattice sums
(the b-factors) and a p-dimensional complex Gaussian integral.  Written
through the Hermitian form H on complex coordinates x = Omega w1 + w2,
the diagonal coefficients become b-products times exp(-(pi/2) H(x, x)),
which is exactly the coefficient family of the quantum theta element.

All series lengths are chosen deterministically from a geometric tail
majorant at tail_eps = 1e-15; nothing adapts to observed terms.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadTau, DimensionMismatch, DivergentIntegral,
                     GridMismatch, NCThetaError)
from .heisenberg import GaussianVector, SampledVector, _check_omega
from .lattice import (EmbeddingMap, LatticePoint, QuantumElement, _cmul,
                      _component_dot, _indices, _readonly, ball, batch_rows)

TAIL_EPS = 1e-15
# Most terms a theta series may sum on each side of its peak.
SERIES_BUDGET = 10**6

# decay_certificate shrinks the fitted decay rate by this factor.
DECAY_SAFETY = 0.95

# A one-dimensional lattice sum with max |Im z| = m/2 peaks at height
# about exp(pi m^2 / 4); magnitudes are compared on that scale when
# looking for structural zeros of the b-factor.
STRUCTURAL_ZERO_TOL = 1e-12


def _series_halfwidth(a: float, tail_eps: float) -> int:
    """Smallest N with sum_{|n|>N} exp(-pi a n^2 + pi a n) < tail_eps, the
    tail of a recentred series (linear coefficient at most pi a).

    From the geometric majorant only, never from observed partial sums: it
    is at least twice its head term exp(-pi a x^2 + pi a x), x = N + 1, so
    x exceeds the larger root of pi a x^2 - pi a x + log(tail_eps), and
    from there the condition is monotone in N and bisected.  A sum that
    overflows to inf - inf is beyond any tail; a ratio that rounds to 1 is
    not below it.  NCThetaError when N would exceed SERIES_BUDGET.
    """
    if a <= 0.0:
        raise BadTau("Im tau must be positive")
    log_tail = math.log(tail_eps)

    def below(n: int) -> bool:
        # expanded: the closed -2 pi a (n + 1) and -pi a n (n + 1) round otherwise
        log_ratio = -math.pi * a * (2 * n + 3) + math.pi * a
        log_head = -math.pi * a * (n + 1) ** 2 + math.pi * a * (n + 1)
        if math.isnan(log_ratio + log_head):
            return True
        ratio = math.exp(log_ratio)
        return ratio < 1.0 and log_head + math.log(2.0 / (1.0 - ratio)) < log_tail

    root = 0.5 + math.sqrt(max(0.25 - log_tail / (math.pi * a), 0.0))
    n = SERIES_BUDGET + 1
    if root <= n:
        n = bisect.bisect_left(range(n), True, key=below, lo=max(2, math.floor(root) - 1))
    if n > SERIES_BUDGET:
        raise NCThetaError(f"theta series needs more than {SERIES_BUDGET} terms "
                           f"per side (a={a}, tail_eps={tail_eps})")
    return n


def classical_theta(tau: complex, z: complex, tail_eps: float = TAIL_EPS) -> complex:
    """Jacobi theta series sum_n exp(i pi tau n^2 + 2 pi i n z), Im tau > 0.

    The lattice-series kernel with a = -i tau and c1 = 2 pi i z, summed
    around its peak, so its length does not grow with |Im z| (1 where 2 pi
    Im tau overflows, 2 |Im z| < Im tau); NCThetaError when the value is not
    a finite double or the series needs more than SERIES_BUDGET terms per side.
    """
    tau, z = complex(tau), complex(z)
    if tau.imag <= 0.0:
        raise BadTau(f"Im tau must be positive, got {tau}")
    if (math.isinf(2 * math.pi * tau.imag) and 2 * abs(z.imag) < tau.imag
            and np.isfinite([tau, z]).all()):
        return 1 + 0j
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(_shifted_lattice_sums(2j * np.pi * z, 0.0, tail_eps,
                                             a=-1j * tau)[0], f"theta({z} | {tau})")


def _finite(value, what: str) -> complex:
    """value as a complex; NCThetaError when it is not a finite double."""
    if not cmath.isfinite(value := complex(value)):
        raise NCThetaError(f"{what} is not a finite double")
    return value


def _shifted_lattice_sums(c1: np.ndarray, c0: np.ndarray,
                          tail_eps: float = TAIL_EPS, a: complex = 1.0):
    """Elementwise sum_n exp(-pi a n^2 + c1 n + c0), Re a > 0, evaluated
    peak-first; the one theta-series summation of the package.

    The summation index is recentered on the magnitude peak
    n0 = round(Re c1 / (2 pi Re a)), so |Re (c1 - 2 pi a n0)| <= pi Re a, the
    core stays O(1) and its halfwidth comes from that bound and tail_eps
    alone, the same in any batch.  The scale exp(-pi a n0^2 + c1 n0 + c0) is
    applied once; naive summation would overflow already for |Re c1| around
    60 pi while the product with c0 is tiny.  Returns (values, core_magnitudes, n0).
    """
    c1 = np.asarray(c1, dtype=complex)
    c0 = np.asarray(c0, dtype=complex)
    n0 = np.round(c1.real / (2.0 * np.pi * a.real))
    rem = c1 - 2.0 * np.pi * a * n0
    N = _series_halfwidth(a.real, tail_eps)
    j = np.arange(-N, N + 1, dtype=float)
    quad = -np.pi * a * j ** 2
    # one term row at a time, added in order: holds two rows, not 2N+1, and
    # sum() would add a lone element's terms pairwise.  Raveled, so the
    # results are C-ordered whatever c1's layout: b.prod over an F-ordered
    # array rounds differently.
    flat = rem.ravel()
    core = np.exp(quad[0] + flat * j[0])
    for i in range(1, 2 * N + 1):
        core += np.exp(quad[i] + flat * j[i])
    core = core.reshape(c1.shape)
    scale = np.exp(-np.pi * a * n0**2 + c1 * n0 + c0)
    return scale * core, np.abs(core), n0


def b_factor(r: float, m: int, tail_eps: float = TAIL_EPS) -> complex:
    """e^{-pi m^2/2 - i pi m r} theta(i, -r + i m/2); NCThetaError unless finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        products, _ = b_product_arrays([[float(r)]], _indices([[m]], (1, 1)), tail_eps)
    return _finite(products[0], f"b_factor({r}, {m})")


def b_product_arrays(r: np.ndarray, m: np.ndarray, tail_eps: float = TAIL_EPS):
    """Componentwise b-factor products over (n, q) block arrays.

    Returns (products, min_normalized) where min_normalized is the
    smallest per-component magnitude rescaled by the natural peak height
    exp(pi m^2/4); values near zero signal a structural theta zero
    rather than ordinary Gaussian decay.
    """
    r = np.asarray(r, dtype=float)
    m = np.asarray(m, dtype=float)
    npts, q = r.shape
    if q == 0:
        return np.ones(npts, dtype=complex), np.full(npts, np.inf)
    c1 = -np.pi * m - 2j * np.pi * r
    c0 = -np.pi / 2 * m * m - 1j * np.pi * m * r
    b, core_mag, n0 = _shifted_lattice_sums(c1, c0, tail_eps)
    # |b| e^{pi m^2/4} = |core| e^{-pi (n0 + m/2)^2}, always overflow-free
    normalized = core_mag * np.exp(-np.pi * (n0 + m / 2.0) ** 2)
    return b.prod(axis=1), normalized.min(axis=1)


@dataclass(frozen=True, eq=False)
class HermitianFormContext:
    """Quadratic form Omega with the inverse of its imaginary part, both as
    _check_omega returns them (ValueError or NCThetaError from there)."""

    omega: np.ndarray
    im_inv: np.ndarray = field(init=False)

    def __post_init__(self):
        omega, im_inv = _check_omega(self.omega)
        object.__setattr__(self, "omega", _readonly(omega))
        object.__setattr__(self, "im_inv", _readonly(im_inv))

    @property
    def p(self) -> int:
        return self.omega.shape[0]


def _vecmat(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Rows x_i @ M over leading axes, by stacked matmul so that a row has
    the bits of its one-row call (a batched @ picks its kernel by the
    batch size).  Both matmul helpers take C-ordered copies of their
    operands: rows without unit stride, as in an F-ordered array, go
    through matmul's non-BLAS loop, which rounds differently (seen from
    rows of 5 entries)."""
    return np.matmul(np.ascontiguousarray(x)[..., None, :], M)[..., 0, :]


def complex_coordinates(ctx: HermitianFormContext, w1: np.ndarray,
                        w2: np.ndarray) -> np.ndarray:
    """x = Omega w1 + w2, vectorized over leading axes; DimensionMismatch
    unless the rows of w1 have the form's p entries."""
    w1 = np.asarray(w1)
    if w1.shape[-1:] != (ctx.p,):
        raise DimensionMismatch("lattice points do not match the form dimension")
    return _vecmat(w1, ctx.omega) + np.asarray(w2)


def hermitian_form(ctx: HermitianFormContext, g: LatticePoint,
                   h: LatticePoint) -> complex:
    """Sesquilinear H(g, h) = x_g^T (Im Omega)^{-1} conj(x_h) on the
    continuous blocks; H(h, h) is real and nonnegative."""
    return complex(hermitian_pairing_arrays(
        ctx, complex_coordinates(ctx, g.w1, g.w2),
        complex_coordinates(ctx, h.w1, h.w2)))


def hermitian_pairing_arrays(ctx: HermitianFormContext, xg: np.ndarray,
                             xh: np.ndarray) -> np.ndarray:
    """H on complex coordinates, broadcasting over rows (_component_dot)."""
    return _component_dot(_vecmat(xg, ctx.im_inv), np.conj(xh))


def _gaussian_factor(ctx: HermitianFormContext, x: np.ndarray):
    """exp(-(pi/2) H(x, x)), the manin C_g, and its exponent."""
    exponent = -np.pi / 2 * hermitian_pairing_arrays(ctx, x, x).real
    return np.exp(exponent), exponent


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row dot products x_i @ y_i, by stacked matmul to keep their
    rounding; C-ordered as in _vecmat."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def gaussian_integral(M: np.ndarray, v: np.ndarray) -> complex:
    """Closed form of the p-dimensional integral of exp(-s^T M s + v.s).

    M is complex symmetric of shape (p, p), v of shape (p,) (DimensionMismatch
    if not) and Re M positive definite (DivergentIntegral if not); the value
    is pi^{p/2} det(M)^{-1/2} exp(v^T M^{-1} v / 4), 1 at p = 0.  det(M)^{-1/2}
    is accumulated eigenvalue by eigenvalue with principal half-arguments,
    which tracks the branch continuously from the real positive definite case.
    """
    M = np.asarray(M, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or M.shape != v.shape * 2:
        raise DimensionMismatch(f"M {M.shape} and v {v.shape} are not (p, p) and (p,)")
    if not len(v):
        return 1.0 + 0j
    if np.min(np.linalg.eigvalsh(M.real)) <= 0.0:
        raise DivergentIntegral("Re M must be positive definite")
    return complex(_gaussian_values(M, v[None])[0])


def _far(*factors):
    """Where a factor is not finite or below the smallest normal double."""
    return sum(~np.isfinite(f) | (np.abs(f) < np.finfo(float).tiny) for f in factors) > 0


def _gaussian_values(M: np.ndarray, V: np.ndarray, log_scale=None) -> np.ndarray:
    """gaussian_integral, unchecked, of one (p, p) M, p >= 1, at each row of
    an (n, p) V, times exp(log_scale) when given, inside the one exp."""
    lam = np.linalg.eigvals(M)
    prefactor = np.pi ** (M.shape[0] / 2) * np.exp(-0.5 * np.sum(np.log(lam)))
    S = np.linalg.solve(M, V[..., None])[..., 0]
    exponent = _rowdot(V, S) / 4.0
    if log_scale is not None:
        exponent = exponent + log_scale
    return _cmul(prefactor, np.exp(exponent))


def inner_product_closed(f: GaussianVector, g: GaussianVector,
                         h: LatticePoint, tail_eps: float = TAIL_EPS) -> complex:
    """<f, pi_h g>: integral over R^p and sum over Z^q in closed form.

    The continuous part is a complex Gaussian integral; each lattice
    component contributes a theta-type series evaluated deterministically
    to tail_eps.  NCThetaError when the value is not a finite double.
    """
    if f.p != g.p or f.q != g.q:
        raise DimensionMismatch("vectors live on different spaces")
    if h.p != f.p or h.q != f.q:
        raise DimensionMismatch("lattice point does not match the vectors")
    with np.errstate(over="ignore", invalid="ignore"):
        value = _closed_inner_products(f, g, [b[None] for b in (h.w1, h.w2, h.m, h.r)], tail_eps)
    return _finite(value[0], f"<f, pi_h g> at h = {h.index}")


def _closed_inner_products(f: GaussianVector, g: GaussianVector, blocks,
                           tail_eps: float) -> np.ndarray:
    """<f, pi_h g> at every row h of the (w1, w2, m, r) arrays of
    EmbeddingMap.blocks, for vectors of matching dimensions.

    Products are grouped as in the formula and rounded as in a one-row call.
    """
    W1, W2, mm, rr = blocks
    og_bar, lg_bar, mug_bar = np.conj(g.omega), np.conj(g.ell), np.conj(g.mu)
    cont = latt = np.ones(len(W1), dtype=complex)
    # Continuous sector.
    if f.p:
        # Re M = pi (Im Omega_f + Im Omega_g), positive definite by _check_omega
        M = -1j * np.pi * (f.omega - og_bar)
        OW1 = np.matmul(og_bar, W1[:, :, None])[:, :, 0]
        V = 2j * np.pi * (f.ell - lg_bar - OW1 - W2)
        quad = _rowdot(W1, W2) + _rowdot(_vecmat(W1, og_bar), W1)
        log_const = -1j * np.pi * quad - 2j * np.pi * _rowdot(lg_bar, W1)
        factor, gaussian = np.exp(log_const), _gaussian_values(M, V)
        cont = _cmul(factor, gaussian)
        # where a factor or their product is far, one exp of the summed exponents
        far = _far(factor, gaussian, cont)
        if np.any(far):
            cont[far] = _gaussian_values(M, V[far], log_const[far])
    # Lattice sector: one peak-shifted theta series per component.
    if f.q:
        af, ag, mm = f.n0.astype(float), g.n0.astype(float), mm.astype(float)
        c1 = np.pi * (af + ag - mm) + 2j * np.pi * (f.mu - mug_bar - rr)
        c0 = -np.pi / 2 * (af**2 + (mm - ag) ** 2)
        sums, _, _ = _shifted_lattice_sums(c1, c0, tail_eps)
        latt = _cmul(np.prod(sums, axis=1), np.exp(-2j * np.pi * _rowdot(mug_bar, mm)
                                                   - 1j * np.pi * _rowdot(mm, rr)))
    return _cmul(_cmul(f.c0 * np.conj(g.c0), cont), latt)


def inner_product_quadrature(fs: SampledVector, gs: SampledVector,
                             h: LatticePoint) -> complex:
    """Brute-force <f, pi_h g>: trapezoid rule over the grid of fs times a
    finite lattice sum, with pi_h applied by index shifts and explicit
    phases.

    The grid of gs must extend that of fs by at least the translation,
    with the same step, and every continuous shift must land on the grid.
    Error model: O(exp(-c L^2)) domain truncation plus O(exp(-pi N^2))
    lattice truncation; the step error is spectrally small for these
    integrands.
    """
    p, q = fs.p, fs.q
    if (p, q) != (gs.p, gs.q) or (h.p, h.q) != (p, q):
        raise GridMismatch("incompatible dimensions")
    if abs(fs.grid_step - gs.grid_step) > 1e-12:
        raise GridMismatch("grids must share one step")
    step = fs.grid_step
    ns_f = len(fs.s_axis)
    ns_g = len(gs.s_axis)
    offsets = []
    for j in range(p):
        off = (gs.grid_radius - fs.grid_radius + h.w1[j]) / step
        if abs(off - round(off)) > 1e-9:
            raise GridMismatch(f"shift {h.w1[j]} is not a multiple of the step")
        off = int(round(off))
        if off < 0 or off + ns_f > ns_g:
            raise GridMismatch("g grid does not cover the shifted domain")
        offsets.append(off)
    nn_f = 2 * fs.lattice_radius + 1
    for l in range(q):
        off = gs.lattice_radius - fs.lattice_radius + int(h.m[l])
        if off < 0 or off + nn_f > 2 * gs.lattice_radius + 1:
            raise GridMismatch("g lattice range does not cover the shifted range")
        offsets.append(off)
    shape = fs.values.shape
    sel = tuple(slice(off, off + (ns_f if ax < p else nn_f))
                for ax, off in enumerate(offsets))
    g_shift = gs.values[sel]
    expo = np.zeros(shape)
    for j in range(p):
        ax_shape = [1] * (p + q)
        ax_shape[j] = ns_f
        expo = expo + h.w2[j] * fs.s_axis.reshape(ax_shape)
    for l in range(q):
        ax_shape = [1] * (p + q)
        ax_shape[p + l] = nn_f
        expo = expo + h.r[l] * fs.n_axis.reshape(ax_shape)
    phase = np.exp(-2j * np.pi * expo
                   - 1j * np.pi * (h.w1 @ h.w2 + h.m @ h.r))
    weights = np.ones(shape)
    for j in range(p):
        ax_shape = [1] * (p + q)
        ax_shape[j] = ns_f
        w = np.ones(ns_f)
        w[0] = w[-1] = 0.5
        weights = weights * w.reshape(ax_shape)
    total = np.sum(fs.values * np.conj(g_shift) * phase * weights)
    return complex(total * step**p)


def quantum_theta(emb: EmbeddingMap, f: GaussianVector, R: int,
                  tail_eps: float = TAIL_EPS) -> QuantumElement:
    """Quantum theta element: normalized diagonal inner products on a ball.

    Coefficient at index k is sqrt(2^p det Im Omega) <f, pi_{Phi k} f>
    for |k|_inf <= R, from array calls of the inner-product route on
    batches of lattice.batch_rows(1) ball rows, written into the
    coefficient cube in lexicographic order; each has the bits of its
    inner_product_closed call.
    Requires the centered family member (ell = 0, n0 = 0, mu = 0);
    NCThetaError when a coefficient is not a finite double.
    """
    if R < 1:
        raise ValueError("truncation radius must be >= 1")
    if f.p != emb.p or f.q != emb.q:
        raise DimensionMismatch("vector does not match the embedding")
    if (np.any(f.ell != 0) or np.any(f.n0 != 0) or np.any(f.mu != 0)):
        raise ValueError("quantum theta requires the centered family member")
    norm = math.sqrt((2 ** emb.p) * float(np.linalg.det(f.omega.imag))) \
        if emb.p else 1.0
    K = ball(emb.d, R)
    values, step = np.empty(len(K), dtype=complex), batch_rows(1)
    with np.errstate(over="ignore", invalid="ignore"):
        for at in (slice(i, i + step) for i in range(0, len(K), step)):
            values[at] = norm * _closed_inner_products(f, f, emb.blocks(K[at]), tail_eps)
    if not np.all(np.isfinite(values)):
        raise NCThetaError("a quantum theta coefficient is not a finite double "
                           f"at truncation radius {R}")
    return QuantumElement(embedding=emb,
                          values=values.reshape((2 * R + 1,) * emb.d))


def theta_coefficients(ctx: HermitianFormContext, emb: EmbeddingMap,
                       indices: np.ndarray, tail_eps: float = TAIL_EPS):
    """Closed coefficient formula b-product * exp(-(pi/2) H(x, x)) on an
    (n, d) array of indices.

    Returns (coefficients, min_normalized_b) where the second array
    feeds structural-zero (degeneracy) detection.
    """
    W1, W2, M, Rr = emb.blocks(indices)
    x = complex_coordinates(ctx, W1, W2)
    bt, min_norm = b_product_arrays(Rr, M, tail_eps)
    return bt * _gaussian_factor(ctx, x)[0], min_norm


def decay_certificate(element: QuantumElement) -> dict:
    """Envelope |c_k| <= C exp(-rate |k|^2) and a bound on the dropped tail.

    The amplitude is the largest stored magnitude and the rate is the
    worst per-point Rayleigh rate over the stored support, shrunk by
    DECAY_SAFETY, so the envelope stays valid along the slowest decay
    direction when extrapolated outside the ball.  The least-squares
    slope of the log-magnitude plot is reported as the decay diagnostic.
    The tail is summed shell by shell up to |k|_inf = R + 999; when it
    has not converged by then, or a shell's envelope term leaves double
    range, the certificate is not valid and says why.
    """
    K, c = element.as_arrays()
    mags = np.abs(c)
    mask = mags > 0
    r2 = np.sum(K.astype(float) ** 2, axis=1)
    if np.sum(mask) < 2 or np.ptp(r2[mask]) == 0:
        return {"valid": False, "reason": "not enough support for a fit"}
    x = r2[mask]
    y = np.log(mags[mask])
    slope = float(np.polyfit(x, y, 1)[0])
    log_c = float(np.max(y))
    nonzero = x > 0
    rate = DECAY_SAFETY * float(np.min((log_c - y[nonzero]) / x[nonzero])) \
        if np.any(nonzero) else 0.0
    d = element.embedding.d
    R = element.radius
    tail = 0.0
    reason = f"tail sum not converged by shell {R + 999}"
    for j in range(R + 1, R + 1000):
        log_term = log_c - rate * j * j
        if log_term > 700.0:
            reason = f"tail envelope leaves double range at shell {j}"
            break
        term = ((2 * j + 1) ** d - (2 * j - 1) ** d) * math.exp(log_term)
        tail += term
        if term < 1e-30:
            reason = None
            break
    certificate = {
        "valid": bool(rate > 0) and reason is None,
        "rate": float(rate),
        "log_amplitude": log_c,
        "slope": slope,
        "tail_bound": float(tail),
    }
    if reason is not None:
        certificate["reason"] = reason
    return certificate
