"""Quantum translations and the functional equation of the theta element.

A lattice point g acts on the twisted algebra by a coefficient
multiplier.  Two conventions are supported:

* "manin" (pure continuous embeddings): the multiplier is
  exp(-pi H(g, h)) with the sesquilinear form H of the quadratic
  structure; the prefactor is C_g = exp(-(pi/2) H(g, g)).
* "modified" (general embeddings): the prefactor gains the lattice
  b-product, C_g = b(g) exp(-(pi/2) H(w_g, w_g)), and the multiplier is
  the consistency ratio T_g(h) = C_{g+h} / (C_g C_h alpha(g, h)).

Both make C_g e(g) x_g(Theta) = Theta an identity of coefficients; the
verifier checks it on the interior ball where truncation cannot clip
either side.  Translations in the first convention compose additively;
in the second they provably do not, and the probe exhibits witnesses.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateTranslation, DimensionMismatch, GridTooLarge, NCThetaError
from .lattice import (EmbeddingMap, LatticePoint, QuantumElement, _cmul,
                      _component_dot, _indices, ball, batch_rows,
                      cocycle_arrays, seeded_integers)
from .theta import (STRUCTURAL_ZERO_TOL, TAIL_EPS, HermitianFormContext, _far,
                    _gaussian_factor, _vecmat, complex_coordinates,
                    hermitian_pairing_arrays, theta_coefficients)

KIND_MANIN = "manin"
KIND_MODIFIED = "modified"
MODULUS_TOL = 1e-10
DEFINITION_TOL = 1e-12
ADDITIVITY_TOL = 1e-10
WITNESS_DEVIATION = 1e-6
# triples the modified additivity probe checks at most
MAX_CHECKS = 20_000
FE_BUDGET = 10**9  # FE window entries: 45-85 s at 43-84 ns each on a 2-vCPU Xeon


def _check_kind(kind: str):
    if kind not in (KIND_MANIN, KIND_MODIFIED):
        raise ValueError(f"kind must be '{KIND_MANIN}' or '{KIND_MODIFIED}'")


@dataclass(frozen=True, eq=False)
class TranslationFactor:
    """Prefactor C_g of a quantum translation, with its degeneracy flag."""

    point: LatticePoint
    value: complex
    kind: str
    degenerate: bool


def translation_factor(ctx: HermitianFormContext, emb: EmbeddingMap,
                       g: LatticePoint, kind: str,
                       tail_eps: float = TAIL_EPS) -> TranslationFactor:
    """C_g for either convention; flags structural zeros instead of raising.

    The one-row call of _translations; the modified C_g is c_g."""
    _check_kind(kind)
    G = g.index[None, :]
    (c_g, _, _), (zero, _, _), *_ = _translations(ctx, emb, G, G[:0], kind,
                                                  tail_eps)
    return TranslationFactor(point=g, value=complex(c_g[0]), kind=kind,
                             degenerate=bool(zero[0]))


def _translations(ctx: HermitianFormContext, emb: EmbeddingMap, G, H,
                  kind: str, tail_eps: float):
    """The translation kernel of translate, translation_factor, the cocycle
    check and the modified probe, g acting at h over (n, d) index rows H
    and G (one row, or one per row of H): the factors (C_g, C_h, C_{g+h}),
    their structural-zero flags, alpha(g, h), T_g(h) and (manin) the
    exponents of the factors and of T, from one blocks call and (modified)
    one closed-formula call on the stacked rows, each row with its one-row
    bits.  The modified T is (C_{g+h} / C_h) / (C_g alpha) where C_g C_h
    is far (theta._far), as the FE engine divides, else _modified_multiplier's
    bits.  Unchecked: T itself may be far; each consumer decides."""
    n = len(G) + len(H)
    parts = (slice(0, len(G)), slice(len(G), n), slice(n, None))
    rows = np.concatenate([G, H, G + H])
    W1, W2, M, Rr = emb.blocks(rows)
    g, h = ([b[at] for b in (W1, W2, M.astype(float), Rr)] for at in parts[:2])
    alpha = cocycle_arrays(g, h)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if kind == KIND_MANIN:
            x = complex_coordinates(ctx, W1, W2)
            c, log_c = _gaussian_factor(ctx, x)
            T, log_T = _manin_multiplier(
                hermitian_pairing_arrays(ctx, x[parts[0]], x[parts[1]]))
            zero = np.zeros(len(rows), dtype=bool)
            return ([c[at] for at in parts], [zero[at] for at in parts], alpha,
                    T, ([log_c[at] for at in parts], log_T))
        values, norms = theta_coefficients(ctx, emb, rows, tail_eps)
        c_g, c_h, c_gh = factors = [values[at] for at in parts]
        zero = [norms[at] < STRUCTURAL_ZERO_TOL for at in parts]
        T = np.where(_far(c_g * c_h), (c_gh / c_h) / (c_g * alpha),
                     _modified_multiplier(c_g, c_h, c_gh, alpha))
        return factors, zero, alpha, T, None


def _manin_multiplier(H):
    """T_g(h) = exp(-pi H(g, h)) (manin) and its exponent."""
    exponent = -np.pi * H
    return np.exp(exponent), exponent


def _modified_multiplier(c_g, c_h, c_gh, alpha):
    """T_g(h) = C_{g+h} / (C_g C_h alpha(g, h)) (modified)."""
    return c_gh / (c_g * c_h * alpha)


def _underflow(indices) -> NCThetaError:
    """Factors nonzero in exact arithmetic but below double range."""
    return NCThetaError("translation factors underflow double precision at "
                        f"indices {list(map(tuple, np.asarray(indices)[:8].tolist()))}")


def _multipliers(ctx: HermitianFormContext, emb: EmbeddingMap, g: LatticePoint,
                 indices: np.ndarray, kind: str, tail_eps: float):
    """Translation multipliers T_g(h) of g over an (n, d) array of target
    indices.  modified: DegenerateTranslation where the factor of g, then
    of a target, vanishes structurally; then an underflow NCThetaError
    where C_g is far (theta._far), then where T is not finite."""
    G = g.index[None, :]
    factors, zero, _, T, _ = _translations(ctx, emb, G, indices, kind, tail_eps)
    if kind == KIND_MODIFIED:
        for error, K, bad in ((DegenerateTranslation, G, zero[0]),
                              (DegenerateTranslation, indices, zero[1]),
                              (_underflow, G, _far(factors[0])),
                              (_underflow, indices, ~np.isfinite(T))):
            if np.any(bad):
                raise error(K[bad])
    return T


def translate(ctx: HermitianFormContext, emb: EmbeddingMap, g: LatticePoint,
              x: QuantumElement, kind: str,
              tail_eps: float = TAIL_EPS) -> QuantumElement:
    """Quantum translation: multiply every coefficient by the multiplier of g.

    Support is unchanged.  In the modified convention every support point
    (and g itself) must carry a nonvanishing factor, otherwise
    DegenerateTranslation lists the offenders; C_g must be in range (_far)
    and every T_g(h) finite, otherwise an underflow NCThetaError does.
    """
    _check_kind(kind)
    if x.embedding.d != emb.d:
        raise DimensionMismatch("element does not match the embedding")
    K, c = x.as_arrays()
    T = _multipliers(ctx, emb, g, K, kind, tail_eps)
    values = np.zeros_like(x.values)
    values[tuple((K + x.radius).T)] = _cmul(c, T)
    return QuantumElement(embedding=emb, values=values)


@dataclass(frozen=True, eq=False)
class BallTable:
    """Closed-formula coefficients on the whole ball |k|_inf <= radius.

    `values` and `norms` (the normalized b-factors that detect structural
    zeros) are cubes of side 2 radius + 1 indexed by k + radius, filled
    by theta_coefficients calls on batches of lattice.batch_rows(1) ball
    rows.  Every array the functional-equation engine needs from it (c_h,
    c_{g+h} and C_g = c_g) is a slice or an entry of `values`, with the
    bits of its one-row call.
    """

    radius: int
    values: np.ndarray
    norms: np.ndarray

    @classmethod
    def build(cls, ctx: HermitianFormContext, emb: EmbeddingMap, radius: int,
              tail_eps: float = TAIL_EPS) -> "BallTable":
        K = ball(emb.d, radius)
        values, norms = np.empty(len(K), dtype=complex), np.empty(len(K))
        step = batch_rows(1)
        for at in (slice(i, i + step) for i in range(0, len(K), step)):
            values[at], norms[at] = theta_coefficients(ctx, emb, K[at], tail_eps)
        shape = (2 * radius + 1,) * emb.d
        return cls(radius=radius, values=values.reshape(shape),
                   norms=norms.reshape(shape))

    def zeros(self) -> list:
        """Indices whose lattice factor vanishes structurally, in
        lexicographic order."""
        K = np.argwhere(self.norms < STRUCTURAL_ZERO_TOL) - self.radius
        return list(map(tuple, K.tolist()))


def degeneracy_scan(ctx: HermitianFormContext, emb: EmbeddingMap, radius: int,
                    tail_eps: float = TAIL_EPS) -> list:
    """Indices within the ball whose lattice factor vanishes structurally."""
    return BallTable.build(ctx, emb, radius, tail_eps).zeros()


def _with_mirrors(cubes: np.ndarray, flipped: list) -> np.ndarray:
    """The cubes of a batch of g (on the first axis), then those of -g for
    the g at the positions `flipped`: their cubes flipped on every axis."""
    return np.concatenate([cubes, np.flip(cubes[flipped], tuple(range(1, cubes.ndim)))])


def verify_functional_equations(ctx: HermitianFormContext, emb: EmbeddingMap,
                                theta: QuantumElement, indices: np.ndarray,
                                kind: str, tail_eps: float = TAIL_EPS,
                                residual_tol: float = 1e-9,
                                table: BallTable | None = None) -> list:
    """verify_functional_equation for each row g of an (n, d) index array.

    On the interior ball h = k - g runs over a window of a cube of side
    2R + 1.  The engine takes each shell |g|_inf = r in batches of g rows
    whose windows hold at most lattice.BATCH_ENTRIES entries (one g where
    one window has more; lattice.batch_rows), with their -g.  It gathers
    the windows of a batch by their offsets from component-major cubes of
    the ball's blocks (and, manin, of its conjugated complex coordinates)
    and passes them with the rows of g to the formulas of _translations,
    with the bits of one g at a time.  alpha(g, h) (and the manin T) is computed for one g of each
    pair {g, -g}: blocks(-k) is -blocks(k) bit for bit, so the cube of -g
    is that of g flipped on every axis; a g without its -g, and g = 0,
    get their own, and a repeated row is computed once.  C_g, c_h and
    c_{g+h} are entries and windows of the closed-formula `table`
    (modified; built unless given; see BallTable), which also serves the
    degeneracy scan; the manin C_g of all g is one _gaussian_factor call.
    As T_g(h) = c_{g+h} / (C_g c_h alpha), the modified residual checks
    that the inner-product coefficient over the closed formula agrees at
    h and g + h.  Where C_g c_h (modified), or C_g or T (manin), is far
    (theta._far), lhs = c_{g+h} (theta_h / c_h), or alpha exp(log C_g + log T
    + log theta_h); a stored theta_h of 0 there (manin: anywhere) is left out
    (below DROP_TOL: not represented).  A call skips this when min |c|^2 is
    not far, or (manin) theta has no 0 and C on R {-1, 0, 1}^d bounds C_g and T.

    Errors come in the order of the single-g calls: rows outside the one
    index rule, lattice._indices, |g|_inf > R/2 (ValueError), over FE_BUDGET
    window entries, (2 (R - |g|_inf) + 1)^d summed over the rows (GridTooLarge),
    the degeneracy scan (DegenerateTranslation), then per g, in the order of
    the rows, a residual that is not a finite double (NCThetaError).
    """
    _check_kind(kind)
    R, d = theta.radius, emb.d
    G = _indices(indices, (-1, d))
    rows = list(emb.blocks(G))
    radii = np.max(np.abs(G), axis=1).tolist()
    if any(2 * gr > R for gr in radii):
        raise ValueError("translation index must satisfy |g|_inf <= R/2")
    entries = sum((2 * (R - gr) + 1) ** d for gr in radii)
    if entries > FE_BUDGET:
        raise GridTooLarge(f"{entries} FE window entries exceed FE_BUDGET {FE_BUDGET}")
    cubes = [block.astype(float) for block in emb.blocks(ball(d, R))]
    if kind == KIND_MODIFIED:
        if table is None:
            table = BallTable.build(ctx, emb, R, tail_eps)
        elif table.radius != R:
            raise ValueError("coefficient table radius differs from the element's")
        zeros = table.zeros()
        if zeros:
            raise DegenerateTranslation(zeros, "theta support hits theta zeros")
        factors = table.values[tuple((G + R).T)]
        # the far path unless a product C_g c_h of two table values can be far
        far_path = _far(np.min(np.abs(table.values)) ** 2)
    else:
        # H(g, h) = (x_g Im(Omega)^-1) . conj(x_h): the first factor per g
        # and the conjugated cube of x_h are each formed once
        x_g = complex_coordinates(ctx, rows[0], rows[1])
        factors, log_factors = _gaussian_factor(ctx, x_g)
        # the far path unless no C_g, T or stored theta_h can be far:
        # |Re log T| <= 2 sqrt(log C_g log C_h) <= -2 log C_k over the ball,
        # whose least log C over R {-1, 0, 1}^d is at a corner (H is convex)
        far_path = not np.all(theta.values) or -2 * np.min(_gaussian_factor(
            ctx, complex_coordinates(ctx, *emb.blocks(R * ball(d, 1))[:2]))[1]) > 690
        rows.append(_vecmat(x_g, ctx.im_inv))
        cubes.append(np.conj(complex_coordinates(ctx, cubes[0], cubes[1])))
    cubes = [np.ascontiguousarray(block.T).reshape(
        (block.shape[1],) + theta.values.shape) for block in cubes]
    # the first row of each distinct g; a g whose -g came first is its mirror
    keys = list(map(tuple, G.tolist()))
    first, mirror, shells = {}, {}, {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    for key, i in first.items():
        j = first.get(tuple(-v for v in key), i)
        if j < i:
            mirror[j] = i
        else:
            shells.setdefault(radii[i], []).append(i)
    residuals = np.zeros(len(G))
    axes = tuple(range(1, d + 1))
    last = axes + (d + 1, 0)  # a batch of windows with the components last
    # overflow and division by an underflowed product end in a residual
    # that is not finite, which raises below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for gr, shell in shells.items():
            side = 2 * (R - gr) + 1
            at_k = (slice(gr, 2 * R + 1 - gr),) * d
            windows = [sliding_window_view(cube, (side,) * d, axis=axes)
                       for cube in cubes]
            theta_h = sliding_window_view(theta.values, (side,) * d)
            if kind == KIND_MODIFIED:
                c_h = sliding_window_view(table.values, (side,) * d)
            batch = batch_rows(side ** d)
            for start in range(0, len(shell), batch):
                own = shell[start:start + batch]
                flipped = [j for j, i in enumerate(own) if i in mirror]
                at = own + [mirror[own[j]] for j in flipped]
                g_rows = [row[own].reshape((len(own),) + (1,) * d + row.shape[1:])
                          for row in rows]
                offset = tuple((gr - G[own]).T)  # window of h = k - g
                h = [w[(slice(None),) + offset].transpose(last) for w in windows]
                alpha = _with_mirrors(cocycle_arrays(g_rows[:4], h[:4]), flipped)
                C_g = factors[at].reshape((len(at),) + (1,) * d)
                offset = tuple((gr - G[at]).T)
                if kind == KIND_MANIN:
                    T, log_T = _manin_multiplier(_component_dot(g_rows[4], h[4]))
                    T = _with_mirrors(T, flipped)
                else:
                    c = c_h[offset]
                    T = _modified_multiplier(C_g, c, table.values[at_k], alpha)
                t_h = theta_h[offset]
                lhs = C_g * alpha * T * t_h
                if far_path:
                    # far entries formed another way; a stored theta_h of 0 left out
                    if kind == KIND_MANIN:
                        log_lhs = (log_factors[at].reshape(C_g.shape) + np.log(t_h)
                                   + _with_mirrors(log_T, flipped))
                        far, far_lhs = _far(C_g, T) | (t_h == 0), alpha * np.exp(log_lhs)
                    else:
                        far, far_lhs = _far(C_g * c), table.values[at_k] * (t_h / c)
                    lhs = np.where(far, np.where(t_h == 0, theta.values[at_k], far_lhs), lhs)
                residuals[at] = np.abs(lhs - theta.values[at_k]).reshape(
                    len(at), -1).max(axis=1)
    residuals = residuals.tolist()
    entries = []
    for g, gr, key in zip(G.tolist(), radii, keys):
        residual = residuals[first[key]]
        if not math.isfinite(residual):
            raise NCThetaError("functional equation residual is not a finite "
                               f"double at g={tuple(g)}")
        entries.append({
            "g": g,
            "kind": kind,
            "interior_radius": R - gr,
            "max_residual": residual,
            "degenerate": False,
            "witnesses": [],
            "pass": bool(residual < residual_tol),
        })
    return entries


def verify_functional_equation(ctx: HermitianFormContext, emb: EmbeddingMap,
                               theta: QuantumElement, g: LatticePoint,
                               kind: str, tail_eps: float = TAIL_EPS,
                               residual_tol: float = 1e-9) -> dict:
    """Coefficient residual of C_g e(g) x_g(Theta) = Theta on the interior ball.

    The comparison is restricted to |k|_inf <= R - |g|_inf, where both
    sides are fully resolved by the truncated element, so boundary
    clipping cannot produce false failures; the verdict is
    max_residual < residual_tol, with nothing added to the tolerance.

    The one-g call of verify_functional_equations, with its errors and
    entries; a run over many g should call it directly.
    """
    return verify_functional_equations(ctx, emb, theta, g.index[None, :], kind,
                                       tail_eps, residual_tol)[0]


def functional_equation_residual_ops(ctx: HermitianFormContext,
                                     emb: EmbeddingMap, theta: QuantumElement,
                                     g: LatticePoint, kind: str,
                                     tail_eps: float = TAIL_EPS) -> float:
    """Same residual computed literally through translate and the twisted
    product; reference path for cross-checking the array implementation.

    The residual is the largest |lhs_k - Theta_k| over the interior ball
    |k|_inf <= R - |g|_inf, read off as slices of the two cubes, with
    np.hypot for the modulus (the bits of abs of a Python complex); 0.0
    when that ball is empty, and NaN when a difference is NaN."""
    factor_g = translation_factor(ctx, emb, g, kind, tail_eps)
    shifted = translate(ctx, emb, g, theta, kind, tail_eps)
    lhs = QuantumElement.basis(emb, g.index).multiply(shifted).scaled(factor_g.value)
    interior = theta.radius - np.max(np.abs(g.index))
    if interior < 0:
        return 0.0
    lhs_at, theta_at = ((slice(x.radius - interior, x.radius + interior + 1),)
                        * emb.d for x in (lhs, theta))
    diff = lhs.values[lhs_at] - theta.values[theta_at]
    return float(np.max(np.hypot(diff.real, diff.imag)))


def verify_cocycle_consistency(ctx: HermitianFormContext, emb: EmbeddingMap,
                               kind: str, pairs,
                               tail_eps: float = TAIL_EPS) -> dict:
    """Consistency law C_{g+h} / (C_g C_h) = T_g(h) alpha(g, h) on sampled pairs.

    manin: both sides balance up to a pure phase that the cocycle must
    supply, so the check asserts |lhs / rhs| = 1 (to 1e-10) and reports
    the phase residual.  modified: the law defines T, so the check is
    that the batched ratio T of the closed-formula factors agrees with
    the same ratio formed pair by pair from scalar factors, in the
    kernel's order, to DEFINITION_TOL relative.  The factors, T and alpha
    of all pairs come from one _translations call; only the comparison is
    scalar.  A pair where C_g, C_h or C_{g+h} vanishes structurally is
    skipped and counted as degenerate.  Where C_g C_h, C_{g+h} or T is
    far (_far), a manin pair is compared on its exponents (NCThetaError
    where that ratio is not finite), and a modified pair gives no modulus
    or phase residual; one whose T is far is left out of pairs_checked.
    """
    _check_kind(kind)
    K = _indices(pairs, (-1, 2, emb.d))
    factors, zero, alpha, T, exponents = _translations(
        ctx, emb, K[:, 0], K[:, 1], kind, tail_eps)
    far_gh, far_T = _far(factors[0] * factors[1]), _far(T)
    far = far_gh | far_T | _far(factors[2])
    skipped = zero[0] | zero[1] | zero[2]
    if kind == KIND_MANIN:
        # where C_g C_h, C_{g+h} or T is far, the ratio from the exponents
        (log_g, log_h, log_gh), log_T = exponents
        with np.errstate(over="ignore", invalid="ignore"):
            far_ratio = np.exp(log_gh - log_g - log_h - log_T) / alpha
    max_mod = max_phase = max_rel = 0.0
    # a modified pair whose T is far is left out, as the FE leaves out theta_h = 0
    checked = np.flatnonzero(~skipped & ~(far_T & (kind == KIND_MODIFIED)))
    for i in checked:
        if kind == KIND_MODIFIED:
            # numpy scalars: the kernel's arithmetic, in its order
            fg, fh, fgh, a = (f[i] for f in (*factors, alpha))
            t = (fgh / fh) / (fg * a) if far_gh[i] else _modified_multiplier(fg, fh, fgh, a)
            max_rel = max(max_rel, abs(t - T[i]) / max(abs(T[i]), 1e-300))
            if far[i]:
                continue
        fg, fh, fgh = (complex(f[i]) for f in factors)
        ratio = far_ratio[i] if far[i] else fgh / (fg * fh) / (T[i] * alpha[i])
        if not cmath.isfinite(ratio):
            raise NCThetaError("cocycle ratio from the exponents is not a "
                               f"finite double at pair {K[i].tolist()}")
        max_mod = max(max_mod, abs(abs(ratio) - 1.0))
        max_phase = max(max_phase, abs(float(np.angle(ratio))))
    ok = max_mod < MODULUS_TOL if kind == KIND_MANIN else max_rel < DEFINITION_TOL
    return {
        "kind": kind,
        "pairs_checked": len(checked),
        "pairs_skipped_degenerate": int(np.count_nonzero(skipped)),
        "max_modulus_residual": max_mod,
        "max_phase_residual": max_phase,
        "max_definition_residual": max_rel,
        "pass": bool(ok),
    }


def additivity_probe(ctx: HermitianFormContext, emb: EmbeddingMap, kind: str,
                     search_radius: int, tail_eps: float = TAIL_EPS,
                     seed: int = 0) -> dict:
    """Composition law of translations over a search ball.

    manin: T_{g1}(h) T_{g2}(h) = T_{g1+g2}(h) holds because H is linear
    in its first slot; asserted on the log scale (exponent residual) and
    as a relative deviation, both below 1e-10.  Exact cancellation of
    huge multipliers cannot be asked of floating point in absolute terms,
    so the deviation is measured relative to the composed multiplier;
    NCThetaError where it is not finite even from the exponents.

    modified: searches the ball (zero excluded: the unnormalized factor
    at 0 deviates by construction) for a concrete witness triple with
    absolute deviation above 1e-6 and reports it; absence of a witness is
    reported as such, never as a universal additivity claim.  It checks
    at most MAX_CHECKS triples, lexicographically, in batches of 1, 2, 4,
    ... up to batch_rows(9) triples, one _translations call each; a triple
    with a structural zero at g1, g2, g1 + g2 or h is skipped, and one
    whose multipliers or deviation (_cmul and np.hypot: the bits of
    Python's scalar complex product and abs) are far (_far) is no witness.
    """
    _check_kind(kind)
    base = {"kind": kind, "search_radius": int(search_radius)}
    # the ball by shells of growing sup norm, lexicographic within a shell
    K_pts = ball(emb.d, search_radius)
    K_pts = K_pts[np.argsort(np.max(np.abs(K_pts), axis=1), kind="stable")]
    if kind == KIND_MANIN:
        n_pts = len(K_pts)
        if n_pts ** 3 <= 200_000:
            # n_pts is odd: every triple of point positions, lexicographically
            i1, i2, ih = (ball(3, n_pts // 2) + n_pts // 2).T
        else:
            idx = seeded_integers(seed, 0, n_pts, (5000, 3))
            diag = np.repeat(np.arange(n_pts)[:, None], 3, axis=1)
            i1, i2, ih = np.concatenate([idx, diag]).T
        X, Xs = (complex_coordinates(ctx, *emb.blocks(K)[:2])
                 for K in (K_pts, K_pts[i1] + K_pts[i2]))
        h1, h2, h12 = (hermitian_pairing_arrays(ctx, x, X[ih])
                       for x in (X[i1], X[i2], Xs))
        max_log = float(np.max(np.abs(h1 + h2 - h12))) if len(i1) else 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            t1, t2, t12 = (_manin_multiplier(x)[0] for x in (h1, h2, h12))
            t1t2 = t1 * t2
            rel = np.abs(t1t2 - t12) / np.maximum(np.abs(t12), 1e-300)
            # where a multiplier or their product is far: from the exponents
            far = ~np.isfinite(rel) | _far(t1, t2, t1t2, t12)
            rel[far] = np.abs(np.expm1(-np.pi * (h1 + h2 - h12)[far]))
        if not np.all(np.isfinite(rel)):
            j = np.argmin(np.isfinite(rel))
            triple = K_pts[[i1[j], i2[j], ih[j]]].tolist()
            raise NCThetaError("additivity deviation from the exponents is not a "
                               f"finite double at g1, g2, h = {triple}")
        max_rel = float(np.max(rel)) if len(i1) else 0.0
        return {
            **base,
            "verdict": "additive" if max(max_log, max_rel) < ADDITIVITY_TOL
            else "deviation_found",
            "max_exponent_residual": max_log,
            "max_relative_deviation": max_rel,
            "triples_checked": int(len(i1)),
        }
    nonzero = K_pts[np.any(K_pts != 0, axis=1)]
    n, start, size = len(nonzero), 0, 1
    base.update(triples_checked=min(n ** 3, MAX_CHECKS), triples_skipped_degenerate=0)
    while start < base["triples_checked"]:
        stop = min(start + size, base["triples_checked"])
        i = np.arange(start, stop)
        A, B, H = nonzero[np.stack([i // n ** 2, i // n % n, i % n])]
        _, zero, _, T, _ = _translations(ctx, emb, np.concatenate([A, B, A + B]),
                                         np.tile(H, (3, 1)), kind, tail_eps)
        skip = np.any(zero[0].reshape(3, -1), axis=0) | zero[1][:stop - start]
        t1, t2, t12 = T.reshape(3, -1)
        with np.errstate(over="ignore", invalid="ignore"):
            d = _cmul(t1, t2) - t12
            dev = np.hypot(d.real, d.imag)
            hit = ~skip & (dev > WITNESS_DEVIATION) & ~_far(t1, t2, t12, dev)
        j = int(np.argmax(np.append(hit, True)))  # the first witness, or len(hit)
        base["triples_skipped_degenerate"] += int(np.count_nonzero(skip[:j]))
        if j < len(hit):
            return {**base, "triples_checked": start + j + 1, "verdict": "witness_found",
                    "witness": {"g1": A[j].tolist(), "g2": B[j].tolist(),
                                "h": H[j].tolist(), "deviation": float(dev[j])}}
        start, size = stop, min(2 * size, batch_rows(9))
    return {**base, "verdict": "no_witness_found",
            "search_truncated": n ** 3 > MAX_CHECKS}
