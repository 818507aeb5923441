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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTranslation, DimensionMismatch, NCThetaError
from .lattice import (EmbeddingMap, LatticePoint, QuantumElement, _cmul,
                      _integral, ball, cocycle_exponent_arrays)
from .theta import (STRUCTURAL_ZERO_TOL, TAIL_EPS, HermitianFormContext,
                    complex_coordinates, hermitian_form,
                    hermitian_pairing_arrays, theta_coefficients)

KIND_MANIN = "manin"
KIND_MODIFIED = "modified"
MODULUS_TOL = 1e-10
ADDITIVITY_TOL = 1e-10
WITNESS_DEVIATION = 1e-6


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

    The modified C_g is the one-row call of the closed formula, c_g."""
    _check_kind(kind)
    if kind == KIND_MANIN:
        value = complex(np.exp(-np.pi / 2 * hermitian_form(ctx, g, g).real))
        return TranslationFactor(point=g, value=value, kind=kind, degenerate=False)
    values, norms = theta_coefficients(ctx, emb, g.index[None, :], tail_eps)
    return TranslationFactor(point=g, value=complex(values[0]), kind=kind,
                             degenerate=bool(norms[0] < STRUCTURAL_ZERO_TOL))


def _underflow(indices) -> NCThetaError:
    """Factors nonzero in exact arithmetic but below double range."""
    return NCThetaError("translation factors underflow double precision at "
                        f"indices {[tuple(int(v) for v in k) for k in indices[:8]]}")


def _multipliers(ctx: HermitianFormContext, emb: EmbeddingMap, g: LatticePoint,
                 indices: np.ndarray, kind: str, tail_eps: float):
    """Translation multipliers T_g(h) of g over an (n, d) array of target
    indices.

    In the modified convention T_g(h) = c_{g+h} / (C_g c_h alpha(g, h))
    with the closed coefficients of theta_coefficients.  Raises
    DegenerateTranslation when that would divide by a structurally
    vanishing factor, and NCThetaError when C_g c_h lies below
    double-precision range, both before any division.
    """
    W1, W2, M, Rr = emb.blocks(indices)
    if kind == KIND_MANIN:
        xg = complex_coordinates(ctx, g.w1, g.w2)
        return np.exp(-np.pi * hermitian_pairing_arrays(
            ctx, xg, complex_coordinates(ctx, W1, W2)))
    alpha = np.exp(1j * np.pi * cocycle_exponent_arrays(
        (g.w1, g.w2, g.m.astype(float), g.r), (W1, W2, M.astype(float), Rr)))
    factor_g = translation_factor(ctx, emb, g, kind, tail_eps)
    if factor_g.degenerate:
        raise DegenerateTranslation([g.index])
    c_h, norm_h = theta_coefficients(ctx, emb, indices, tail_eps)
    bad = norm_h < STRUCTURAL_ZERO_TOL
    if np.any(bad):
        raise DegenerateTranslation(indices[bad])
    underflow = factor_g.value * c_h == 0
    if np.any(underflow):
        raise _underflow([g.index] if factor_g.value == 0 else indices[underflow])
    c_gh, _ = theta_coefficients(ctx, emb, indices + g.index, tail_eps)
    return c_gh / (factor_g.value * c_h * alpha)


def translate(ctx: HermitianFormContext, emb: EmbeddingMap, g: LatticePoint,
              x: QuantumElement, kind: str,
              tail_eps: float = TAIL_EPS) -> QuantumElement:
    """Quantum translation: multiply every coefficient by the multiplier of g.

    Support is unchanged.  In the modified convention every support point
    (and g itself) must carry a nonvanishing factor, otherwise
    DegenerateTranslation lists the offenders.
    """
    _check_kind(kind)
    if x.embedding.d != emb.d:
        raise DimensionMismatch("element does not match the embedding")
    K, c = x.as_arrays()
    if len(K) == 0:
        return x
    T = _multipliers(ctx, emb, g, K, kind, tail_eps)
    values = np.zeros_like(x.values)
    values[tuple((K + x.radius).T)] = _cmul(c, T)
    return QuantumElement(embedding=emb, values=values)


@dataclass(frozen=True, eq=False)
class BallTable:
    """Closed-formula coefficients on the whole ball |k|_inf <= radius.

    `values` and `norms` (the normalized b-factors that detect structural
    zeros) are cubes of side 2 radius + 1 indexed by k + radius, filled
    by one theta_coefficients call.  Every array the functional-equation
    engine needs from it (c_h, c_{g+h} and C_g = c_g) is a slice or an
    entry of `values`, with the bits of that call.  It sums every row with
    the largest series halfwidth any row needs, so c_g is translation_factor
    bit for bit only where all rows need the same halfwidth.
    """

    radius: int
    values: np.ndarray
    norms: np.ndarray

    @classmethod
    def build(cls, ctx: HermitianFormContext, emb: EmbeddingMap, radius: int,
              tail_eps: float = TAIL_EPS) -> "BallTable":
        values, norms = theta_coefficients(ctx, emb, ball(emb.d, radius),
                                           tail_eps)
        shape = (2 * radius + 1,) * emb.d
        return cls(radius=radius, values=values.reshape(shape),
                   norms=norms.reshape(shape))

    def zeros(self) -> list:
        """Indices whose lattice factor vanishes structurally, in
        lexicographic order."""
        K = np.argwhere(self.norms < STRUCTURAL_ZERO_TOL) - self.radius
        return [tuple(int(v) for v in k) for k in K]


def degeneracy_scan(ctx: HermitianFormContext, emb: EmbeddingMap, radius: int,
                    tail_eps: float = TAIL_EPS) -> list:
    """Indices within the ball whose lattice factor vanishes structurally."""
    return BallTable.build(ctx, emb, radius, tail_eps).zeros()


def _sliced_dot(xs, cubes: list, at: tuple):
    """sum_j xs[j] * cubes[j][at] with the bits of np.sum(..., axis=-1) over
    the stacked products, which adds fewer than 8 doubles one at a time
    from zero; summed so, the engine's slices take 0.10 ms per g, not the
    0.19 ms of np.sum (p=1, q=2 and p=2, q=0 at R=4)."""
    terms = [x * cube[at] for x, cube in zip(xs, cubes)]
    if terms and len(terms) * terms[0].itemsize >= 64:
        return np.sum(np.stack(terms, axis=-1), axis=-1)
    return sum(terms, 0.0)


def verify_functional_equations(ctx: HermitianFormContext, emb: EmbeddingMap,
                                theta: QuantumElement, points: list,
                                kind: str, tail_eps: float = TAIL_EPS,
                                residual_tol: float = 1e-9,
                                table: BallTable | None = None) -> list:
    """verify_functional_equation for every lattice point of `points`, in order.

    On the interior ball h = k - g runs over a shifted slice of a cube of
    side 2R + 1, so each g reads views of the cubes of Theta, of the
    ball's blocks per component (and complex coordinates, manin) and of
    the closed-formula `table` (modified; built unless given), with the
    bits of gathering those rows by index.  C_g is the table entry at g
    (modified; see BallTable for when it equals translation_factor) or one
    exp(-(pi/2) H(g, g)) call for all g (manin).  The table also serves
    the degeneracy scan.  As T_g(h) = c_{g+h} / (C_g c_h alpha), the
    modified residual checks that the inner-product coefficient over the
    closed formula agrees at h and g + h.

    Errors come in the order of the single-g calls: any |g|_inf > R/2
    (ValueError), the degeneracy scan (DegenerateTranslation), then per g
    an underflow of C_g or c_h (NCThetaError, lexicographic offenders) or
    a residual that is not a finite double (NCThetaError).
    """
    _check_kind(kind)
    R = theta.radius
    radii = [int(np.max(np.abs(g.index))) for g in points]
    if any(2 * gr > R for gr in radii):
        raise ValueError("translation index must satisfy |g|_inf <= R/2")
    if kind == KIND_MODIFIED:
        if table is None:
            table = BallTable.build(ctx, emb, R, tail_eps)
        elif table.radius != R:
            raise ValueError("coefficient table radius differs from the element's")
        zeros = table.zeros()
        if zeros:
            raise DegenerateTranslation(zeros, "theta support hits theta zeros")
        factors = [complex(table.values[tuple(g.index + R)]) for g in points]
    else:
        xs = complex_coordinates(ctx, np.reshape([g.w1 for g in points], (-1, emb.p)),
                                 np.reshape([g.w2 for g in points], (-1, emb.p)))
        factors = [complex(c) for c in
                   np.exp(-np.pi / 2 * hermitian_pairing_arrays(ctx, xs, xs).real)]
    W1, W2, M, Rr = emb.blocks(ball(emb.d, R))
    X = complex_coordinates(ctx, W1, W2) if kind == KIND_MANIN else W1[:, :0]
    # per-component cubes, contiguous so that slices of them sum fast
    w1, w2, m, r, xbar = ([np.ascontiguousarray(c).reshape(theta.values.shape)
                           for c in block.T]
                          for block in (W1, W2, M.astype(float), Rr, np.conj(X)))
    entries = []
    # overflow and division by an underflowed product end in a residual
    # that is not finite, which raises below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i, (g, gr, C_g) in enumerate(zip(points, radii, factors)):
            at_k = tuple(slice(gr, 2 * R + 1 - gr) for _ in g.index)
            at_h = tuple(slice(gr - v, 2 * R + 1 - gr - v) for v in g.index)
            alpha = np.exp(1j * np.pi * (
                _sliced_dot(g.w1, w2, at_h) + _sliced_dot(g.m.astype(float), r, at_h)
                - _sliced_dot(g.w2, w1, at_h) - _sliced_dot(g.r, m, at_h)))
            if kind == KIND_MANIN:
                T = np.exp(-np.pi * _sliced_dot(xs[i] @ ctx.im_inv, xbar, at_h))
            else:
                c_h = table.values[at_h]
                if C_g == 0 or np.any(c_h == 0):
                    raise _underflow([g.index] if C_g == 0 else
                                     np.argwhere(c_h == 0) + (gr - R) - g.index)
                T = table.values[at_k] / (C_g * c_h * alpha)
            lhs = C_g * alpha * T * theta.values[at_h]
            residual = float(np.max(np.abs(lhs - theta.values[at_k])))
            if not math.isfinite(residual):
                raise NCThetaError("functional equation residual is not a finite "
                                   f"double at g={tuple(int(v) for v in g.index)}")
            entries.append({
                "g": [int(v) for v in g.index],
                "kind": kind,
                "interior_radius": int(R - gr),
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
    Requires |g|_inf <= R/2 (ValueError otherwise).  For the modified
    convention the whole truncation ball is scanned for vanishing
    factors before any division (DegenerateTranslation).

    This is the one-g call of the batched engine
    verify_functional_equations, which reads the coefficient cube of
    Theta, builds a closed-formula table on the truncation ball once and
    evaluates every translation from them; a run over many g should call
    the engine directly.  Its entries equal those of this call exactly.
    """
    return verify_functional_equations(ctx, emb, theta, [g], kind, tail_eps,
                                       residual_tol)[0]


def functional_equation_residual_ops(ctx: HermitianFormContext,
                                     emb: EmbeddingMap, theta: QuantumElement,
                                     g: LatticePoint, kind: str,
                                     tail_eps: float = TAIL_EPS) -> float:
    """Same residual computed literally through translate and the twisted
    product; reference path for cross-checking the array implementation."""
    factor_g = translation_factor(ctx, emb, g, kind, tail_eps)
    shifted = translate(ctx, emb, g, theta, kind, tail_eps)
    lhs = QuantumElement.basis(emb, g.index).multiply(shifted).scaled(factor_g.value)
    gr = int(np.max(np.abs(g.index))) if g.index.size else 0
    return max((abs(lhs.coeff(k) - theta.coeff(k))
                for k in ball(emb.d, theta.radius - gr)), default=0.0)


def verify_cocycle_consistency(ctx: HermitianFormContext, emb: EmbeddingMap,
                               kind: str, pairs,
                               tail_eps: float = TAIL_EPS) -> dict:
    """Consistency law C_{g+h} / (C_g C_h) = T_g(h) alpha(g, h) on sampled pairs.

    manin: both sides balance up to a pure phase that the cocycle must
    supply, so the check asserts |lhs / rhs| = 1 (to 1e-10) and reports
    the phase residual.  modified: the law defines T, so the check is
    that the batched ratio T of the closed-formula factors agrees with
    the same ratio formed pair by pair from scalar factors to 1e-12
    relative.  The factors, T and alpha of all pairs are formed in one
    batch on the 3n rows g, h and g + h (modified: one closed-formula
    call, with BallTable's caveat on its bits); only the comparison is
    scalar.  NCThetaError when C_g C_h of a pair underflows to 0.
    """
    _check_kind(kind)
    message = f"pairs must hold two indices of length {emb.d}"
    try:
        K = np.asarray(list(pairs))
    except ValueError as exc:  # ragged pairs
        raise DimensionMismatch(message) from exc
    if K.size and K.shape[1:] != (2, emb.d):
        raise DimensionMismatch(message)
    K = _integral(K.reshape(-1, 2, emb.d)).astype(int)
    n = len(K)
    rows = np.concatenate([K[:, 0], K[:, 1], K[:, 0] + K[:, 1]])
    blocks = emb.blocks(rows)
    g, h = (tuple(b[at].astype(float) for b in blocks)
            for at in (slice(0, n), slice(n, 2 * n)))
    alpha = np.exp(1j * np.pi * cocycle_exponent_arrays(g, h))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if kind == KIND_MANIN:
            x = complex_coordinates(ctx, blocks[0], blocks[1])
            factors = np.exp(-np.pi / 2 * hermitian_pairing_arrays(ctx, x, x).real)
            T = np.exp(-np.pi * hermitian_pairing_arrays(ctx, x[:n], x[n:2 * n]))
            degenerate = np.zeros(3 * n, dtype=bool)
        else:
            factors, norms = theta_coefficients(ctx, emb, rows, tail_eps)
            T = factors[2 * n:] / (factors[:n] * factors[n:2 * n] * alpha)
            degenerate = norms < STRUCTURAL_ZERO_TOL
    max_mod = 0.0
    max_phase = 0.0
    max_rel = 0.0
    n_skipped = 0
    for i in range(n):
        if degenerate[i] or degenerate[n + i]:
            n_skipped += 1
            continue
        fg, fh, fgh = (complex(factors[j]) for j in (i, n + i, 2 * n + i))
        if fg * fh == 0:
            raise _underflow(K[i])
        lhs = fgh / (fg * fh)
        rhs = T[i] * alpha[i]
        ratio = lhs / rhs
        max_mod = max(max_mod, abs(abs(ratio) - 1.0))
        max_phase = max(max_phase, abs(float(np.angle(ratio))))
        if kind == KIND_MODIFIED:
            t_scalar = fgh / (fg * fh * alpha[i])
            max_rel = max(max_rel, abs(t_scalar - T[i]) / max(abs(T[i]), 1e-300))
    if kind == KIND_MANIN:
        ok = max_mod < MODULUS_TOL
    else:
        ok = max_rel < 1e-12
    return {
        "kind": kind,
        "pairs_checked": n - n_skipped,
        "pairs_skipped_degenerate": n_skipped,
        "max_modulus_residual": max_mod,
        "max_phase_residual": max_phase,
        "max_definition_residual": max_rel,
        "pass": bool(ok),
    }


def additivity_probe(ctx: HermitianFormContext, emb: EmbeddingMap, kind: str,
                     search_radius: int, tail_eps: float = TAIL_EPS,
                     seed: int = 0, max_checks: int = 20_000) -> dict:
    """Composition law of translations over a search ball.

    manin: T_{g1}(h) T_{g2}(h) = T_{g1+g2}(h) holds because H is linear
    in its first slot; asserted on the log scale (exponent residual) and
    as a relative deviation, both below 1e-10.  Exact cancellation of
    huge multipliers cannot be asked of floating point in absolute terms,
    so the deviation is measured relative to the composed multiplier.

    modified: searches the ball (zero excluded: the unnormalized factor
    at 0 deviates by construction) for a concrete witness triple with
    absolute deviation above 1e-6 and reports it; absence of a witness is
    reported as such, never as a universal additivity claim.
    """
    _check_kind(kind)
    # the ball by shells of growing sup norm, lexicographic within a shell
    K_pts = ball(emb.d, search_radius)
    K_pts = K_pts[np.argsort(np.max(np.abs(K_pts), axis=1), kind="stable")]
    if kind == KIND_MANIN:
        rng = np.random.default_rng(seed)
        n_pts = len(K_pts)
        if n_pts ** 3 <= 200_000:
            # n_pts is odd: every triple of point positions, lexicographically
            i1, i2, ih = (ball(3, n_pts // 2) + n_pts // 2).T
        else:
            idx = rng.integers(0, n_pts, size=(5000, 3))
            diag = np.arange(n_pts)
            i1 = np.concatenate([idx[:, 0], diag])
            i2 = np.concatenate([idx[:, 1], diag])
            ih = np.concatenate([idx[:, 2], diag])
        W1, W2, _, _ = emb.blocks(K_pts)
        X = complex_coordinates(ctx, W1, W2)
        W1s, W2s, _, _ = emb.blocks(K_pts[i1] + K_pts[i2])
        Xs = complex_coordinates(ctx, W1s, W2s)
        h1 = hermitian_pairing_arrays(ctx, X[i1], X[ih])
        h2 = hermitian_pairing_arrays(ctx, X[i2], X[ih])
        h12 = hermitian_pairing_arrays(ctx, Xs, X[ih])
        max_log = float(np.max(np.abs(h1 + h2 - h12))) if len(i1) else 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            t12 = np.exp(-np.pi * h12)
            t1t2 = np.exp(-np.pi * h1) * np.exp(-np.pi * h2)
            rel = np.abs(t1t2 - t12) / np.maximum(np.abs(t12), 1e-300)
        # where a multiplier leaves the normal double range, the same
        # deviation from the exponents alone
        tiny = np.finfo(float).tiny
        far = ~np.isfinite(rel) | (np.abs(t1t2) < tiny) | (np.abs(t12) < tiny)
        rel[far] = np.abs(np.expm1(-np.pi * (h1 + h2 - h12)[far]))
        max_rel = float(np.max(rel)) if len(i1) else 0.0
        return {
            "kind": kind,
            "verdict": "additive" if max(max_log, max_rel) < ADDITIVITY_TOL
            else "deviation_found",
            "max_exponent_residual": max_log,
            "max_relative_deviation": max_rel,
            "triples_checked": int(len(i1)),
            "search_radius": int(search_radius),
        }
    nonzero = K_pts[np.any(K_pts != 0, axis=1)]
    checked = 0
    skipped = 0
    triples = itertools.product(nonzero, repeat=3)
    for a, b, h in itertools.islice(triples, max_checks):
        checked += 1
        try:
            t1, t2, t12 = (_multipliers(ctx, emb, emb.point(g), h[None, :], kind,
                                        tail_eps) for g in (a, b, a + b))
        except DegenerateTranslation:
            skipped += 1
            continue
        dev = abs(t1[0] * t2[0] - t12[0])
        if dev > WITNESS_DEVIATION:
            return {
                "kind": kind,
                "verdict": "witness_found",
                "witness": {"g1": a.tolist(), "g2": b.tolist(), "h": h.tolist(),
                            "deviation": float(dev)},
                "triples_checked": checked,
                "triples_skipped_degenerate": skipped,
                "search_radius": int(search_radius),
            }
    return {"kind": kind, "verdict": "no_witness_found",
            "triples_checked": checked,
            "triples_skipped_degenerate": skipped,
            "search_radius": int(search_radius),
            "search_truncated": next(triples, None) is not None}
