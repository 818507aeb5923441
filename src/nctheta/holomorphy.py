"""Complex structures and the holomorphic-vector existence classifier.

A full complex structure pairs the d = 2p+q connections into d/2
antiholomorphic operators via a coefficient block (T1, T2).  Whether a
Gaussian annihilated by all of them exists splits into three regimes:
a unique quadratic form Omega for pure continuous embeddings (q = 0), a
rank obstruction for mixed embeddings (p, q both nonzero), and a
delta-supported remnant for pure lattice embeddings (p = 0).  A partial
structure complexifies only the continuous 2p connections and always
admits a Gaussian theta vector when its reduced conditions hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, NCThetaError, NoFullStructure,
                     NoPartialStructure, OddDimension)
from .heisenberg import (GaussianVector, _check_omega, connection_combination,
                         connection_matrix)
from .lattice import EmbeddingMap, _readonly

RANK_REL_TOL = 1e-8
SYMMETRY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ComplexStructure:
    """Coefficient pair (T1, T2) for antiholomorphic connection rows.

    kind "full": both blocks are (d/2) x (d/2) and act on all d
    connections (requires even d).  kind "partial": both blocks are
    p x p and act on the first 2p connections only, leaving the lattice
    connections untouched.
    """

    kind: str
    t1: np.ndarray
    t2: np.ndarray

    def __post_init__(self):
        if self.kind not in ("full", "partial"):
            raise ValueError("kind must be 'full' or 'partial'")
        t1 = np.asarray(self.t1, dtype=complex)
        t2 = np.asarray(self.t2, dtype=complex)
        if t1.ndim != 2 or t1.shape[0] != t1.shape[1] or t1.shape != t2.shape:
            raise DimensionMismatch("T1 and T2 must be square and equally sized")
        object.__setattr__(self, "t1", _readonly(t1))
        object.__setattr__(self, "t2", _readonly(t2))

    @classmethod
    def default_partial(cls, p: int) -> "ComplexStructure":
        """(i I_p, I_p): the standard diagonal structure on the continuous part."""
        return cls("partial", 1j * np.eye(p), np.eye(p))


@dataclass(frozen=True, eq=False)
class HolomorphyResult:
    """Classifier output: variant plus the solved data and a diagnostic witness."""

    variant: str  # "unique" | "nonexistent" | "delta_only" | "partial" | "skipped"
    omega: np.ndarray | None
    g_matrix: np.ndarray | None
    witness: dict

    def to_dict(self) -> dict:
        out = {"variant": self.variant, "witness": dict(self.witness)}
        for key, mat in (("omega", self.omega), ("g", self.g_matrix)):
            if mat is not None:
                out[key] = [[[v.real, v.imag] for v in row] for row in mat]
        return out


def _check_structure(emb: EmbeddingMap, cs: ComplexStructure):
    """The one rule for a structure on an embedding: full blocks are
    (d/2) x (d/2) on even d (else OddDimension), partial blocks p x p
    (else DimensionMismatch), and the blocks and the connection rows
    T1 B_top + T2 B_bottom they form are finite (else ValueError).
    Returns those rows as _acf_split's (A, C, F)."""
    if cs.kind == "full" and emb.d % 2:
        raise OddDimension(f"full complex structure needs even d, got {emb.d}")
    n = emb.d // 2 if cs.kind == "full" else emb.p
    if cs.t1.shape != (n, n):
        raise DimensionMismatch(f"{cs.kind} structure blocks must be {n}x{n}")
    with np.errstate(over="ignore", invalid="ignore"):
        acf = _acf_split(emb, cs)
    if not all(np.isfinite(m).all() for m in (cs.t1, cs.t2, *acf)):
        raise ValueError(f"{cs.kind} structure blocks and their connection rows"
                         " must be finite")
    return acf


def _svd_rank(mat: np.ndarray) -> int:
    if mat.size == 0:
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sv > RANK_REL_TOL * sv[0])) if sv[0] > 0 else 0


def _acf_split(emb: EmbeddingMap, cs: ComplexStructure):
    """(T1, T2) applied to the connection-matrix rows the structure
    combines (all d for a full one, the first 2p for a partial one),
    split into column blocks (A, C, F) with p, p and q columns."""
    half = cs.t1.shape[0]
    B = connection_matrix(emb)[:2 * half]
    acf = cs.t1 @ B[:half] + cs.t2 @ B[half:]
    p = emb.p
    return acf[:, :p], acf[:, p:2 * p], acf[:, 2 * p:]


def _solve_quadratic_form(A: np.ndarray, C: np.ndarray):
    """Solve C Omega = A for symmetric Omega; report the four conditions.

    C is p x p with p >= 1.  Returns (omega or None, witness); omega is
    the symmetrized solution when C is invertible, the solution and its
    symmetric and skew parts finite ("conditioning" if not), the solution
    symmetric, and _check_omega's rule holds ("positivity" and
    "conditioning").
    """
    witness: dict = {"c_rank": _svd_rank(C)}
    if witness["c_rank"] < A.shape[1]:
        return None, {**witness, "failed_condition": "invertibility"}
    omega_raw = np.linalg.solve(C, A)
    with np.errstate(over="ignore", invalid="ignore"):
        skew, twice = omega_raw - omega_raw.T, omega_raw + omega_raw.T
    if not (np.isfinite(skew).all() and np.isfinite(twice).all()):
        return None, {**witness, "failed_condition": "conditioning"}
    witness["symmetry_residual"] = float(np.max(np.abs(skew)))
    if witness["symmetry_residual"] > SYMMETRY_TOL:
        return None, {**witness, "failed_condition": "symmetry"}
    omega = twice / 2
    witness["min_im_eig"] = float(np.min(np.linalg.eigvalsh(omega.imag)))
    try:
        _check_omega(omega)
    except ValueError:
        return None, {**witness, "failed_condition": "positivity"}
    except NCThetaError:
        return None, {**witness, "failed_condition": "conditioning"}
    witness["substitution_residual"] = float(np.max(np.abs(C @ omega - A)))
    return omega, witness


def classify_holomorphic(emb: EmbeddingMap, cs: ComplexStructure) -> HolomorphyResult:
    """Existence trichotomy for holomorphic vectors under a full structure.

    q = 0: the consistency equations have the unique candidate
    Omega = (T1 B12 + T2 B22)^{-1} (T1 B11 + T2 B21), accepted iff that
    matrix exists, is symmetric and passes heisenberg's Omega rule
    (_check_omega: Im Omega positive definite and well-conditioned).
    p, q both nonzero: never solvable; the coefficient map factors
    through C, whose rank (left_rank) is at most p because C has p
    columns, while the right side needs rank p + q/2 (required_rank).
    p = 0: the constraints force all weight onto the lattice origin, so
    only a delta-supported (non-Schwartz-class) remnant survives.
    """
    if cs.kind != "full":
        raise ValueError("classification requires a full complex structure")
    A, C, F = _check_structure(emb, cs)
    p, q = emb.p, emb.q
    if q == 0:
        omega, witness = _solve_quadratic_form(A, C)
        if omega is None:
            return HolomorphyResult("nonexistent", None, None, witness)
        return HolomorphyResult("unique", _readonly(omega), None, witness)
    if p != 0:
        acf = np.hstack([A, C, F])
        witness = {
            "left_rank": _svd_rank(C),
            "required_rank": p + q // 2,
            "acf_rank": _svd_rank(acf),
        }
        return HolomorphyResult("nonexistent", None, None, witness)
    witness = {
        "f_rank": _svd_rank(F),
        "note": ("linear constraints force the support to the lattice origin; "
                 "no Schwartz-class holomorphic vector exists"),
    }
    return HolomorphyResult("delta_only", None, None, witness)


def solve_partial(emb: EmbeddingMap, cs: ComplexStructure):
    """Quadratic form and lattice coupling for a partial structure.

    Returns a "partial" HolomorphyResult (omega, g_matrix, witness);
    raises NoPartialStructure when any reduced condition
    (invertibility, symmetry, positivity, conditioning) fails.
    """
    p, q = emb.p, emb.q
    if p < 1:
        raise NoPartialStructure("continuous part", "needs p >= 1")
    if cs.kind != "partial":
        raise ValueError("solve_partial requires a partial complex structure")
    A, C, F = _check_structure(emb, cs)
    omega, witness = _solve_quadratic_form(A, C)
    if omega is None:
        raise NoPartialStructure(witness["failed_condition"], str(witness))
    g_matrix = np.linalg.solve(C, F).T if q else np.zeros((0, p))
    witness["g_max_abs"] = float(np.max(np.abs(g_matrix))) if q else 0.0
    return HolomorphyResult("partial", omega, g_matrix, witness)


def default_structure(emb: EmbeddingMap) -> ComplexStructure | None:
    """The structure of a run that names none: the default partial one
    when p and q are both >= 1, else the diagonal full one (i I, I) of
    size d/2, or None for odd d."""
    if emb.p and emb.q:
        return ComplexStructure.default_partial(emb.p)
    if emb.d % 2:
        return None
    half = emb.d // 2
    return ComplexStructure("full", 1j * np.eye(half), np.eye(half))


def classify(emb: EmbeddingMap, cs: ComplexStructure | None = None):
    """The solver of a structure's kind (default_structure's when cs is
    None): classify_holomorphic's result for a full structure,
    solve_partial's for a partial one (raising its NoPartialStructure),
    or a "skipped" result when there is none."""
    cs = default_structure(emb) if cs is None else cs
    if cs is None:
        return HolomorphyResult("skipped", None, None,
                                {"note": "odd dimension admits no full structure"})
    return (classify_holomorphic if cs.kind == "full" else solve_partial)(emb, cs)


def solved_structure(emb: EmbeddingMap, cs: ComplexStructure | None = None):
    """The structure build_theta_vector solves for: default_structure's when
    cs is None or a full structure on a mixed embedding (none exists), else cs."""
    mixed = emb.p and emb.q
    return default_structure(emb) if cs is None or cs.kind == "full" and mixed else cs


def build_theta_vector(emb: EmbeddingMap,
                       cs: ComplexStructure | None = None) -> GaussianVector:
    """Theta vector of solved_structure(emb, cs), classified here; only the
    vector-space part carries a holomorphic Gaussian.

    p = 0: the lattice Gaussian exp(-(pi/2)|n|^2), whatever cs is.
    Otherwise the centered Gaussian of the solved Omega.  Raises
    NoPartialStructure when a reduced condition fails or the equations
    demand a lattice/continuous cross coupling, NoFullStructure when a
    full structure on q = 0 is not classified unique.
    """
    if emb.p == 0:
        return GaussianVector.pure(np.zeros((0, 0)), emb.q)
    target = solved_structure(emb, cs)
    solved = classify(emb, target)
    if target.kind == "full":
        if solved.variant != "unique":
            raise NoFullStructure(
                f"full structure failed: {solved.witness['failed_condition']}"
                " (supplied structure admits no holomorphic vector)")
        return GaussianVector.pure(solved.omega)
    coupling = solved.witness["g_max_abs"]
    if coupling > SYMMETRY_TOL:
        raise NoPartialStructure(
            "lattice coupling",
            f"holomorphy needs a lattice cross term of size {coupling:.3e}")
    return GaussianVector.pure(solved.omega, emb.q)


def antiholomorphic_residual(emb: EmbeddingMap, cs: ComplexStructure,
                             f: GaussianVector, points) -> float:
    """Max pointwise norm of the p antiholomorphic connections applied to f,
    NaN if one is NaN.

    points is an iterable of (s, n) pairs, read once; a certified theta
    vector keeps this below 1e-9 on any sample.
    """
    ops = [connection_combination(emb, np.concatenate([t1, t2, np.zeros(emb.q)]), f)
           for t1, t2 in zip(cs.t1, cs.t2)]
    return float(np.max([abs(lg.evaluate(s, n)) for s, n in points for lg in ops],
                        initial=0.0))
