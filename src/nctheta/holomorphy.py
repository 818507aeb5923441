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

from .errors import DimensionMismatch, NoPartialStructure, OddDimension
from .heisenberg import GaussianVector, connection_combination, connection_matrix
from .lattice import EmbeddingMap, _readonly

RANK_REL_TOL = 1e-8
SYMMETRY_TOL = 1e-10
POSITIVITY_TOL = 1e-12


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
    def full(cls, t1, t2) -> "ComplexStructure":
        return cls(kind="full", t1=t1, t2=t2)

    @classmethod
    def partial(cls, t1, t2) -> "ComplexStructure":
        return cls(kind="partial", t1=t1, t2=t2)

    @classmethod
    def default_partial(cls, p: int) -> "ComplexStructure":
        """(i I_p, I_p): the standard diagonal structure on the continuous part."""
        return cls.partial(1j * np.eye(p), np.eye(p))


@dataclass(frozen=True, eq=False)
class HolomorphyResult:
    """Classifier output: variant plus the solved data and a diagnostic witness."""

    variant: str  # "unique" | "nonexistent" | "delta_only" | "partial"
    omega: np.ndarray | None
    g_matrix: np.ndarray | None
    witness: dict

    def to_dict(self) -> dict:
        out = {"variant": self.variant, "witness": dict(self.witness)}
        for key, mat in (("omega", self.omega), ("g", self.g_matrix)):
            if mat is not None:
                out[key] = [[[v.real, v.imag] for v in row] for row in mat]
        return out


def _svd_rank(mat: np.ndarray) -> int:
    if mat.size == 0:
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sv > RANK_REL_TOL * sv[0])) if sv[0] > 0 else 0


def _acf_split(emb: EmbeddingMap, t1: np.ndarray, t2: np.ndarray, rows: slice):
    """(T1, T2) applied to connection-matrix rows, split into column blocks.

    Returns (A, C, F) with p, p and q columns respectively; the rows
    argument selects which connections the structure combines.
    """
    B = connection_matrix(emb)[rows]
    half = B.shape[0] // 2
    acf = t1 @ B[:half] + t2 @ B[half:]
    p = emb.p
    return acf[:, :p], acf[:, p:2 * p], acf[:, 2 * p:]


def _solve_quadratic_form(A: np.ndarray, C: np.ndarray):
    """Solve C Omega = A for symmetric Omega; report the three conditions.

    Returns (omega or None, witness); omega is the symmetrized solution
    when invertibility, symmetry and positivity all hold.
    """
    p = A.shape[1]
    witness: dict = {}
    rank_c = _svd_rank(C)
    witness["c_rank"] = rank_c
    if rank_c < p:
        witness["failed_condition"] = "invertibility"
        return None, witness
    omega_raw = np.linalg.solve(C, A) if C.shape[0] == p else \
        np.linalg.lstsq(C, A, rcond=None)[0]
    sym_res = float(np.max(np.abs(omega_raw - omega_raw.T))) if p else 0.0
    witness["symmetry_residual"] = sym_res
    if sym_res > SYMMETRY_TOL:
        witness["failed_condition"] = "symmetry"
        return None, witness
    omega = (omega_raw + omega_raw.T) / 2
    min_eig = float(np.min(np.linalg.eigvalsh(omega.imag))) if p else 0.0
    witness["min_im_eig"] = min_eig
    if not min_eig > POSITIVITY_TOL:
        witness["failed_condition"] = "positivity"
        return None, witness
    witness["substitution_residual"] = float(np.max(np.abs(C @ omega - A)))
    return omega, witness


def classify_holomorphic(emb: EmbeddingMap, cs: ComplexStructure) -> HolomorphyResult:
    """Existence trichotomy for holomorphic vectors under a full structure.

    q = 0: the consistency equations have the unique candidate
    Omega = (T1 B12 + T2 B22)^{-1} (T1 B11 + T2 B21), accepted iff that
    matrix exists, is symmetric and has positive definite imaginary part.
    p, q both nonzero: never solvable; the coefficient map factors
    through a rank <= p matrix while the right side has rank p + q/2.
    p = 0: the constraints force all weight onto the lattice origin, so
    only a delta-supported (non-Schwartz-class) remnant survives.
    """
    if cs.kind != "full":
        raise ValueError("classification requires a full complex structure")
    d = emb.d
    if d % 2 != 0:
        raise OddDimension(f"full complex structure needs even d, got {d}")
    if cs.t1.shape != (d // 2, d // 2):
        raise DimensionMismatch(f"T blocks must be {(d // 2, d // 2)}")
    p, q = emb.p, emb.q
    A, C, F = _acf_split(emb, cs.t1, cs.t2, slice(0, d))
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


def _symmetric_basis(p: int):
    basis = []
    for a in range(p):
        for b in range(a, p):
            E = np.zeros((p, p))
            E[a, b] = 1.0
            E[b, a] = 1.0
            basis.append(E)
    return basis


def verify_nonexistence_by_search(emb: EmbeddingMap, cs: ComplexStructure,
                                  trials: int, seed: int = 0) -> dict:
    """Least-squares corroboration of the mixed-embedding obstruction.

    For the supplied structure plus `trials` random full structures,
    fit C (Omega, I, G^t) = (A, C, F) over symmetric Omega and arbitrary
    G and record the irreducible residual.  The rank certificate
    (rank C <= p, strictly below p + q/2 when q > 0) is asserted; the
    residual is reported only, since its size depends on conditioning.
    """
    d = emb.d
    if d % 2 != 0:
        raise OddDimension(f"full complex structure needs even d, got {d}")
    p, q = emb.p, emb.q
    rng = np.random.default_rng(seed)
    structures = [cs]
    half = d // 2
    for _ in range(trials):
        t1 = rng.normal(size=(half, half)) + 1j * rng.normal(size=(half, half))
        t2 = rng.normal(size=(half, half)) + 1j * rng.normal(size=(half, half))
        structures.append(ComplexStructure.full(t1, t2))
    sym_basis = _symmetric_basis(p)
    residuals, left_ranks = [], []
    for struct in structures:
        A, C, F = _acf_split(emb, struct.t1, struct.t2, slice(0, d))
        rank_c = _svd_rank(C)
        left_ranks.append(rank_c)
        if q > 0 and not rank_c < p + q // 2:
            raise ArithmeticError("rank certificate violated; inconsistent inputs")
        # the Omega and G equations share no unknowns, so they are fitted
        # apart; with p = 0 the Omega fit has none and leaves A as it is
        design = np.stack([np.ravel(C @ E) for E in sym_basis], axis=1) \
            if sym_basis else np.zeros((A.size, 0))
        sol, *_ = np.linalg.lstsq(design, np.ravel(A), rcond=None)
        g_t, *_ = np.linalg.lstsq(C, F, rcond=None)
        residuals.append(float(max(np.max(np.abs(design @ sol - np.ravel(A)),
                                          initial=0.0),
                                   np.max(np.abs(C @ g_t - F), initial=0.0))))
    return {
        "trials": len(structures),
        "p": p,
        "q": q,
        "left_ranks": left_ranks,
        "required_rank": p + q // 2,
        "max_left_rank": max(left_ranks),
        "min_residual": min(residuals),
        "max_residual": max(residuals),
        "certified": bool(max(left_ranks) <= p),
    }


def solve_partial(emb: EmbeddingMap, cs: ComplexStructure):
    """Quadratic form and lattice coupling for a partial structure.

    Returns (omega, g_matrix, witness); raises NoPartialStructure when
    any reduced condition (invertibility, symmetry, positivity) fails.
    """
    p, q = emb.p, emb.q
    if p < 1:
        raise NoPartialStructure("continuous part", "needs p >= 1")
    if cs.kind != "partial":
        raise ValueError("solve_partial requires a partial complex structure")
    if cs.t1.shape != (p, p):
        raise DimensionMismatch(f"partial T blocks must be {(p, p)}")
    A, C, F = _acf_split(emb, cs.t1, cs.t2, slice(0, 2 * p))
    omega, witness = _solve_quadratic_form(A, C)
    if omega is None:
        raise NoPartialStructure(witness["failed_condition"], str(witness))
    g_matrix = np.linalg.solve(C, F).T if q else np.zeros((0, p))
    witness["g_max_abs"] = float(np.max(np.abs(g_matrix))) if q else 0.0
    return omega, g_matrix, witness


def build_theta_vector(emb: EmbeddingMap, cs: ComplexStructure) -> GaussianVector:
    """Gaussian annihilated by the p antiholomorphic connections of a
    partial structure.

    The returned member has the solved quadratic form, no linear phases
    and the centered discrete Gaussian over the lattice variables.  When
    the equations demand a nonzero lattice/continuous cross coupling the
    Gaussian family contains no solution and NoPartialStructure is
    raised with the offending coupling size.
    """
    return partial_theta_vector(emb, HolomorphyResult(
        "partial", *solve_partial(emb, cs)))


def partial_theta_vector(emb: EmbeddingMap,
                         solved: HolomorphyResult) -> GaussianVector:
    """build_theta_vector from a solved partial structure: solve_partial's
    result as a "partial" HolomorphyResult."""
    coupling = solved.witness["g_max_abs"]
    if coupling > SYMMETRY_TOL:
        raise NoPartialStructure(
            "lattice coupling",
            f"holomorphy needs a lattice cross term of size {coupling:.3e}")
    return GaussianVector.pure(solved.omega, emb.q)


def antiholomorphic_residual(emb: EmbeddingMap, cs: ComplexStructure,
                             f: GaussianVector, points) -> float:
    """Max pointwise norm of the p antiholomorphic connections applied to f.

    points is an iterable of (s, n) pairs; a certified theta vector keeps
    this below 1e-9 on any sample.
    """
    p = emb.p
    worst = 0.0
    for i in range(p):
        weights = np.zeros(emb.d, dtype=complex)
        weights[:p] = cs.t1[i]
        weights[p:2 * p] = cs.t2[i]
        lg = connection_combination(emb, weights, f)
        for s, n in points:
            worst = max(worst, abs(lg.evaluate(s, n)))
    return worst
