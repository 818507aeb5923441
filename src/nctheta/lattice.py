"""Lattice embeddings into phase space and the twisted group algebra.

A real (2p+2q) x (2p+q) matrix Phi embeds Z^d, d = 2p+q, as a lattice D
inside R^p x R^p* x Z^q x T^q.  Composing the Heisenberg operators of two
lattice points produces a unit-modulus bicharacter alpha on D; finite
formal sums over D with the alpha-twisted product are the truncated
elements of the deformed torus algebra that this package manipulates.

Block convention for rows of Phi: the first p rows are the translation
part (R^p), the next p rows the modulation part (R^p*), then q integer
rows (Z^q) and q torus rows (T^q).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, NCThetaError, SingularEmbedding,
                     SingularQ, ZeroTheta)

INT_TOL = 1e-12
DET_TOL = 1e-10
# coefficients of smaller magnitude are not stored in a QuantumElement
DROP_TOL = 1e-300
# support rows of the left factor per cocycle batch of the twisted product:
# bounds its temporaries to a few (64, |cube|) complex arrays
PRODUCT_CHUNK = 64


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


def _integral(k: np.ndarray) -> np.ndarray:
    """Integer-valued k, rounded; ValueError unless |k - round(k)| <= INT_TOL
    everywhere.  Integer arrays are returned as they are."""
    if np.issubdtype(k.dtype, np.integer):
        return k
    rounded = np.round(k)
    if not np.all(np.abs(k - rounded) <= INT_TOL):
        raise ValueError("lattice index must be integral")
    return rounded


@dataclass(frozen=True, eq=False)
class EmbeddingMap:
    """Embedding matrix Phi of shape (2p+2q, 2p+q).

    Invariants checked at construction: the entries are finite, the q
    integer rows are integral to 1e-12, and the upper square block (first
    2p+q rows) is invertible, with |det| > 1e-10 after row-norm scaling.
    """

    p: int
    q: int
    phi: np.ndarray

    def __post_init__(self):
        p, q = self.p, self.q
        if p < 0 or q < 0 or p + q < 1:
            raise ValueError("need p >= 0, q >= 0 and p + q >= 1")
        phi = np.asarray(self.phi, dtype=float)
        if phi.shape != (2 * p + 2 * q, 2 * p + q):
            raise DimensionMismatch(
                f"phi must be {(2 * p + 2 * q, 2 * p + q)}, got {phi.shape}")
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi has entries beyond double range")
        int_rows = phi[2 * p:2 * p + q]
        if q and np.max(np.abs(int_rows - np.round(int_rows))) > INT_TOL:
            raise ValueError("integer-block rows of phi are not integral")
        object.__setattr__(self, "phi", _readonly(phi))
        xt = self.x_tilde
        norms = np.linalg.norm(xt, axis=1)
        if np.any(norms == 0.0) or abs(np.linalg.det(xt / norms[:, None])) <= DET_TOL:
            raise SingularEmbedding("upper square block of phi is numerically singular")

    @property
    def d(self) -> int:
        return 2 * self.p + self.q

    @property
    def x_tilde(self) -> np.ndarray:
        """The square (2p+q) x (2p+q) block whose inverse drives the connections."""
        return self.phi[: self.d]

    def point(self, index) -> "LatticePoint":
        """Map an integer vector to its lattice point with block decomposition."""
        k = np.asarray(index)
        if k.shape != (self.d,):
            raise DimensionMismatch(f"index must have length {self.d}, got {k.shape}")
        k = _integral(k).astype(int)
        return LatticePoint(_readonly(k),
                            *(_readonly(b[0]) for b in self.blocks(k[None])))

    def blocks(self, indices: np.ndarray):
        """Vectorized block decomposition for an (n, d) array of integer indices.

        Returns (w1, w2, m, r) with shapes (n, p), (n, p), (n, q), (n, q).
        Non-integral indices raise ValueError, as in point().  Phi k is
        formed by einsum, whose reduction for one row does not depend on
        the other rows (a BLAS matrix product picks its kernel by the
        batch size), over a C-ordered copy of the indices (an F-ordered
        operand, such as np.argwhere returns, takes another einsum loop
        with other last bits), so each row has the same bits in any batch
        and layout.
        """
        K = np.asarray(indices)
        if K.ndim != 2 or K.shape[1] != self.d:
            raise DimensionMismatch(f"indices must be (n, {self.d})")
        H = np.einsum("nd,md->nm", _integral(K).astype(float, order="C"),
                      self.phi)
        p, q = self.p, self.q
        m = np.round(H[:, 2 * p:2 * p + q]).astype(int)
        return H[:, :p], H[:, p:2 * p], m, H[:, 2 * p + q:]


@dataclass(frozen=True, eq=False)
class LatticePoint:
    """A point h = Phi k of the lattice, split into (w1, w2, m, r) blocks."""

    index: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    m: np.ndarray
    r: np.ndarray

    @property
    def p(self) -> int:
        return len(self.w1)

    @property
    def q(self) -> int:
        return len(self.m)


def canonical_embedding(p: int, q: int, theta=None, Q=None, Delta=None) -> EmbeddingMap:
    """Block-diagonal embedding diag(Theta, I_p, Q, Delta).

    Theta = diag(theta) and the identity fill the 2p continuous rows; the
    integer matrix Q and the real matrix Delta fill the 2q lattice/torus
    rows.  Raises ZeroTheta for a vanishing theta_j and SingularQ for
    det Q = 0.
    """
    theta = np.zeros(0) if theta is None else np.asarray(theta, dtype=float)
    if theta.shape != (p,):
        raise DimensionMismatch(f"theta must have length {p}")
    if p and np.any(theta == 0.0):
        raise ZeroTheta("every theta_j must be nonzero")
    if q:
        Q = np.asarray(Q, dtype=float)
        Delta = np.asarray(Delta, dtype=float)
        if Q.shape != (q, q) or Delta.shape != (q, q):
            raise DimensionMismatch(f"Q and Delta must be {q}x{q}")
        if np.max(np.abs(Q - np.round(Q))) > INT_TOL:
            raise ValueError("Q must be an integer matrix")
        if round(abs(np.linalg.det(Q))) < 1:
            raise SingularQ("Q must be invertible over the rationals")
    phi = np.zeros((2 * p + 2 * q, 2 * p + q))
    if p:
        phi[:p, :p] = np.diag(theta)
        phi[p:2 * p, p:2 * p] = np.eye(p)
    if q:
        phi[2 * p:2 * p + q, 2 * p:] = Q
        phi[2 * p + q:, 2 * p:] = Delta
    return EmbeddingMap(p=p, q=q, phi=phi)


def cocycle_exponent(x: LatticePoint, y: LatticePoint) -> float:
    """Antisymmetric pairing S(x, y) with alpha(x, y) = exp(i pi S(x, y));
    the one-row call of cocycle_exponent_arrays."""
    return float(cocycle_exponent_arrays((x.w1, x.w2, x.m, x.r),
                                         (y.w1, y.w2, y.m, y.r)))


def cocycle(x: LatticePoint, y: LatticePoint) -> complex:
    """Unit-modulus bicharacter alpha measuring operator non-commutativity.

    Fixed so that composing the Heisenberg operators of x and y equals
    alpha(x, y) times the operator of x + y; see apply_heisenberg.
    """
    return complex(cocycle_arrays((x.w1, x.w2, x.m, x.r), (y.w1, y.w2, y.m, y.r)))


def cocycle_exponent_arrays(xblocks, yblocks) -> np.ndarray:
    """Vectorized cocycle exponent over block tuples (w1, w2, m, r).

    Each block may be a single vector or an array with the components on
    its last axis; the leading axes of the two sides broadcast against
    each other, and blocks of different lengths raise DimensionMismatch.
    The components are summed by _component_dot, with the bits of np.sum
    over the last axis.
    """
    w1x, w2x, mx, rx = xblocks
    w1y, w2y, my, ry = yblocks
    return (_component_dot(w1x, w2y) + _component_dot(mx, ry)
            - _component_dot(w1y, w2x) - _component_dot(my, rx))


def cocycle_arrays(xblocks, yblocks) -> np.ndarray:
    """alpha = exp(i pi S) over the blocks of cocycle_exponent_arrays."""
    return np.exp(1j * np.pi * cocycle_exponent_arrays(xblocks, yblocks))


def _component_dot(x, y):
    """sum_j x[..., j] * y[..., j] over arrays with the components last
    (DimensionMismatch unless their lengths agree), with the bits, shape
    and dtype of np.sum(x * y, axis=-1), which adds fewer than 8 doubles
    (4 complex) one at a time from zero.  So no numpy reduction runs over
    a short last axis: on a 2-vCPU Xeon VM the cocycle exponents of a
    (64, 625) twisted-product block take 0.4 ms, not 3.9 ms (p=1, q=2)."""
    n = x.shape[-1]
    if n != y.shape[-1]:
        raise DimensionMismatch("blocks of different lengths")
    if not n:
        return np.zeros(np.broadcast(x, y).shape[:-1], np.result_type(x, y))
    terms = [x[..., j] * y[..., j] for j in range(n)]
    if n * terms[0].itemsize >= 64:
        return np.sum(np.stack(terms, axis=-1), axis=-1)
    return sum(terms, 0.0)


def induced_theta(emb: EmbeddingMap) -> np.ndarray:
    """Noncommutativity matrix of the generators: U_i U_j = e^{2 pi i t_ij} U_j U_i.

    Entry (i, j) is the cocycle exponent of the i-th and j-th embedding
    columns; built as an exact antisymmetrization A - A^T.
    """
    p, q = emb.p, emb.q
    W1 = emb.phi[:p]
    W2 = emb.phi[p:2 * p]
    M = emb.phi[2 * p:2 * p + q]
    R = emb.phi[2 * p + q:]
    A = W1.T @ W2 + M.T @ R
    return A - A.T


def ball(d: int, r: int) -> np.ndarray:
    """Integer vectors with |k|_inf <= r as an (n, d) int array, in
    lexicographic order (the order of itertools.product)."""
    axes = [np.arange(-r, r + 1)] * d
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)


def _cmul(a, b) -> np.ndarray:
    """Elementwise a * b with the rounding of Python's scalar complex
    product, which numpy's vectorized complex multiply does not keep."""
    out = np.asarray(a.real * b.real - a.imag * b.imag, dtype=complex)
    out.imag = a.real * b.imag + a.imag * b.real
    return out


@dataclass(frozen=True, eq=False)
class QuantumElement:
    """Finite twisted formal sum over the lattice, truncated to a sup-norm ball.

    The coefficients form one read-only complex cube `values` of odd side
    2 radius + 1 in d dimensions, indexed by k + radius; the radius is
    read off its shape.  Entries of magnitude below DROP_TOL are zeroed at
    construction, and the support is the set of nonzero entries, in
    lexicographic order.
    """

    embedding: EmbeddingMap
    values: np.ndarray

    def __post_init__(self):
        d = self.embedding.d
        values = np.array(self.values, dtype=complex)
        side = values.shape[0] if values.ndim else 0
        if values.shape != (side,) * d or side % 2 == 0:
            raise DimensionMismatch(f"values must be an odd-sided cube in {d} "
                                    f"dimensions, got shape {values.shape}")
        values[np.abs(values) < DROP_TOL] = 0
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_coeffs(cls, emb: EmbeddingMap, coeffs: dict,
                    radius: int) -> "QuantumElement":
        """Element with the {index: coefficient} map `coeffs` on the ball
        of the given radius."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        values = np.zeros((2 * radius + 1,) * emb.d, dtype=complex)
        for k, c in coeffs.items():
            key = tuple(int(x) for x in k)
            if len(key) != emb.d:
                raise DimensionMismatch(f"key {key} has wrong length (want {emb.d})")
            if max(abs(x) for x in key) > radius:
                raise ValueError(f"key {key} outside radius {radius}")
            values[tuple(x + radius for x in key)] = complex(c)
        return cls(embedding=emb, values=values)

    @classmethod
    def basis(cls, emb: EmbeddingMap, index, radius: int | None = None) -> "QuantumElement":
        """The basis element e(k) with unit coefficient at the given index."""
        key = tuple(int(x) for x in np.asarray(index))
        rad = max((abs(x) for x in key), default=0) if radius is None else radius
        return cls.from_coeffs(emb, {key: 1.0 + 0j}, rad)

    @classmethod
    def identity(cls, emb: EmbeddingMap) -> "QuantumElement":
        return cls.basis(emb, np.zeros(emb.d, dtype=int))

    @property
    def radius(self) -> int:
        return (self.values.shape[0] - 1) // 2

    @property
    def coeffs(self) -> dict:
        """The support as a new {index tuple: complex} dict, in
        lexicographic order."""
        R = self.radius
        return {tuple(x - R for x in k): complex(c)
                for k, c in np.ndenumerate(self.values) if c != 0}

    def coeff(self, key) -> complex:
        key = tuple(int(x) for x in key)
        if len(key) != self.embedding.d or max(abs(x) for x in key) > self.radius:
            return 0j
        return complex(self.values[tuple(x + self.radius for x in key)])

    def scaled(self, factor: complex) -> "QuantumElement":
        return QuantumElement(embedding=self.embedding,
                              values=_cmul(factor, self.values))

    def as_arrays(self):
        """Support as an (n, d) int array in lexicographic order plus the
        matching complex coefficients."""
        nonzero = self.values != 0
        return np.argwhere(nonzero) - self.radius, self.values[nonzero]

    def multiply(self, other: "QuantumElement") -> "QuantumElement":
        """Twisted product: e(k1) e(k2) = alpha(Phi k1, Phi k2) e(k1 + k2).

        Rows k1 of the support of `self` are taken in lexicographic order,
        PRODUCT_CHUNK at a time for one broadcast cocycle call, and each
        is paired with the whole cube of `other`: its terms c1 c2 alpha
        form a cube of side 2 other.radius + 1 that is added into the
        window of the result at k1.  Every coefficient thus sums at most
        one term per k1, in the order of the scalar double loop.  The zero
        entries of `other` add terms of +-0, which leave every sum's bits
        as they are (a finite x + (+-0) is x, and the sums, started at +0,
        are never -0); a non-finite coefficient, whose 0 * inf would spread
        NaN, raises NCThetaError.
        """
        if other.embedding is not self.embedding and not (
                self.embedding.p == other.embedding.p
                and self.embedding.q == other.embedding.q
                and np.array_equal(self.embedding.phi, other.embedding.phi)):
            raise DimensionMismatch("elements built over different embeddings")
        if not (np.all(np.isfinite(self.values))
                and np.all(np.isfinite(other.values))):
            raise NCThetaError("twisted product of an element with a "
                               "non-finite coefficient")
        emb = self.embedding
        K1, c1 = self.as_arrays()
        R1, R2 = self.radius, other.radius
        values = np.zeros((2 * (R1 + R2) + 1,) * emb.d, dtype=complex)
        blocks1 = emb.blocks(K1)
        blocks2 = emb.blocks(ball(emb.d, R2))
        c2 = other.values.reshape(-1)
        # windows[k1 + R1] is the block of the result that e(k1) `other` fills
        windows = np.lib.stride_tricks.sliding_window_view(
            values, other.values.shape, writeable=True)
        for start in range(0, len(K1), PRODUCT_CHUNK):
            rows = slice(start, start + PRODUCT_CHUNK)
            alpha = cocycle_arrays([b[rows, None] for b in blocks1], blocks2)
            terms = _cmul(_cmul(c1[rows, None], c2), alpha)
            for at, term in zip((K1[rows] + R1).tolist(),
                                terms.reshape((-1,) + other.values.shape)):
                windows[tuple(at)] += term
        return QuantumElement(embedding=emb, values=values)

    def to_dict(self) -> dict:
        """Serialization with keys sorted lexicographically.  The reports
        renderer writes a QuantumElement itself with the bytes it writes
        for this dict (see nctheta.reports)."""
        K, c = self.as_arrays()
        return {"radius": self.radius,
                "coeffs": [{"k": k, "re": z.real, "im": z.imag}
                           for k, z in zip(K.tolist(), c.tolist())]}

    @classmethod
    def from_dict(cls, emb: EmbeddingMap, data: dict) -> "QuantumElement":
        coeffs = {tuple(row["k"]): complex(row["re"], row["im"])
                  for row in data["coeffs"]}
        return cls.from_coeffs(emb, coeffs, int(data["radius"]))


def _has_bool(v) -> bool:
    if isinstance(v, list):
        return any(map(_has_bool, v))
    return isinstance(v, bool)


def embedding_from_config(cfg: dict) -> EmbeddingMap:
    """Build an embedding from its JSON form.

    Accepts either canonical parameters {"p", "q", "theta", "Q", "Delta"}
    or a raw matrix {"p", "q", "phi"}; p and q are always explicit.  JSON
    booleans, which Python reads as 0 and 1, raise TypeError in any of
    these fields.
    """
    if not isinstance(cfg, dict):
        raise TypeError("an embedding config must be a JSON object")
    flagged = [k for k in ("p", "q", "theta", "Q", "Delta", "phi")
               if _has_bool(cfg.get(k))]
    if flagged:
        raise TypeError(f"booleans are not numbers: {flagged}")
    if "phi" in cfg:
        phi = np.asarray(cfg["phi"], dtype=float)
        if "p" in cfg and "q" in cfg:
            p, q = int(cfg["p"]), int(cfg["q"])
        else:
            raise ValueError("raw phi configs must carry p and q")
        return EmbeddingMap(p=p, q=q, phi=phi)
    p, q = int(cfg["p"]), int(cfg["q"])
    return canonical_embedding(
        p, q,
        theta=cfg.get("theta") if p else None,
        Q=cfg.get("Q") if q else None,
        Delta=cfg.get("Delta") if q else None,
    )
