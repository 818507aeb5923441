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

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, GridTooLarge, LatticeOverflow,
                     NCThetaError, SingularEmbedding, SingularQ, ZeroTheta)

INT_TOL = 1e-12
DET_TOL = 1e-10
# coefficients of smaller magnitude are not stored in a QuantumElement
DROP_TOL = 1e-300
GRID_BUDGET = 10_000_000
# entries per batch array of the twisted product, the functional-equation
# engine and the report row writer; each reads it at call time (batch_rows)
BATCH_ENTRIES = 4096


def batch_rows(entries_per_row: int) -> int:
    """Rows per batch of a loop whose rows put entries_per_row entries each
    into its batch arrays: max(1, BATCH_ENTRIES // entries_per_row), so a
    batch holds at most BATCH_ENTRIES entries unless one row has more."""
    return max(1, BATCH_ENTRIES // max(entries_per_row, 1))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


def _indices(k, shape: tuple) -> np.ndarray:
    """The one rule for a lattice index, which every index entering the
    package passes: k as an int64 array of `shape` (-1: any length; an
    empty sequence is empty), else DimensionMismatch, also for ragged rows.
    ValueError unless every entry is a number, not a boolean, within INT_TOL
    of an integer below 2**53 in magnitude, so that Phi k in float64 is
    exact; integer arrays skip the rounding, bounded by one min/max pass."""
    bad = ValueError("lattice indices must be integers below 2**53 in magnitude")
    if _has_bool(k):
        raise bad
    try:
        k = np.asarray(k)
    except ValueError as exc:
        raise DimensionMismatch(f"ragged lattice indices for shape {shape}") from exc
    if k.shape == (0,) and len(shape) > 1:
        k = k.reshape([max(n, 0) for n in shape])
    if k.ndim != len(shape) or any(n not in (-1, m) for n, m in zip(shape, k.shape)):
        raise DimensionMismatch(f"lattice indices of shape {k.shape}, want {shape}")
    if k.dtype.kind == "O" and all(
            isinstance(x, (int, float, np.integer, np.floating))
            and not _has_bool(x) and abs(x) < 2**53 for x in k.flat):
        k = k.astype(float)  # an object array left as it is fails below
    if k.dtype.kind in "iu" and (not k.size or -2**53 < k.min() and k.max() < 2**53):
        return k.astype(np.int64, copy=False)
    if k.dtype.kind != "f" or not (np.all(np.abs(k) < 2**53) and
                                   np.all(np.abs(k - np.round(k)) <= INT_TOL)):
        raise bad
    return np.round(k).astype(np.int64)


@dataclass(frozen=True, eq=False)
class EmbeddingMap:
    """Embedding matrix Phi of shape (2p+2q, 2p+q), under the package's
    one rule for a usable Phi, checked at construction: the entries are
    finite, the q integer rows are integral to 1e-12, and the upper square
    block X (first 2p+q rows) is invertible, with |det X| > DET_TOL after
    row-norm scaling and x_inv = inv(X), kept for connection_matrix,
    within 1e-10 of the identity in x_inv @ X (SingularEmbedding if not).
    """

    p: int
    q: int
    phi: np.ndarray
    x_inv: np.ndarray = field(init=False, repr=False)

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
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(xt, axis=1)
        if not np.all(np.isfinite(norms)):
            raise LatticeOverflow(
                f"row {np.argmin(np.isfinite(norms))} of the upper square block "
                "of phi has a squared norm beyond double range")
        if np.any(norms == 0.0) or abs(np.linalg.det(xt / norms[:, None])) <= DET_TOL:
            raise SingularEmbedding("upper square block of phi is numerically singular")
        x_inv = np.linalg.inv(xt)
        if not np.max(np.abs(x_inv @ xt - np.eye(self.d))) <= 1e-10:
            raise SingularEmbedding("upper square block of phi is ill-conditioned")
        object.__setattr__(self, "x_inv", _readonly(x_inv))

    @property
    def d(self) -> int:
        return 2 * self.p + self.q

    @property
    def x_tilde(self) -> np.ndarray:
        """The square (2p+q) x (2p+q) block whose inverse drives the connections."""
        return self.phi[: self.d]

    def point(self, index) -> "LatticePoint":
        """Map an integer vector to its lattice point with block decomposition."""
        k = _readonly(_indices(index, (self.d,)))
        return LatticePoint(k, *(_readonly(b[0]) for b in self.blocks(k[None])))

    def blocks(self, indices: np.ndarray):
        """Vectorized block decomposition for an (n, d) array of integer indices.

        Returns (w1, w2, m, r) with shapes (n, p), (n, p), (n, q), (n, q).
        The indices pass the one index rule, _indices, as point's do.  Phi k
        is formed by einsum, whose reduction for one row does not depend on
        the other rows (a BLAS matrix product picks its kernel by the
        batch size), over a C-ordered copy of the indices (an F-ordered
        operand, such as np.argwhere returns, takes another einsum loop
        with other last bits), so each row has the same bits in any batch
        and layout.
        """
        K = _indices(indices, (-1, self.d)).astype(float, order="C")
        H = np.einsum("nd,md->nm", K, self.phi)
        p, q = self.p, self.q
        m = np.round(H[:, 2 * p:2 * p + q])
        wide = ~np.all(np.abs(m) < 2**63, axis=1)
        if wide.any():
            k = tuple(int(v) for v in K[np.argmax(wide)])
            raise LatticeOverflow(f"integer block Q k of lattice index {k} is "
                                  "beyond int64")
        return H[:, :p], H[:, p:2 * p], m.astype(int), H[:, 2 * p + q:]


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


def cocycle(x: LatticePoint, y: LatticePoint) -> complex:
    """Unit-modulus bicharacter alpha measuring operator non-commutativity.

    Fixed so that composing the Heisenberg operators of x and y equals
    alpha(x, y) times the operator of x + y; see apply_heisenberg.
    """
    return complex(cocycle_arrays((x.w1, x.w2, x.m, x.r), (y.w1, y.w2, y.m, y.r)))


def cocycle_exponent_arrays(xblocks, yblocks) -> np.ndarray:
    """Vectorized cocycle exponent over block tuples (w1, w2, m, r): the
    antisymmetric pairing S(x, y) with alpha(x, y) = exp(i pi S(x, y)).

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
    lexicographic order (the order of itertools.product), empty for r < 0;
    GridTooLarge when there are over GRID_BUDGET, TypeError for a non-int r."""
    if max(2 * operator.index(r) + 1, 0) ** d > GRID_BUDGET:
        raise GridTooLarge(f"ball of radius {r} in dimension {d} has over "
                           f"{GRID_BUDGET} points")
    axes = [np.arange(-r, r + 1)] * d
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)


_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_state(seed: int):
    """(state, increment) of numpy's PCG64(SeedSequence(seed)): the seed's
    32-bit words hashed into a pool of 4, generate_state(4, uint64), then
    PCG's srandom (two LCG steps around adding the initial state)."""
    n_words = max(1, -(-seed.bit_length() // 32))
    words = [seed >> 32 * i & _M32 for i in range(n_words)]
    h = 0x43B0D7E5

    def hashmix(value):
        nonlocal h
        value ^= h
        h = h * 0x931E8875 & _M32
        value = value * h & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h, state = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ h
        h = h * 0x58F38DED & _M32
        value = value * h & _M32
        state.append(value ^ value >> 16)
    s = [state[2 * i] | state[2 * i + 1] << 32 for i in range(4)]
    inc = (s[2] << 65 | s[3] << 1 | 1) & _M128
    return ((inc + (s[0] << 64 | s[1])) * _PCG_MULT + inc) & _M128, inc


def seeded_integers(seed: int, low: int, high: int, shape: tuple) -> np.ndarray:
    """An int64 array of `shape` with the bits of
    np.random.default_rng(seed).integers(low, high, size=shape) at numpy
    2.4.6, drawn without numpy.random: PCG64 XSL-RR outputs, split into
    32-bit words low half first, mapped into [low, high) by Lemire's
    method, whose rejected words (below 2**32 mod (high - low)) are
    skipped.  A run's seeded samples come from here, so the run does not
    import numpy.random (5.5 MB of RSS and 13-17 ms on a 2-vCPU Xeon),
    and its reports do not follow numpy's stream, which numpy does not
    promise to keep.  The domain is a nonnegative int seed of any size and 1 <= high - low
    <= 2**32 - 1 within int64; anything else raises ValueError."""
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
               for v in (seed, low, high)):
        raise ValueError("seed, low and high must be integers")
    seed, low, high = int(seed), int(low), int(high)
    if seed < 0 or not (1 <= high - low <= _M32 and -2**63 <= low
                        and high <= 2**63):
        raise ValueError("need seed >= 0 and 1 <= high - low <= 2**32 - 1 "
                         "within int64")
    count = math.prod(shape)
    span = high - low
    threshold = (1 << 32) % span
    state, inc = _pcg64_state(seed)
    drawn, n_drawn = [np.zeros(0, np.uint64)], 0
    while n_drawn < count:
        outputs = []
        for _ in range((count - n_drawn + 1) // 2):
            state = (state * _PCG_MULT + inc) & _M128
            x = (state >> 64 ^ state) & _M64
            r = state >> 122
            outputs.append((x >> r | x << (64 - r)) & _M64)
        m = np.array(outputs, dtype="<u8").view("<u4").astype(np.uint64) \
            * np.uint64(span)
        drawn.append(m[(m & np.uint64(_M32)) >= threshold] >> np.uint64(32))
        n_drawn += len(drawn[-1])
    return (np.concatenate(drawn)[:count].astype(np.int64) + low).reshape(shape)


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
        of the given radius; the keys and the radius pass _indices."""
        radius = _indices(radius, ()).item()
        if radius < 0:
            raise ValueError("radius must be >= 0")
        K = _indices(list(coeffs), (-1, emb.d))
        outside = K[np.max(np.abs(K), axis=1, initial=0) > radius].tolist()
        if outside:
            raise ValueError(f"key {tuple(outside[0])} outside radius {radius}")
        values = np.zeros((2 * radius + 1,) * emb.d, dtype=complex)
        values[tuple((K + radius).T)] = [complex(c) for c in coeffs.values()]
        return cls(embedding=emb, values=values)

    @classmethod
    def basis(cls, emb: EmbeddingMap, index) -> "QuantumElement":
        """The basis element e(k) with unit coefficient at the given index,
        on the smallest ball that holds it."""
        k = _indices(index, (emb.d,))
        return cls.from_coeffs(emb, {tuple(k.tolist()): 1.0 + 0j}, np.max(np.abs(k)))

    @property
    def radius(self) -> int:
        return (self.values.shape[0] - 1) // 2

    @property
    def coeffs(self) -> dict:
        """The support as a new {index tuple: complex} dict, in
        lexicographic order."""
        K, c = self.as_arrays()
        return dict(zip(map(tuple, K.tolist()), c.tolist()))

    def coeff(self, key) -> complex:
        k = _indices(key, (self.embedding.d,))
        inside = np.max(np.abs(k)) <= self.radius
        return complex(self.values[tuple(k + self.radius)]) if inside else 0j

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
        batch_rows(|cube of other|) at a time for one broadcast cocycle
        call, and each is paired with the whole cube of `other`: its terms
        c1 c2 alpha, a cube of side 2 other.radius + 1, are added into the
        window of the result at k1 by one unbuffered np.add.at per batch,
        which adds in index order, row after row.  Every coefficient thus
        sums at most one term per k1, in the order of the scalar double
        loop.  The zero entries of `other` add terms of +-0, which leave
        every sum's bits as they are (a finite x + (+-0) is x, and the
        sums, started at +0, are never -0); a non-finite coefficient, whose
        0 * inf would spread NaN, raises NCThetaError.  The two embeddings must have equal Phi,
        whose shape (2p+2q, 2p+q) fixes p and q.
        """
        if not np.array_equal(self.embedding.phi, other.embedding.phi):
            raise DimensionMismatch("elements built over different embeddings")
        if not (np.all(np.isfinite(self.values))
                and np.all(np.isfinite(other.values))):
            raise NCThetaError("twisted product of an element with a "
                               "non-finite coefficient")
        emb = self.embedding
        K1, c1 = self.as_arrays()
        R1, R2 = self.radius, other.radius
        values = np.zeros((2 * (R1 + R2) + 1,) * emb.d, dtype=complex)
        K2 = ball(emb.d, R2)
        blocks1, blocks2 = emb.blocks(K1), emb.blocks(K2)
        c2 = other.values.reshape(-1)
        # e(k1) e(k2) lands at flat position corner[k1] + offset[k2]
        corner, offset = (np.ravel_multi_index(tuple((K + R).T), values.shape)
                          for K, R in ((K1, R1), (K2, R2)))
        step = batch_rows(c2.size)
        for start in range(0, len(K1), step):
            rows = slice(start, start + step)
            alpha = cocycle_arrays([b[rows, None] for b in blocks1], blocks2)
            terms = _cmul(_cmul(c1[rows, None], c2), alpha)
            np.add.at(values.reshape(-1), (corner[rows, None] + offset).ravel(),
                      terms.ravel())
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
        rows = data["coeffs"]
        K = _indices([row["k"] for row in rows], (-1, emb.d)).tolist()
        coeffs = {tuple(k): complex(row["re"], row["im"]) for k, row in zip(K, rows)}
        return cls.from_coeffs(emb, coeffs, data["radius"])


def _has_bool(v) -> bool:
    if isinstance(v, (list, tuple)):
        return any(map(_has_bool, v))
    return isinstance(v, (bool, np.bool_))


def embedding_from_config(cfg: dict) -> EmbeddingMap:
    """Build an embedding from its JSON form.

    Accepts either canonical parameters {"p", "q", "theta", "Q", "Delta"}
    or a raw matrix {"p", "q", "phi"}; p and q are always explicit.  JSON
    booleans, which Python reads as 0 and 1, raise TypeError in any of
    these fields, and so do p and q unless they are ints (operator.index:
    numpy ints pass, floats and strings do not).
    """
    if not isinstance(cfg, dict):
        raise TypeError("an embedding config must be a JSON object")
    flagged = [k for k in ("p", "q", "theta", "Q", "Delta", "phi")
               if _has_bool(cfg.get(k))]
    if flagged:
        raise TypeError(f"booleans are not numbers: {flagged}")
    if "phi" in cfg and not ("p" in cfg and "q" in cfg):
        raise ValueError("raw phi configs must carry p and q")
    p, q = operator.index(cfg["p"]), operator.index(cfg["q"])
    if "phi" in cfg:
        return EmbeddingMap(p=p, q=q, phi=np.asarray(cfg["phi"], dtype=float))
    return canonical_embedding(
        p, q,
        theta=cfg.get("theta") if p else None,
        Q=cfg.get("Q") if q else None,
        Delta=cfg.get("Delta") if q else None,
    )
