"""Module vectors and the operator calculus acting on them.

The ambient space is S(R^p x Z^q).  The closed Gaussian family

    f(s, n) = c0 * exp(i pi s^T Omega s + 2 pi i ell.s)
                 * exp(-(pi/2) |n - n0|^2 + 2 pi i mu.n)

is stable under the Heisenberg operators of lattice points, so every
operation here returns another family member (possibly with a degree-one
polynomial prefactor, for connections).  SampledVector holds plain grid
evaluations and serves as the brute-force oracle representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GridTooLarge, NCThetaError
from .lattice import (GRID_BUDGET, EmbeddingMap, LatticePoint, _integral,
                      _readonly)

SYM_TOL = 1e-12
POSITIVITY_TOL = 1e-12


def _check_omega(omega):
    """The package's one rule for a usable Omega: (Omega, inv(Im Omega)),
    Omega as a complex (p, p) array, p the last axis of np.atleast_2d.
    ValueError unless Omega is symmetric to SYM_TOL and the smallest
    eigenvalue of Im Omega exceeds POSITIVITY_TOL; NCThetaError when Im
    Omega is too ill-conditioned to invert (residual above 1e-10)."""
    p = np.atleast_2d(omega).shape[-1]
    omega = np.asarray(omega, dtype=complex).reshape(p, p)
    if not p:
        return omega, np.zeros((0, 0))
    if not np.max(np.abs(omega - omega.T)) <= SYM_TOL:
        raise ValueError("Omega must be symmetric")
    if not np.min(np.linalg.eigvalsh(omega.imag)) > POSITIVITY_TOL:
        raise ValueError("Im Omega must be positive definite")
    im_inv = np.linalg.inv(omega.imag)
    if not np.max(np.abs(im_inv @ omega.imag - np.eye(p))) <= 1e-10:
        raise NCThetaError("Im Omega is too ill-conditioned to invert")
    return omega, im_inv


@dataclass(frozen=True, eq=False)
class GaussianVector:
    """Member of the closed Gaussian family on R^p x Z^q.

    Omega passes _check_omega; ell is a linear phase over the continuous
    variables, n0 an integer lattice center and mu a (complex) linear
    phase over the lattice variables.  c0 collects all constant factors.
    """

    p: int
    q: int
    omega: np.ndarray
    ell: np.ndarray
    c0: complex
    n0: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        omega, _ = _check_omega(np.reshape(self.omega, (self.p, self.p)))
        ell = np.asarray(self.ell, dtype=complex).reshape(self.p)
        n0 = _integral(np.asarray(self.n0).reshape(self.q)).astype(int)
        mu = np.asarray(self.mu, dtype=complex).reshape(self.q)
        object.__setattr__(self, "omega", _readonly(omega))
        object.__setattr__(self, "ell", _readonly(ell))
        object.__setattr__(self, "c0", complex(self.c0))
        object.__setattr__(self, "n0", _readonly(n0))
        object.__setattr__(self, "mu", _readonly(mu))

    @classmethod
    def pure(cls, omega, q: int = 0) -> "GaussianVector":
        """The centered member exp(i pi s^T Omega s - (pi/2)|n|^2)."""
        p = np.atleast_2d(omega).shape[-1]
        return cls(p=p, q=q, omega=omega, ell=np.zeros(p), c0=1.0 + 0j,
                   n0=np.zeros(q, dtype=int), mu=np.zeros(q))

    def evaluate(self, s, n):
        """Value at s in R^p, n in Z^q: a complex for one point, an array
        over the leading axes for s of shape (..., p) and n of shape (..., q)."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        n = np.atleast_1d(np.asarray(n, dtype=float))
        dn = n - self.n0
        expo = (1j * np.pi * np.sum((s @ self.omega) * s, axis=-1)
                + s @ (2j * np.pi * self.ell) - np.pi / 2 * np.sum(dn * dn, axis=-1)
                + n @ (2j * np.pi * self.mu))
        values = self.c0 * np.exp(expo)
        return complex(values) if values.ndim == 0 else values


def apply_heisenberg(h: LatticePoint, f: GaussianVector) -> GaussianVector:
    """Heisenberg (phase-space translation) operator of h acting on f.

    Pointwise this is

        (pi_h f)(s, n) = exp(2 pi i (w2.s + r.n) + i pi (w1.w2 + m.r))
                         * f(s + w1, n + m),

    which stays inside the family: Omega is unchanged, ell picks up
    Omega w1 + w2, the lattice center shifts to n0 - m, mu picks up r,
    and all constant factors flow into c0.
    """
    if h.p != f.p or h.q != f.q:
        raise DimensionMismatch("lattice point and vector dimensions differ")
    half = h.w1 @ h.w2 + h.m @ h.r
    const = np.exp(
        1j * np.pi * (h.w1 @ f.omega @ h.w1 + half)
        + 2j * np.pi * (f.ell @ h.w1 + f.mu @ h.m))
    return GaussianVector(
        p=f.p, q=f.q, omega=f.omega,
        ell=f.ell + f.omega @ h.w1 + h.w2,
        c0=f.c0 * complex(const),
        n0=f.n0 - h.m,
        mu=f.mu + h.r)


def apply_generator(emb: EmbeddingMap, j: int, f: GaussianVector) -> GaussianVector:
    """Action of the j-th algebra generator (0-based), i.e. the Heisenberg
    operator of the j-th embedding column."""
    if not 0 <= j < emb.d:
        raise DimensionMismatch(f"generator index {j} out of range for d={emb.d}")
    e = np.zeros(emb.d, dtype=int)
    e[j] = 1
    return apply_heisenberg(emb.point(e), f)


def connection_matrix(emb: EmbeddingMap) -> np.ndarray:
    """Inverse of the upper square block of Phi, which EmbeddingMap checked
    and kept; the rows drive the connections."""
    return emb.x_inv


@dataclass(frozen=True, eq=False)
class LinearGaussian:
    """A Gaussian family member times a degree-one polynomial prefactor:

        (coef_s . s + coef_n . n + const) * base(s, n).
    """

    coef_s: np.ndarray
    coef_n: np.ndarray
    const: complex
    base: GaussianVector

    def evaluate(self, s, n) -> complex:
        s = np.asarray(s, dtype=float).reshape(self.base.p)
        n = np.asarray(n, dtype=float).reshape(self.base.q)
        poly = self.coef_s @ s + self.coef_n @ n + self.const
        return complex(poly * self.base.evaluate(s, n))


def apply_connection(emb: EmbeddingMap, j: int, f: GaussianVector) -> LinearGaussian:
    """The j-th connection (0-based) acting on f; connection_combination
    with the j-th unit weights.

    With B the inverse square block, row j acts as
    -2 pi i (sum_k B[j,k] s_k + sum_l B[j,2p+l] n_l) plus the derivative
    part sum_k B[j,p+k] d/ds_k; on the Gaussian family the derivative
    contributes the linear prefactor 2 pi i ((Omega s)_k + ell_k).
    """
    if not 0 <= j < emb.d:
        raise DimensionMismatch(f"connection index {j} out of range for d={emb.d}")
    return connection_combination(emb, np.eye(emb.d)[j], f)


def connection_combination(emb: EmbeddingMap, weights, f: GaussianVector) -> LinearGaussian:
    """Complex combination sum_j weights[j] * (connection_j f) in closed form."""
    w = np.asarray(weights, dtype=complex)
    if w.shape != (emb.d,):
        raise DimensionMismatch(f"weights must have length {emb.d}")
    if f.p != emb.p or f.q != emb.q:
        raise DimensionMismatch("vector does not match embedding dimensions")
    brow = w @ connection_matrix(emb)
    p = emb.p
    two_pi_i = 2j * np.pi
    coef_s = -two_pi_i * brow[:p] + two_pi_i * (brow[p:2 * p] @ f.omega)
    coef_n = -two_pi_i * brow[2 * p:]
    const = two_pi_i * (brow[p:2 * p] @ f.ell)
    return LinearGaussian(coef_s=coef_s, coef_n=coef_n, const=complex(const), base=f)


def heisenberg_on_linear(h: LatticePoint, lg: LinearGaussian) -> LinearGaussian:
    """Heisenberg operator applied to a polynomial-prefactor vector.

    The operator shifts the polynomial argument: P(s, n) becomes
    P(s + w1, n + m) while the base transforms as usual.
    """
    base = apply_heisenberg(h, lg.base)
    const = lg.const + lg.coef_s @ h.w1 + lg.coef_n @ h.m
    return LinearGaussian(coef_s=lg.coef_s, coef_n=lg.coef_n,
                          const=complex(const), base=base)


def _axis_points(grid_radius: float, step: float) -> int:
    """Point count of the axis -L, -L+step, ..., L; ValueError unless the
    step divides 2L."""
    ratio = 2.0 * grid_radius / step
    if abs(ratio - round(ratio)) > 1e-9:
        raise ValueError("step must divide 2L evenly")
    return int(round(ratio)) + 1


@dataclass(frozen=True, eq=False)
class SampledVector:
    """Dense evaluation on {-L, -L+step, ..., L}^p x {-N, ..., N}^q."""

    p: int
    q: int
    grid_radius: float
    grid_step: float
    lattice_radius: int
    values: np.ndarray

    def __post_init__(self):
        _axis_points(self.grid_radius, self.grid_step)
        values = np.asarray(self.values, dtype=complex)
        if not np.all(np.isfinite(values.real)) or not np.all(np.isfinite(values.imag)):
            raise ValueError("sampled values must be finite")
        object.__setattr__(self, "values", _readonly(values))

    @property
    def s_axis(self) -> np.ndarray:
        npts = _axis_points(self.grid_radius, self.grid_step)
        return -self.grid_radius + self.grid_step * np.arange(npts)

    @property
    def n_axis(self) -> np.ndarray:
        return np.arange(-self.lattice_radius, self.lattice_radius + 1)


def sample_on_grid(f: GaussianVector, grid_radius: float, step: float,
                   lattice_radius: int) -> SampledVector:
    """Evaluate a Gaussian family member on a regular grid.

    Raises GridTooLarge when the total point count exceeds GRID_BUDGET.
    """
    if grid_radius <= 0 or step <= 0 or lattice_radius <= 0:
        raise ValueError("grid parameters must be positive")
    ns = _axis_points(grid_radius, step)
    nn = 2 * lattice_radius + 1
    total = (ns ** f.p) * (nn ** f.q)
    if total > GRID_BUDGET:
        raise GridTooLarge(f"grid with {total} points exceeds budget {GRID_BUDGET}")
    s_ax = -grid_radius + step * np.arange(ns)
    n_ax = np.arange(-lattice_radius, lattice_radius + 1)
    axes = [s_ax] * f.p + [n_ax] * f.q
    grid = np.moveaxis(np.array(np.meshgrid(*axes, indexing="ij")), 0, -1)
    values = f.evaluate(grid[..., :f.p], grid[..., f.p:])
    return SampledVector(p=f.p, q=f.q, grid_radius=grid_radius, grid_step=step,
                         lattice_radius=lattice_radius, values=values)
