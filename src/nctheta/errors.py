"""Exception hierarchy for the nctheta package."""


class NCThetaError(Exception):
    """Base class for all nctheta errors."""


class ZeroTheta(NCThetaError):
    """A deformation parameter theta_j is zero."""


class SingularQ(NCThetaError):
    """The integer lattice block Q is singular."""


class SingularEmbedding(NCThetaError):
    """The square part of the embedding matrix is (numerically) singular."""


class DimensionMismatch(NCThetaError):
    """Operands belong to incompatible dimensions or embeddings."""


class LatticeOverflow(NCThetaError):
    """A quantity of the embedding leaves the range it is computed in: a
    row norm of Phi beyond double range, or an integer block Q k of a
    lattice point beyond int64."""


class GridTooLarge(NCThetaError):
    """A requested sampling grid exceeds the point budget."""


class GridMismatch(NCThetaError):
    """Sampled vectors live on incompatible grids for the requested operation."""


class OddDimension(NCThetaError):
    """A full complex structure requires an even total dimension."""


class NoPartialStructure(NCThetaError):
    """The partial holomorphy equations have no Gaussian solution."""

    def __init__(self, condition: str, detail: str = ""):
        self.condition = condition
        super().__init__(f"partial structure failed: {condition}"
                         + (f" ({detail})" if detail else ""))


class NoFullStructure(NCThetaError):
    """A full structure on q = 0 fails a condition of its only candidate Omega."""


class BadTau(NCThetaError):
    """The theta series parameter tau is not in the upper half plane."""


class DivergentIntegral(NCThetaError):
    """The Gaussian integral does not converge (Re M not positive definite)."""


class DegenerateTranslation(NCThetaError):
    """A translation factor vanishes, making the quantum translation undefined."""

    def __init__(self, indices, message: str = "vanishing translation factor"):
        self.indices = [tuple(int(x) for x in idx) for idx in indices]
        super().__init__(f"{message} at lattice indices {self.indices}")


class ConfigError(NCThetaError):
    """A run configuration is malformed or inconsistent."""
