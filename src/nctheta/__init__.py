"""Numerical Heisenberg modules and quantum theta functions on
noncommutative tori built from general lattice embeddings."""

from .errors import (BadTau, ConfigError, DegenerateTranslation,
                     DimensionMismatch, DivergentIntegral, GridMismatch,
                     GridTooLarge, NCThetaError, NoPartialStructure,
                     OddDimension, SingularEmbedding, SingularQ, ZeroTheta)
from .heisenberg import (GaussianVector, LinearGaussian, SampledVector,
                         apply_connection, apply_generator, apply_heisenberg,
                         connection_combination, connection_matrix,
                         heisenberg_on_linear, sample_on_grid)
from .holomorphy import (ComplexStructure, HolomorphyResult,
                         antiholomorphic_residual, build_theta_vector,
                         classify_holomorphic, solve_partial,
                         verify_nonexistence_by_search)
from .lattice import (EmbeddingMap, LatticePoint, QuantumElement,
                      canonical_embedding, cocycle, cocycle_exponent,
                      embedding_from_config, induced_theta)
from .manin import (KIND_MANIN, KIND_MODIFIED, TranslationFactor,
                    additivity_probe, degeneracy_scan, translate,
                    translation_factor, verify_cocycle_consistency,
                    verify_functional_equation, verify_functional_equations)
from .theta import (HermitianFormContext, b_factor, classical_theta,
                    decay_certificate, gaussian_integral, hermitian_form,
                    inner_product_closed, inner_product_quadrature,
                    quantum_theta, theta_coefficients)

__version__ = "0.1.0"

__all__ = [
    "BadTau", "ComplexStructure", "ConfigError", "DegenerateTranslation",
    "DimensionMismatch", "DivergentIntegral", "EmbeddingMap", "GaussianVector",
    "GridMismatch", "GridTooLarge", "HermitianFormContext", "HolomorphyResult",
    "KIND_MANIN", "KIND_MODIFIED", "LatticePoint", "LinearGaussian",
    "NCThetaError", "NoPartialStructure", "OddDimension", "QuantumElement",
    "SampledVector", "SingularEmbedding", "SingularQ", "TranslationFactor",
    "ZeroTheta", "additivity_probe", "antiholomorphic_residual",
    "apply_connection", "apply_generator", "apply_heisenberg", "b_factor",
    "build_theta_vector", "canonical_embedding", "classical_theta",
    "classify_holomorphic", "cocycle", "cocycle_exponent",
    "connection_combination", "connection_matrix", "decay_certificate",
    "degeneracy_scan", "embedding_from_config", "gaussian_integral",
    "heisenberg_on_linear", "hermitian_form", "induced_theta",
    "inner_product_closed", "inner_product_quadrature", "quantum_theta",
    "sample_on_grid", "solve_partial",
    "theta_coefficients", "translate", "translation_factor",
    "verify_cocycle_consistency", "verify_functional_equation",
    "verify_functional_equations",
]
