"""Every typed input guard of the library, by its type and message.

Each case calls one public (or module-level) entry point with the one
bad argument its guard rejects and checks the exact exception type and
text, so a guard that is dropped, loosened or renamed shows here.
"""

import numpy as np
import pytest

import nctheta as nc
from nctheta import heisenberg, holomorphy, manin, theta
from nctheta.errors import (DimensionMismatch, GridMismatch,
                            NoPartialStructure)

EMB_1_0 = nc.canonical_embedding(1, 0, theta=[0.5])
EMB_1_2 = nc.canonical_embedding(1, 2, theta=[0.5], Q=np.eye(2),
                                 Delta=np.diag([0.2, 0.7]))
EMB_0_1 = nc.canonical_embedding(0, 1, Q=[[1]], Delta=[[0.3]])
F_1_0 = nc.GaussianVector.pure([[1j]])
F_1_2 = nc.GaussianVector.pure([[2j]], 2)
F_0_1 = nc.GaussianVector.pure(np.zeros((0, 0)), 1)
CTX = theta.HermitianFormContext([[1j]])
FULL = holomorphy.ComplexStructure("full", [[1j]], [[1.0]])
PARTIAL = holomorphy.ComplexStructure.default_partial(1)


def _sampled(values):
    return heisenberg.SampledVector(p=1, q=0, grid_radius=1.0, grid_step=0.5,
                                    lattice_radius=1, values=values)


def _table_radius_mismatch():
    ctx = theta.HermitianFormContext([[2j]])
    element = nc.quantum_theta(EMB_1_2, F_1_2, 2)
    table = manin.BallTable.build(ctx, EMB_1_2, 3)
    manin.verify_functional_equations(ctx, EMB_1_2, element, [[0, 0, 0, 0]],
                                      nc.KIND_MODIFIED, table=table)


def _quadrature(f, h, step=0.5):
    fs = nc.sample_on_grid(f, 1.5, step, 1)
    return nc.inner_product_quadrature(fs, fs, h)


GUARDS = [
    # heisenberg
    ("check_omega_symmetric",
     lambda: heisenberg._check_omega([[1j, 0.5], [0.0, 1j]]),
     ValueError, "Omega must be symmetric"),
    ("apply_connection_index",
     lambda: nc.apply_connection(EMB_1_0, 2, F_1_0),
     DimensionMismatch, "connection index 2 out of range for d=2"),
    ("connection_combination_weights",
     lambda: nc.connection_combination(EMB_1_0, [1.0], F_1_0),
     DimensionMismatch, "weights must have length 2"),
    ("connection_combination_vector",
     lambda: nc.connection_combination(EMB_1_0, [1.0, 0.0], F_1_2),
     DimensionMismatch, "vector does not match embedding dimensions"),
    ("axis_points_step",
     lambda: heisenberg._axis_points(1.0, 0.3),
     ValueError, "step must divide 2L evenly"),
    ("sampled_vector_finite",
     lambda: _sampled([0.0, 1.0, np.nan, 1.0, 0.0]),
     ValueError, "sampled values must be finite"),
    ("sample_on_grid_positive",
     lambda: nc.sample_on_grid(F_1_0, 1.0, 0.0, 1),
     ValueError, "grid parameters must be positive"),
    # holomorphy
    ("structure_kind",
     lambda: holomorphy.ComplexStructure("half", [[1j]], [[1.0]]),
     ValueError, "kind must be 'full' or 'partial'"),
    ("structure_square",
     lambda: holomorphy.ComplexStructure("full", [[1j, 0.0]], [[1.0, 0.0]]),
     DimensionMismatch, "T1 and T2 must be square and equally sized"),
    ("structure_equal_sizes",
     lambda: holomorphy.ComplexStructure("full", [[1j]], np.eye(2)),
     DimensionMismatch, "T1 and T2 must be square and equally sized"),
    ("structure_two_dimensional",
     lambda: holomorphy.ComplexStructure("full", [1j], [1.0]),
     DimensionMismatch, "T1 and T2 must be square and equally sized"),
    ("classify_holomorphic_partial",
     lambda: nc.classify_holomorphic(EMB_1_0, PARTIAL),
     ValueError, "classification requires a full complex structure"),
    ("solve_partial_p0",
     lambda: nc.solve_partial(EMB_0_1, PARTIAL),
     NoPartialStructure, "partial structure failed: continuous part (needs p >= 1)"),
    ("solve_partial_full",
     lambda: nc.solve_partial(EMB_1_0, FULL),
     ValueError, "solve_partial requires a partial complex structure"),
    ("check_structure_blocks_finite",
     lambda: nc.solve_partial(EMB_1_0, holomorphy.ComplexStructure(
         "partial", [[np.nan]], [[1.0]])),
     ValueError, "partial structure blocks and their connection rows must be finite"),
    ("check_structure_rows_finite",
     lambda: nc.classify_holomorphic(EMB_1_0, holomorphy.ComplexStructure(
         "full", [[1e308j]], [[1.0]])),
     ValueError, "full structure blocks and their connection rows must be finite"),
    # lattice
    ("embedding_p_q",
     lambda: nc.EmbeddingMap(p=0, q=0, phi=np.zeros((0, 0))),
     ValueError, "need p >= 0, q >= 0 and p + q >= 1"),
    ("embedding_negative_p",
     lambda: nc.EmbeddingMap(p=-1, q=2, phi=np.eye(2)),
     ValueError, "need p >= 0, q >= 0 and p + q >= 1"),
    ("embedding_shape",
     lambda: nc.EmbeddingMap(p=1, q=1, phi=np.eye(3)),
     DimensionMismatch, "phi must be (4, 3), got (3, 3)"),
    ("canonical_theta_length",
     lambda: nc.canonical_embedding(1, 0, theta=[0.5, 0.25]),
     DimensionMismatch, "theta must have length 1"),
    ("canonical_q_shape",
     lambda: nc.canonical_embedding(0, 1, Q=np.eye(2), Delta=[[0.3]]),
     DimensionMismatch, "Q and Delta must be 1x1"),
    ("canonical_delta_shape",
     lambda: nc.canonical_embedding(0, 1, Q=[[1]], Delta=[0.3]),
     DimensionMismatch, "Q and Delta must be 1x1"),
    ("canonical_integer_q",
     lambda: nc.canonical_embedding(0, 1, Q=[[1.5]], Delta=[[0.3]]),
     ValueError, "Q must be an integer matrix"),
    ("from_coeffs_radius",
     lambda: nc.QuantumElement.from_coeffs(EMB_1_0, {(0, 0): 1.0}, -1),
     ValueError, "radius must be >= 0"),
    ("embedding_config_object",
     lambda: nc.embedding_from_config([1, 0]),
     TypeError, "an embedding config must be a JSON object"),
    # manin
    ("check_kind",
     lambda: manin.translate(CTX, EMB_1_0, EMB_1_0.point([1, 0]),
                             nc.QuantumElement.basis(EMB_1_0, [0, 0]), "twisted"),
     ValueError, "kind must be 'manin' or 'modified'"),
    ("translate_dimension",
     lambda: manin.translate(CTX, EMB_1_0, EMB_1_0.point([1, 0]),
                             nc.QuantumElement.basis(EMB_1_2, [0, 0, 0, 0]),
                             nc.KIND_MANIN),
     DimensionMismatch, "element does not match the embedding"),
    ("fe_table_radius", _table_radius_mismatch,
     ValueError, "coefficient table radius differs from the element's"),
    # theta
    ("inner_product_closed_spaces",
     lambda: nc.inner_product_closed(F_1_0, F_1_2, EMB_1_0.point([1, 0])),
     DimensionMismatch, "vectors live on different spaces"),
    ("inner_product_closed_point",
     lambda: nc.inner_product_closed(F_1_0, F_1_0, EMB_1_2.point([1, 0, 0, 0])),
     DimensionMismatch, "lattice point does not match the vectors"),
    ("quadrature_dimensions",
     lambda: _quadrature(F_1_0, EMB_1_2.point([1, 0, 0, 0])),
     GridMismatch, "incompatible dimensions"),
    ("quadrature_shift_on_step",
     lambda: _quadrature(F_1_0, EMB_1_0.point([1, 0]), step=0.3),
     GridMismatch, "shift 0.5 is not a multiple of the step"),
    ("quadrature_lattice_range",
     lambda: _quadrature(F_0_1, EMB_0_1.point([2])),
     GridMismatch, "g lattice range does not cover the shifted range"),
    ("quantum_theta_radius",
     lambda: nc.quantum_theta(EMB_1_0, F_1_0, 0),
     ValueError, "truncation radius must be >= 1"),
    ("quantum_theta_vector",
     lambda: nc.quantum_theta(EMB_1_2, F_1_0, 1),
     DimensionMismatch, "vector does not match the embedding"),
]


@pytest.mark.parametrize("call, error, message",
                         [case[1:] for case in GUARDS],
                         ids=[case[0] for case in GUARDS])
def test_guard_raises_its_typed_error(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_every_error_type_is_exported():
    errors = [obj for obj in vars(nc.errors).values()
              if isinstance(obj, type) and issubclass(obj, nc.NCThetaError)]
    assert nc.NCThetaError in errors and len(errors) > 1
    for error in errors:
        assert getattr(nc, error.__name__) is error
        assert error.__name__ in nc.__all__
