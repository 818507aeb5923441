import numpy as np
import pytest

import nctheta as nc
from nctheta import holomorphy
from nctheta.errors import NoFullStructure, NoPartialStructure, OddDimension
from nctheta.holomorphy import ComplexStructure, solve_partial


def full_structure(t1, t2):
    return ComplexStructure("full", np.atleast_2d(t1), np.atleast_2d(t2))


def test_unique_solution_scalar():
    emb = nc.canonical_embedding(1, 0, theta=[2.0])
    res = nc.classify_holomorphic(emb, full_structure(1j, 1.0))
    assert res.variant == "unique"
    assert res.omega[0, 0] == pytest.approx(0.5j)
    assert res.witness["min_im_eig"] == pytest.approx(0.5)
    assert res.witness["substitution_residual"] < 1e-9


def test_unique_solution_reproduces_t_theta_inverse():
    # canonical structure (T, I): Omega = T Theta^{-1}
    theta = [0.5, 0.25]
    emb = nc.canonical_embedding(2, 0, theta=theta)
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        s = (s + s.T) / 2
        s = s + 1j * (2.5 - np.min(np.linalg.eigvalsh(s.imag))) * np.eye(2)
        t = s @ np.diag(theta)
        res = nc.classify_holomorphic(emb, full_structure(t, np.eye(2)))
        assert res.variant == "unique"
        np.testing.assert_allclose(res.omega, t @ np.diag(1.0 / np.array(theta)),
                                   atol=1e-9)
        np.testing.assert_allclose(res.omega, s, atol=1e-9)
        assert res.witness["substitution_residual"] < 1e-9


def test_failed_conditions_reported():
    emb = nc.canonical_embedding(1, 0, theta=[2.0])
    # negative imaginary part: positivity fails
    res = nc.classify_holomorphic(emb, full_structure(-1j, 1.0))
    assert res.variant == "nonexistent"
    assert res.witness["failed_condition"] == "positivity"
    # vanishing combination: invertibility fails
    res = nc.classify_holomorphic(emb, full_structure(1.0, 0.0))
    # C = T1 B12 + T2 B22 = 0 for the canonical diagonal embedding
    assert res.variant == "nonexistent"
    assert res.witness["failed_condition"] == "invertibility"
    # p = 2 with an asymmetric target: symmetry fails
    emb2 = nc.canonical_embedding(2, 0, theta=[0.5, 0.25])
    t = np.array([[1j, 0.3], [0.0, 1j]])
    res = nc.classify_holomorphic(emb2, full_structure(t, np.eye(2)))
    assert res.variant == "nonexistent"
    assert res.witness["failed_condition"] == "symmetry"


def test_mixed_embedding_never_solvable(inst_1_2):
    emb, _ = inst_1_2
    rng = np.random.default_rng(1)
    for _ in range(100):
        t1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        t2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        res = nc.classify_holomorphic(emb, full_structure(t1, t2))
        assert res.variant == "nonexistent"
        assert res.witness["left_rank"] <= 1
        assert res.witness["required_rank"] == 2
        assert res.witness["left_rank"] < res.witness["required_rank"]


def test_lattice_embedding_delta_only(inst_0_2):
    emb, _ = inst_0_2
    rng = np.random.default_rng(2)
    for _ in range(100):
        t1 = rng.normal(size=(1, 1)) + 1j * rng.normal(size=(1, 1))
        t2 = rng.normal(size=(1, 1)) + 1j * rng.normal(size=(1, 1))
        res = nc.classify_holomorphic(emb, full_structure(t1, t2))
        assert res.variant == "delta_only"
        assert "note" in res.witness


def test_odd_dimension_rejected(inst_general):
    emb = inst_general  # d = 3
    with pytest.raises(OddDimension):
        nc.classify_holomorphic(emb, full_structure(1j, 1.0))


def test_classifier_determinism(inst_1_2):
    emb, _ = inst_1_2
    cs = full_structure(np.array([[1j, 0.2], [0.1, 0.9j]]),
                        np.array([[1.0, 0.0], [0.3, 1.0]]))
    a = nc.classify_holomorphic(emb, cs).to_dict()
    b = nc.classify_holomorphic(emb, cs).to_dict()
    assert a == b


def test_nonexistence_search_rank_certificates(inst_1_2):
    emb, _ = inst_1_2
    report = nc.verify_nonexistence_by_search(
        emb, full_structure(np.diag([1j, 1j]), np.eye(2)), trials=100, seed=5)
    assert report["certified"]
    assert report["max_left_rank"] <= 1
    assert report["required_rank"] == 2
    assert all(r <= 1 for r in report["left_ranks"])


def test_nonexistence_search_p2q2():
    emb = nc.canonical_embedding(2, 2, theta=[0.5, 0.25], Q=np.eye(2),
                                 Delta=np.diag([0.2, 0.7]))
    report = nc.verify_nonexistence_by_search(
        emb, full_structure(1j * np.eye(3), np.eye(3)), trials=20, seed=7)
    assert report["max_left_rank"] <= 2
    assert report["required_rank"] == 3
    assert report["certified"]


def test_nonexistence_search_without_continuous_part():
    # p = 0: no symmetric basis, so the Omega fit has no unknowns (its
    # residual is max |A|, 0 for an empty A) and only G is fitted
    emb = nc.canonical_embedding(0, 2, Q=np.eye(2), Delta=np.diag([0.2, 0.7]))
    report = nc.verify_nonexistence_by_search(
        emb, full_structure(1j, 1.0), trials=3, seed=3)
    assert report["certified"]
    assert report["trials"] == 4 and report["left_ranks"] == [0] * 4
    assert report["required_rank"] == 1


def test_nonexistence_search_solvable_control():
    emb = nc.canonical_embedding(1, 0, theta=[0.5])
    report = nc.verify_nonexistence_by_search(
        emb, full_structure(1j, 1.0), trials=20, seed=9)
    assert report["min_residual"] < 1e-10


def test_build_theta_vector_canonical(inst_1_2):
    emb, _ = inst_1_2
    cs = ComplexStructure.default_partial(1)
    vec = nc.build_theta_vector(emb, cs)
    assert vec.omega[0, 0] == pytest.approx(2j)
    assert vec.c0 == 1.0 and np.all(vec.n0 == 0)
    rng = np.random.default_rng(3)
    pts = [(rng.normal(size=1), rng.integers(-3, 4, 2)) for _ in range(20)]
    assert nc.antiholomorphic_residual(emb, cs, vec, pts) < 1e-9


def test_build_theta_vector_scaling_still_annihilated(inst_1_2):
    emb, _ = inst_1_2
    cs = ComplexStructure.default_partial(1)
    vec = nc.build_theta_vector(emb, cs)
    doubled = nc.GaussianVector(p=vec.p, q=vec.q, omega=vec.omega, ell=vec.ell,
                                c0=2.0 * vec.c0, n0=vec.n0, mu=vec.mu)
    pts = [(np.array([0.3]), np.array([1, -1]))]
    assert nc.antiholomorphic_residual(emb, cs, doubled, pts) < 1e-9


def test_build_theta_vector_q0_matches_classifier(inst_2_0):
    emb, omega = inst_2_0
    theta = np.array([0.5, 0.25])
    t = omega @ np.diag(theta)
    res = nc.classify_holomorphic(emb, full_structure(t, np.eye(2)))
    vec = nc.build_theta_vector(emb, ComplexStructure("partial", t, np.eye(2)))
    np.testing.assert_allclose(vec.omega, res.omega, atol=1e-12)


def test_build_theta_vector_general_embedding(inst_general):
    emb = inst_general
    cs = ComplexStructure.default_partial(1)
    vec = nc.build_theta_vector(emb, cs)
    assert np.min(np.linalg.eigvalsh(vec.omega.imag)) > 0
    rng = np.random.default_rng(4)
    pts = [(rng.normal(size=1), rng.integers(-3, 4, 1)) for _ in range(20)]
    assert nc.antiholomorphic_residual(emb, cs, vec, pts) < 1e-9


def test_partial_failure_conditions():
    emb = nc.canonical_embedding(1, 0, theta=[2.0])
    with pytest.raises(NoPartialStructure) as exc:
        nc.build_theta_vector(emb, ComplexStructure("partial", [[-1j]], [[1.0]]))
    assert exc.value.condition == "positivity"
    with pytest.raises(NoPartialStructure) as exc:
        nc.build_theta_vector(emb, ComplexStructure("partial", [[1.0]], [[0.0]]))
    assert exc.value.condition == "invertibility"


def test_partial_lattice_coupling_rejected():
    # An embedding whose inverse square block couples the continuous
    # connections to the lattice variables: the Gaussian family contains
    # no annihilated vector.
    phi = np.array([
        [0.4, 0.1, 0.2],
        [0.3, 1.0, -0.2],
        [1.0, 0.0, 2.0],
        [0.05, 0.1, 0.1],
    ])
    emb = nc.EmbeddingMap(p=1, q=1, phi=phi)
    with pytest.raises(NoPartialStructure) as exc:
        nc.build_theta_vector(emb, ComplexStructure.default_partial(1))
    assert exc.value.condition == "lattice coupling"


def test_substitution_identity_partial(inst_general):
    emb = inst_general
    witness = solve_partial(emb, ComplexStructure.default_partial(1)).witness
    assert witness["substitution_residual"] < 1e-9
    assert witness["g_max_abs"] < 1e-9


def test_result_serialization(inst_1_2):
    emb, _ = inst_1_2
    res = nc.classify_holomorphic(emb, full_structure(np.diag([1j, 1j]),
                                                      np.eye(2)))
    data = res.to_dict()
    assert data["variant"] == "nonexistent"
    assert data["witness"]["left_rank"] < data["witness"]["required_rank"]


def vector_bits(vec):
    """Every field of a GaussianVector, arrays as bytes: equal means
    bit-equal."""
    return (vec.p, vec.q, vec.c0, *(a.tobytes() for a in
                                    (vec.omega, vec.ell, vec.n0, vec.mu)))


def _same_with_solved(emb, cs):
    """build_theta_vector's vector, checked to have the same bits when
    the caller passes the classification it holds."""
    vec = nc.build_theta_vector(emb, cs)
    solved = holomorphy.classify(emb, cs)
    assert vector_bits(nc.build_theta_vector(emb, cs, solved)) == vector_bits(vec)
    return vec


@pytest.mark.parametrize("cs", [None, full_structure(1j, 1.0)],
                         ids=["none", "full"])
def test_theta_vector_p0_is_the_lattice_gaussian(inst_0_2, cs):
    emb, _ = inst_0_2
    vec = _same_with_solved(emb, cs)
    assert vector_bits(vec) == vector_bits(nc.GaussianVector.pure(np.zeros((0, 0)), 2))
    assert vec.evaluate(np.zeros(0), [1, -1]) == pytest.approx(np.exp(-np.pi))


def test_theta_vector_full_q0_is_the_classified_omega(inst_2_0):
    emb, omega = inst_2_0
    cs = full_structure(omega @ np.diag([0.5, 0.25]), np.eye(2))
    res = nc.classify_holomorphic(emb, cs)
    assert res.variant == "unique"
    vec = _same_with_solved(emb, cs)
    assert vector_bits(vec) == vector_bits(nc.GaussianVector.pure(res.omega))
    assert vec.omega.tobytes() == res.omega.tobytes()


def test_theta_vector_failing_full_q0_names_its_condition():
    emb = nc.canonical_embedding(1, 0, theta=[2.0])
    cs = full_structure(-1j, 1.0)
    assert nc.classify_holomorphic(emb, cs).witness["failed_condition"] == \
        "positivity"
    message = ("full structure failed: positivity (supplied structure "
               "admits no holomorphic vector)")
    for solved in (None, holomorphy.classify(emb, cs)):
        with pytest.raises(NoFullStructure) as exc:
            nc.build_theta_vector(emb, cs, solved)
        assert str(exc.value) == message


def test_theta_vector_full_mixed_is_the_default_partial_one(inst_1_2):
    emb, omega = inst_1_2
    cs = full_structure(np.diag([1j, 1j]), np.eye(2))
    assert holomorphy.classify(emb, cs).variant == "nonexistent"
    vec = _same_with_solved(emb, cs)
    default = nc.build_theta_vector(emb, ComplexStructure.default_partial(1))
    assert vector_bits(vec) == vector_bits(default)
    np.testing.assert_allclose(vec.omega, omega, atol=1e-12)


def test_theta_vector_partial_with_solved_matches(inst_general):
    _same_with_solved(inst_general, ComplexStructure.default_partial(1))


def test_theta_vector_reraises_a_held_no_partial_structure():
    emb = nc.canonical_embedding(1, 0, theta=[2.0])
    cs = ComplexStructure("partial", [[-1j]], [[1.0]])
    solved = holomorphy.classify(emb, cs)
    assert isinstance(solved, NoPartialStructure)
    assert solved.condition == "positivity"
    with pytest.raises(NoPartialStructure) as exc:
        nc.build_theta_vector(emb, cs, solved)
    assert exc.value is solved


def _embedding(p, q):
    return nc.canonical_embedding(p, q, theta=[0.5, 0.25, 0.2][:p],
                                  Q=np.eye(q), Delta=0.3 * np.eye(q))


@pytest.mark.parametrize("p, q, kind, n", [
    (1, 1, "partial", 1), (2, 1, "partial", 2), (1, 2, "partial", 1),
    (1, 0, "full", 1), (2, 0, "full", 2), (0, 2, "full", 1), (0, 4, "full", 2),
    (0, 1, None, 0), (0, 3, None, 0)])
def test_default_structure(p, q, kind, n):
    # partial when p and q are both >= 1, else the diagonal full (i I, I)
    # of size d/2, and none for odd d
    cs = holomorphy.default_structure(_embedding(p, q))
    if kind is None:
        assert cs is None
        return
    assert cs.kind == kind
    assert cs.t1.tobytes() == (1j * np.eye(n)).astype(complex).tobytes()
    assert cs.t2.tobytes() == np.eye(n).astype(complex).tobytes()


def test_classify_without_a_structure_on_odd_d_is_skipped():
    result = holomorphy.classify(_embedding(0, 1))
    assert (result.variant, result.omega, result.g_matrix) == ("skipped", None, None)
    assert result.to_dict() == {
        "variant": "skipped",
        "witness": {"note": "odd dimension admits no full structure"}}


@pytest.mark.parametrize("p, q", [(1, 0), (1, 1), (2, 0), (1, 2), (0, 2)])
def test_classify_without_a_structure_is_the_default_structures(p, q):
    emb = _embedding(p, q)
    default = holomorphy.classify(emb, holomorphy.default_structure(emb))
    for result in (holomorphy.classify(emb), holomorphy.classify(emb, None)):
        assert result.to_dict() == default.to_dict()
