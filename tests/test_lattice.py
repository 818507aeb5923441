import itertools
import tracemalloc

import numpy as np
import pytest

import nctheta as nc
from nctheta import lattice
from nctheta.errors import (DimensionMismatch, GridTooLarge, LatticeOverflow,
                            NCThetaError, SingularEmbedding, SingularQ,
                            ZeroTheta)
from nctheta.heisenberg import GaussianVector
from nctheta.lattice import (QuantumElement, _cmul, ball,
                             cocycle_exponent_arrays)


def test_canonical_embedding_q0_blocks():
    emb = nc.canonical_embedding(1, 0, theta=[0.5])
    assert emb.phi.shape == (2, 2)
    np.testing.assert_allclose(emb.phi, [[0.5, 0.0], [0.0, 1.0]])


def test_canonical_embedding_mixed_blocks():
    emb = nc.canonical_embedding(1, 2, theta=[0.3], Q=np.eye(2),
                                 Delta=[[0.2, 0.0], [0.0, 0.7]])
    assert emb.phi.shape == (6, 4)
    np.testing.assert_allclose(emb.phi[0, 0], 0.3)
    np.testing.assert_allclose(emb.phi[1, 1], 1.0)
    np.testing.assert_allclose(emb.phi[2:4, 2:4], np.eye(2))
    np.testing.assert_allclose(emb.phi[4:6, 2:4], np.diag([0.2, 0.7]))


def test_canonical_embedding_lattice_only_det():
    emb = nc.canonical_embedding(0, 2, Q=[[2, 1], [0, 1]],
                                 Delta=[[0.1, 0.0], [0.0, 0.1]])
    assert abs(np.linalg.det(emb.x_tilde)) == pytest.approx(2.0)


def test_embedding_errors():
    with pytest.raises(ZeroTheta):
        nc.canonical_embedding(2, 0, theta=[0.5, 0.0])
    with pytest.raises(SingularQ):
        nc.canonical_embedding(0, 2, Q=[[1, 1], [1, 1]],
                               Delta=[[0.1, 0], [0, 0.1]])
    with pytest.raises(SingularEmbedding):
        nc.EmbeddingMap(p=1, q=0, phi=np.array([[0.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        # non-integer entry in the integer block
        nc.EmbeddingMap(p=0, q=1, phi=np.array([[1.5], [0.3]]))


@pytest.mark.parametrize("Q", [1e300, 1e160, -2e154])
def test_row_norm_beyond_double_range_is_a_typed_error(Q):
    # the squares of the row norm overflow: a typed error naming the row
    # (under tier-1's error::RuntimeWarning), not "numerically singular"
    with pytest.raises(LatticeOverflow, match="row 0 .* squared norm beyond"):
        nc.canonical_embedding(0, 1, Q=[[Q]], Delta=[[0.5]])
    with pytest.raises(LatticeOverflow, match="row 2 "):
        nc.canonical_embedding(1, 1, theta=[0.5], Q=[[Q]], Delta=[[0.5]])


def test_integer_block_beyond_int64_is_a_typed_error():
    emb = nc.canonical_embedding(0, 1, Q=[[1e20]], Delta=[[0.5]])
    with pytest.raises(LatticeOverflow, match=r"index \(1099511627776,\) is beyond int64"):
        emb.point([2**40])
    with pytest.raises(LatticeOverflow, match=r"index \(-1,\)"):
        emb.blocks(ball(1, 1))
    assert emb.point([0]).m.tolist() == [0]
    # the largest integer blocks that fit keep their values
    big = nc.canonical_embedding(0, 1, Q=[[2.0**62]], Delta=[[0.5]])
    assert big.blocks([[-1], [1]])[2].tolist() == [[-2**62], [2**62]]
    with pytest.raises(LatticeOverflow):
        big.point([2])


def test_lattice_point_columns():
    emb = nc.canonical_embedding(1, 0, theta=[0.5])
    h1 = emb.point([1, 0])
    assert h1.w1[0] == pytest.approx(0.5) and h1.w2[0] == pytest.approx(0.0)
    h2 = emb.point([0, 1])
    assert h2.w1[0] == pytest.approx(0.0) and h2.w2[0] == pytest.approx(1.0)


def test_lattice_point_mixed_column():
    emb = nc.canonical_embedding(1, 2, theta=[0.3], Q=np.eye(2),
                                 Delta=[[0.2, 0.0], [0.0, 0.7]])
    h = emb.point([0, 0, 1, 0])
    np.testing.assert_array_equal(h.m, [1, 0])
    np.testing.assert_allclose(h.r, [0.2, 0.0])


def test_lattice_point_blocks_match_product():
    emb = nc.canonical_embedding(1, 2, theta=[0.5], Q=[[1, 2], [0, 1]],
                                 Delta=[[0.2, 0.1], [0.0, 0.7]])
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = rng.integers(-5, 6, emb.d)
        h = emb.point(k)
        full = emb.phi @ k
        np.testing.assert_allclose(np.concatenate([h.w1, h.w2, h.m, h.r]),
                                   full, atol=1e-12)


def test_blocks_ignore_memory_layout(inst_general):
    # an F-ordered operand (np.argwhere returns one) takes another einsum
    # loop; every layout must give the bits of the one-row calls
    emb = inst_general
    K = ball(emb.d, 2)
    rows = [emb.blocks(k[None]) for k in K]
    for layout in (np.ascontiguousarray, np.asfortranarray):
        for j, block in enumerate(emb.blocks(layout(K))):
            assert block.tobytes() == np.concatenate([r[j] for r in rows]).tobytes()


def test_lattice_point_dimension_mismatch():
    emb = nc.canonical_embedding(1, 0, theta=[0.5])
    with pytest.raises(DimensionMismatch):
        emb.point([1, 0, 0])


def test_non_integral_indices_rejected():
    emb = nc.canonical_embedding(1, 2, theta=[0.5], Q=np.eye(2),
                                 Delta=np.diag([0.2, 0.7]))
    # a relative closeness test would accept this as index 1000000
    with pytest.raises(ValueError):
        emb.point([1e6 + 0.5, 0, 0, 0])
    with pytest.raises(ValueError):
        emb.point([np.nan, 0, 0, 0])
    with pytest.raises(ValueError):
        emb.blocks([[0.4, 0, 0, 0]])
    np.testing.assert_array_equal(emb.point([1e6, 0, 0, 0]).index,
                                  [1000000, 0, 0, 0])
    big = np.array([[2**40, 0, 1, 0]])
    _, _, m, _ = emb.blocks(big)
    np.testing.assert_array_equal(m, [[1, 0]])
    float_blocks = emb.blocks(big.astype(float))
    for a, b in zip(emb.blocks(big), float_blocks):
        np.testing.assert_array_equal(a, b)


def test_cocycle_identity_and_antisymmetry():
    emb = nc.canonical_embedding(1, 2, theta=[0.5], Q=np.eye(2),
                                 Delta=np.diag([0.2, 0.7]))
    zero = emb.point([0, 0, 0, 0])
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = emb.point(rng.integers(-4, 5, 4))
        y = emb.point(rng.integers(-4, 5, 4))
        assert nc.cocycle(x, zero) == pytest.approx(1.0)
        assert abs(nc.cocycle(x, y)) == pytest.approx(1.0, abs=1e-12)
        assert nc.cocycle(x, y) * nc.cocycle(y, x) == pytest.approx(1.0, abs=1e-12)


def test_cocycle_value_from_operator_composition():
    # Read alpha off the ratio (pi_x pi_y f) / (pi_{x+y} f) at sample points.
    emb = nc.canonical_embedding(1, 0, theta=[0.5])
    f = nc.GaussianVector.pure(np.array([[1j]]))
    x, y = emb.point([1, 0]), emb.point([0, 1])
    comp = nc.apply_heisenberg(x, nc.apply_heisenberg(y, f))
    direct = nc.apply_heisenberg(emb.point([1, 1]), f)
    s = np.array([0.37])
    ratio = comp.evaluate(s, []) / direct.evaluate(s, [])
    assert ratio == pytest.approx(np.exp(1j * np.pi * 0.5), abs=1e-12)
    assert nc.cocycle(x, y) == pytest.approx(np.exp(1j * np.pi * 0.5), abs=1e-12)


def test_cocycle_bicharacter_law():
    emb = nc.canonical_embedding(1, 2, theta=[0.5], Q=np.eye(2),
                                 Delta=np.diag([0.2, 0.7]))
    rng = np.random.default_rng(1)
    for _ in range(40):
        kx, ky, kz = (rng.integers(-3, 4, 4) for _ in range(3))
        x, y, z = emb.point(kx), emb.point(ky), emb.point(kz)
        xy = emb.point(kx + ky)
        lhs = nc.cocycle(xy, z)
        rhs = nc.cocycle(x, z) * nc.cocycle(y, z)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_cocycle_operator_consistency_on_grid(inst_1_2):
    emb, omega = inst_1_2
    base = nc.GaussianVector.pure(omega, emb.q)
    rng = np.random.default_rng(7)
    for _ in range(50):
        # randomize the vector by a pre-translation so ell, mu, n0 vary
        f = nc.apply_heisenberg(emb.point(rng.integers(-1, 2, 4)), base)
        kx, ky = rng.integers(-3, 4, 4), rng.integers(-3, 4, 4)
        x, y = emb.point(kx), emb.point(ky)
        comp = nc.apply_heisenberg(x, nc.apply_heisenberg(y, f))
        glued = nc.apply_heisenberg(emb.point(kx + ky), f)
        alpha = nc.cocycle(x, y)
        a = nc.sample_on_grid(comp, 2.0, 0.25, 3)
        b = nc.sample_on_grid(glued, 2.0, 0.25, 3)
        assert np.max(np.abs(a.values - alpha * b.values)) < 1e-9


def test_cocycle_exponent_arrays_matches_scalar(inst_general):
    emb = inst_general
    rng = np.random.default_rng(5)
    K = rng.integers(-4, 5, size=(30, emb.d))
    g = emb.point(rng.integers(-4, 5, emb.d))
    blocks = emb.blocks(K)
    gb = (g.w1, g.w2, g.m.astype(float), g.r)
    vec = cocycle_exponent_arrays(gb, (blocks[0], blocks[1],
                                       blocks[2].astype(float), blocks[3]))
    for i in range(len(K)):
        h = emb.point(K[i])
        assert vec[i] == pytest.approx(float(cocycle_exponent_arrays(
            (g.w1, g.w2, g.m, g.r), (h.w1, h.w2, h.m, h.r))), abs=1e-12)


@pytest.mark.parametrize("p,q", [(0, 3), (1, 2), (3, 1), (2, 5), (8, 9)])
def test_cocycle_exponent_arrays_keep_np_sum_bits(p, q):
    # components are summed one at a time; a broadcast batch must carry the
    # bits of np.sum over the last axis, short (sequential) or long
    # (pairwise), and of its one-row calls
    rng = np.random.default_rng(p + 10 * q)

    def blocks(*lead):
        return (rng.normal(size=lead + (p,)), rng.normal(size=lead + (p,)),
                rng.integers(-5, 6, size=lead + (q,)),
                rng.normal(size=lead + (q,)) * 10.0 ** rng.integers(-8, 8))

    x, y = blocks(9, 1), blocks(40)
    w1x, w2x, mx, rx = x
    w1y, w2y, my, ry = y
    frozen = (np.sum(w1x * w2y, axis=-1) + np.sum(mx * ry, axis=-1)
              - np.sum(w1y * w2x, axis=-1) - np.sum(my * rx, axis=-1))
    batch = cocycle_exponent_arrays(x, y)
    assert batch.shape == (9, 40) and batch.tobytes() == frozen.tobytes()
    rows = [cocycle_exponent_arrays([b[i, 0] for b in x], y) for i in range(9)]
    assert np.stack(rows).tobytes() == frozen.tobytes()
    with pytest.raises(DimensionMismatch):
        cocycle_exponent_arrays(x, (w1y, w2y, my[:, :-1], ry))


ORACLE_SEEDS = list(range(64)) + [2**32 - 1, 2**32, 2**64 + 5, 2**130 + 11]


@pytest.mark.parametrize("low, high", [(-1, 2), (-2, 3), (0, 2401), (0, 7),
                                       (0, 2**31 + 5)])
def test_seeded_integers_equal_default_rng(low, high):
    # 2**64 + 5 has 3 words of entropy, 2**130 + 11 has 5: more words than
    # SeedSequence's pool of 4; at 2**31 + 5 Lemire's method rejects about
    # half of the 32-bit words
    for seed in ORACLE_SEEDS:
        for shape in [(100, 2, 4), (5000, 3)]:
            got = lattice.seeded_integers(seed, low, high, shape)
            want = np.random.default_rng(seed).integers(low, high, size=shape)
            assert got.dtype == want.dtype == np.int64 and got.shape == shape
            assert np.array_equal(got, want), (seed, low, high, shape)


@pytest.mark.parametrize("low, high", [(5, 6), (0, 2**32 - 1),
                                       (-2**63, -2**63 + 3), (2**63 - 3, 2**63)])
@pytest.mark.parametrize("shape", [(0, 3), (), (7,)])
def test_seeded_integers_domain_edges_equal_default_rng(low, high, shape):
    for seed in (0, 1, 2**40 + 7):
        got = lattice.seeded_integers(seed, low, high, shape)
        want = np.random.default_rng(seed).integers(low, high, size=shape)
        assert got.dtype == np.int64 and got.shape == np.shape(want)
        assert np.array_equal(got, want)


def test_seeded_integers_frozen_values():
    # the draws that decide report bytes, pinned so that a numpy release
    # with another Generator.integers stream shows up here and nowhere else
    assert lattice.seeded_integers(123, -2, 3, (100, 2, 4))[:2].tolist() == [
        [[-2, 1, 0, -2], [2, -1, -1, -2]], [[-1, -2, -1, 2], [0, 2, 0, -1]]]
    assert lattice.seeded_integers(123, 0, 2401, (5000, 3))[:3].tolist() == [
        [37, 1638, 1423], [129, 2182, 529], [612, 442, 801]]
    assert lattice.seeded_integers(2**130 + 11, 0, 2**31 + 5, (6,)).tolist() == [
        943860211, 1320437822, 1132782053, 1522440548, 2029149062, 901731994]
    assert lattice.seeded_integers(0, -1, 2, (12,)).tolist() == [
        1, 0, 0, -1, -1, -1, -1, -1, -1, 1, 0, 1]


@pytest.mark.parametrize("seed, low, high", [
    (-1, 0, 7), (True, 0, 7), (1.0, 0, 7), ("1", 0, 7), (None, 0, 7),
    (0, 3, 3), (0, 3, 2), (0, 0, 2**32), (0, -2**63 - 1, 0),
    (0, 2**63 - 1, 2**63 + 1), (0, 0.0, 7), (0, 0, 7.0), (0, False, 7),
])
def test_seeded_integers_outside_the_domain_raise(seed, low, high):
    with pytest.raises(ValueError):
        lattice.seeded_integers(seed, low, high, (3,))


def test_induced_theta_canonical_q0():
    emb = nc.canonical_embedding(1, 0, theta=[0.5])
    np.testing.assert_array_equal(nc.induced_theta(emb),
                                  [[0.0, 0.5], [-0.5, 0.0]])
    emb2 = nc.canonical_embedding(2, 0, theta=[0.5, 0.25])
    t = nc.induced_theta(emb2)
    assert t[0, 2] == 0.5 and t[1, 3] == 0.25
    assert t[0, 1] == 0.0 and t[2, 3] == 0.0


def test_induced_theta_degenerate_sizes():
    emb = nc.canonical_embedding(0, 1, Q=[[1]], Delta=[[0.3]])
    np.testing.assert_array_equal(nc.induced_theta(emb), [[0.0]])


def test_induced_theta_skew_exact(inst_general):
    for emb in [inst_general,
                nc.canonical_embedding(1, 2, theta=[0.3], Q=np.eye(2),
                                       Delta=np.diag([0.2, 0.7]))]:
        t = nc.induced_theta(emb)
        np.testing.assert_array_equal(t, -t.T)


def test_induced_theta_against_cocycle():
    emb = nc.canonical_embedding(1, 2, theta=[0.3], Q=np.eye(2),
                                 Delta=np.diag([0.2, 0.7]))
    t = nc.induced_theta(emb)
    assert t[2, 3] == pytest.approx(0.0)
    for i in range(emb.d):
        for j in range(emb.d):
            ei = np.zeros(emb.d, dtype=int)
            ej = np.zeros(emb.d, dtype=int)
            ei[i] = 1
            ej[j] = 1
            x, y = emb.point(ei), emb.point(ej)
            expo = float(cocycle_exponent_arrays((x.w1, x.w2, x.m, x.r),
                                                 (y.w1, y.w2, y.m, y.r)))
            assert t[i, j] == pytest.approx(expo, abs=1e-14)


def test_quantum_element_identity_and_basis_product(inst_1_0):
    emb, _ = inst_1_0
    e0 = QuantumElement.basis(emb, [0, 0])
    b = QuantumElement.from_coeffs(emb, {(1, 0): 0.5 + 0.25j, (0, -1): -2.0}, 1)
    prod = e0.multiply(b)
    assert prod.coeffs == b.coeffs
    e1 = QuantumElement.basis(emb, [1, 0])
    e2 = QuantumElement.basis(emb, [0, 1])
    prod = e1.multiply(e2)
    alpha = nc.cocycle(emb.point([1, 0]), emb.point([0, 1]))
    assert prod.coeff((1, 1)) == pytest.approx(alpha, abs=1e-12)


def test_quantum_element_product_matches_double_loop(inst_1_2):
    emb, _ = inst_1_2
    rng = np.random.default_rng(11)

    def random_element(n):
        coeffs = {}
        for _ in range(n):
            k = tuple(int(v) for v in rng.integers(-2, 3, emb.d))
            coeffs[k] = complex(rng.normal(), rng.normal())
        return QuantumElement.from_coeffs(emb, coeffs, 2)

    a, b = random_element(6), random_element(5)
    prod = a.multiply(b)
    # Independent accumulation in reversed iteration order.
    expected = {}
    for k2, c2 in sorted(b.coeffs.items(), reverse=True):
        for k1, c1 in sorted(a.coeffs.items(), reverse=True):
            key = tuple(x + y for x, y in zip(k1, k2))
            alpha = nc.cocycle(emb.point(np.array(k1)), emb.point(np.array(k2)))
            expected[key] = expected.get(key, 0j) + c1 * c2 * alpha
    assert set(prod.coeffs) <= set(expected)
    for k, v in expected.items():
        assert prod.coeff(k) == pytest.approx(v, abs=1e-12)


def test_quantum_element_product_associative(inst_1_2):
    emb, _ = inst_1_2
    rng = np.random.default_rng(13)
    for _ in range(5):
        elems = []
        for _ in range(3):
            coeffs = {tuple(int(v) for v in rng.integers(-1, 2, emb.d)):
                      complex(rng.normal(), rng.normal()) for _ in range(3)}
            elems.append(QuantumElement.from_coeffs(emb, coeffs, 1))
        a, b, c = elems
        left = a.multiply(b).multiply(c)
        right = a.multiply(b.multiply(c))
        keys = set(left.coeffs) | set(right.coeffs)
        for k in keys:
            assert left.coeff(k) == pytest.approx(right.coeff(k), abs=1e-12)


def test_multiply_across_embeddings(inst_1_0, inst_0_2):
    # Phi's shape fixes p and q, so one comparison of Phi rejects another
    # Phi of the same (p, q) and p1q0 against p0q2 (both d = 2)
    emb, _ = inst_1_0
    same = nc.EmbeddingMap(p=1, q=0, phi=emb.phi)
    other = nc.canonical_embedding(1, 0, theta=[0.25])
    a = QuantumElement.basis(emb, [1, 0])
    assert a.multiply(QuantumElement.basis(same, [0, 1])).coeff((1, 1)) == \
        pytest.approx(nc.cocycle(emb.point([1, 0]), emb.point([0, 1])), abs=1e-12)
    for emb2 in (other, inst_0_2[0]):
        b = QuantumElement.basis(emb2, [0, 1])
        with pytest.raises(DimensionMismatch):
            a.multiply(b)
        with pytest.raises(DimensionMismatch):
            b.multiply(a)


def test_quantum_element_radius_and_drop():
    emb = nc.canonical_embedding(1, 0, theta=[0.5])
    with pytest.raises(ValueError):
        QuantumElement.from_coeffs(emb, {(2, 0): 1.0}, 1)


def test_quantum_element_cube_validation():
    emb = nc.canonical_embedding(1, 0, theta=[0.5])
    for shape in [(3, 5), (4, 4), (3,), (3, 3, 3)]:
        with pytest.raises(DimensionMismatch):
            QuantumElement(embedding=emb, values=np.ones(shape, dtype=complex))
    with pytest.raises(DimensionMismatch):
        QuantumElement.from_coeffs(emb, {(0, 0, 0): 1.0}, 1)
    el = QuantumElement(embedding=emb,
                        values=np.full((3, 3), 1e-301 + 0j))
    assert el.radius == 1 and el.coeffs == {}
    assert not el.values.flags.writeable


def test_ball_order_is_itertools_product():
    for d, r in [(1, 0), (1, 2), (2, 1), (3, 2), (4, 1)]:
        K = ball(d, r)
        assert K.shape == ((2 * r + 1) ** d, d)
        assert K.dtype.kind == "i"
        assert [tuple(k) for k in K.tolist()] == \
            list(itertools.product(range(-r, r + 1), repeat=d))


def test_ball_over_the_grid_budget_raises(monkeypatch):
    # the count is taken on Python ints before numpy allocates anything
    monkeypatch.setattr(lattice, "GRID_BUDGET", 25)
    assert ball(2, 2).shape == (25, 2) and ball(1, 12).shape == (25, 1)
    for d, r in [(2, 3), (1, 13), (6, 100_000), (2, int("9" * 401))]:
        with pytest.raises(GridTooLarge):
            ball(d, r)


def test_quantum_theta_product_equals_scalar_double_loop(inst_1_2):
    emb, omega = inst_1_2
    th = nc.quantum_theta(emb, GaussianVector.pure(omega, emb.q), 2)
    prod = th.multiply(th)
    # the literal double loop in lexicographic order, with scalar cocycles
    # and Python complex arithmetic
    items = sorted(th.coeffs.items())
    points = {k: emb.point(np.array(k)) for k, _ in items}
    expected = {}
    for k1, c1 in items:
        x = points[k1]
        for k2, c2 in items:
            key = tuple(a + b for a, b in zip(k1, k2))
            term = c1 * c2 * nc.cocycle(x, points[k2])
            expected[key] = expected.get(key, 0j) + term
    assert prod.radius == 4
    assert prod.coeffs == {k: v for k, v in expected.items() if abs(v) >= 1e-300}


def _frozen_multiply(a, b):
    """The twisted product as a per-k1 np.add.at loop over the support of
    b, for reference."""
    emb = a.embedding
    K1, c1 = a.as_arrays()
    K2, c2 = b.as_arrays()
    R = a.radius + b.radius
    values = np.zeros((2 * R + 1,) * emb.d, dtype=complex)
    blocks2 = emb.blocks(K2)
    for k1, x, c in zip(K1, zip(*emb.blocks(K1)), c1):
        alpha = np.exp(1j * np.pi * cocycle_exponent_arrays(x, blocks2))
        np.add.at(values, tuple((K2 + k1 + R).T), _cmul(_cmul(c, c2), alpha))
    return QuantumElement(embedding=emb, values=values)


def _wide_range_element(emb, rng, n, radius):
    """n random support points (fewer where keys repeat) with coefficients
    from 1e-20 to 1e4, mixed signs, and some real, imaginary or -0.0 parts."""
    coeffs = {}
    for _ in range(n):
        k = tuple(int(v) for v in rng.integers(-radius, radius + 1, emb.d))
        re, im = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-20, 4, 2)
        re, im = [(re, im), (re, -0.0), (0.0, im), (-0.0, im)][rng.integers(4)]
        coeffs[k] = complex(re, im)
    return QuantumElement.from_coeffs(emb, coeffs, radius)


@pytest.mark.parametrize("name", ["p1q2", "raw_phi"])
def test_product_equals_frozen_add_at_loop(name, inst_1_2, inst_general,
                                           monkeypatch):
    emb = inst_1_2[0] if name == "p1q2" else inst_general
    rng = np.random.default_rng(21)
    zero = QuantumElement.from_coeffs(emb, {}, 1)
    for r1, r2 in itertools.product(range(4), repeat=2):
        a = _wide_range_element(emb, rng, 7, r1)
        b = _wide_range_element(emb, rng, 5, r2)
        for x, y in [(a, b), (b, a), (zero, b), (a, zero), (zero, zero)]:
            got, want = x.multiply(y), _frozen_multiply(x, y)
            assert got.radius == want.radius
            assert got.values.tobytes() == want.values.tobytes()
    # a left support longer than one batch, against a dense right factor:
    # one row per batch, the default budget and 64 rows per batch
    dense = _wide_range_element(emb, rng, 256, 2)
    assert len(dense.coeffs) > lattice.BATCH_ENTRIES // dense.values.size
    for x, y in [(dense, dense), (dense, a), (a, dense)]:
        want = _frozen_multiply(x, y).values.tobytes()
        for budget in (1, lattice.BATCH_ENTRIES, 64 * y.values.size):
            monkeypatch.setattr(lattice, "BATCH_ENTRIES", budget)
            assert x.multiply(y).values.tobytes() == want, budget
            monkeypatch.undo()


def test_theta_product_peak_memory(inst_1_2):
    # the left support is paired with the right cube in batches of at most
    # BATCH_ENTRIES terms (6 rows of 625); one 625 x 625 batch would need
    # about 25 MB
    emb, omega = inst_1_2
    th = nc.quantum_theta(emb, GaussianVector.pure(omega, emb.q), 2)
    assert len(th.coeffs) == 625
    tracemalloc.start()
    try:
        th.multiply(th)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak


def test_product_rejects_non_finite_coefficients(inst_1_2):
    emb, _ = inst_1_2
    finite = QuantumElement.from_coeffs(emb, {(0, 1, 0, 0): 2.0}, 1)
    for bad in (complex(np.inf, 0.0), complex(0.0, -np.inf), complex(np.nan, 1.0)):
        other = QuantumElement.from_coeffs(emb, {(1, 0, 0, 0): bad}, 1)
        with pytest.raises(NCThetaError):
            finite.multiply(other)
        with pytest.raises(NCThetaError):
            other.multiply(finite)


def test_quantum_element_serialization_roundtrip(inst_1_0):
    emb, _ = inst_1_0
    el = QuantumElement.from_coeffs(emb, {(1, -1): 0.5 - 0.125j, (-1, 0): 2.0 + 1j},
                                    1)
    data = el.to_dict()
    assert data["radius"] == 1
    assert [row["k"] for row in data["coeffs"]] == [[-1, 0], [1, -1]]
    back = QuantumElement.from_dict(emb, data)
    assert back.coeffs == el.coeffs


def test_embedding_from_config_variants():
    emb = nc.embedding_from_config({"p": 1, "q": 0, "theta": [0.5]})
    np.testing.assert_allclose(emb.phi, [[0.5, 0], [0, 1]])
    raw = nc.embedding_from_config(
        {"p": 1, "q": 0, "phi": [[0.5, 0.0], [0.0, 1.0]]})
    np.testing.assert_allclose(raw.phi, emb.phi)
    with pytest.raises(ValueError):
        nc.embedding_from_config({"phi": [[0.5, 0], [0, 1]]})
