"""The one rule for lattice indices, lattice._indices, at every entry point.

An index is an element of Z^d: integral input of magnitude below 2**53
gives exactly the result of its int64 form, and anything else raises
ValueError or DimensionMismatch, never another error, a warning or a
silently shifted index.
"""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nctheta as nc
from nctheta.errors import DimensionMismatch
from nctheta.heisenberg import GaussianVector
from nctheta.lattice import QuantumElement, ball
from nctheta.theta import HermitianFormContext


@functools.cache
def _instance():
    """(emb, ctx, theta element) on the p=1, q=2 instance at R=2."""
    emb = nc.canonical_embedding(1, 2, theta=[0.5], Q=np.eye(2),
                                 Delta=np.diag([0.2, 0.7]))
    omega = np.array([[2j]])
    f = GaussianVector.pure(omega, emb.q)
    return emb, HermitianFormContext(omega), nc.quantum_theta(emb, f, 2)


def _frozen(x):
    """x with its lists and arrays as tuples, usable as a dict key."""
    if isinstance(x, list) or isinstance(x, np.ndarray) and x.ndim:
        return tuple(map(_frozen, x))
    return x


def _element(x):
    return x.radius, x.values.tobytes()


def _point(k):
    emb, _, _ = _instance()
    h = emb.point(k)
    return [a.dtype.str + a.tobytes().hex() for a in (h.index, h.w1, h.w2, h.m, h.r)]


def _blocks(K):
    return [b.tobytes() for b in _instance()[0].blocks(K)]


def _functional_equations(G):
    emb, ctx, th = _instance()
    return repr(nc.verify_functional_equations(ctx, emb, th, G, "modified"))


def _cocycle(pairs):
    emb, ctx, _ = _instance()
    return repr(nc.verify_cocycle_consistency(ctx, emb, "modified", pairs))


def _from_coeffs(k):
    return _element(QuantumElement.from_coeffs(_instance()[0],
                                               {_frozen(k): 2.0 - 1j}, 2))


def _basis(k):
    return _element(QuantumElement.basis(_instance()[0], k))


def _coeff(k):
    return _instance()[2].coeff(k)


def _from_dict(k):
    data = {"radius": 2, "coeffs": [{"k": k, "re": 2.0, "im": -1.0}]}
    return _element(QuantumElement.from_dict(_instance()[0], data))


def _center(n0):
    f = GaussianVector(p=1, q=2, omega=[[1j]], ell=[0], c0=1.0, n0=n0,
                       mu=[0, 0])
    return f.n0.dtype.str + f.n0.tobytes().hex()


# entry point: (call, shape of its index data with None for any length,
# bound on the integral entries, kept small where the index sets a size)
ENTRY_POINTS = {
    "point": (_point, (4,), 2**53 - 1),
    "blocks": (_blocks, (None, 4), 2**53 - 1),
    "verify_functional_equations": (_functional_equations, (None, 4), 1),
    "verify_cocycle_consistency": (_cocycle, (None, 2, 4), 3),
    "from_coeffs": (_from_coeffs, (4,), 2),
    "basis": (_basis, (4,), 3),
    "coeff": (_coeff, (4,), 2**53 - 1),
    "from_dict": (_from_dict, (4,), 2),
    "GaussianVector.n0": (_center, (2,), 2**53 - 1),
}


def _outcome(call, data):
    """("ok", result) or ("raised", error type), any warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "ok", call(data)
        except (ValueError, DimensionMismatch) as exc:
            return "raised", type(exc)


def _not_an_index(x: float) -> bool:
    return not (math.isfinite(x) and abs(x) < 2**53
                and abs(x - round(x)) <= 1e-12)


@st.composite
def index_data(draw, shape, bound):
    """(data, ints): index data of `shape`, and its int64 form, or None
    when the data is not a lattice index array of that shape."""
    n = draw(st.integers(0, 3))
    shape = tuple(n if s is None else s for s in shape)
    ints = np.array(draw(st.lists(st.integers(-bound, bound),
                                  min_size=math.prod(shape),
                                  max_size=math.prod(shape))),
                    dtype=np.int64).reshape(shape)
    how = draw(st.sampled_from([
        "int64", "int32", "uint64", "float64", "perturbed", "object",
        "list", "float", "nan", "bool", "bool entry", "huge", "none",
        "wrong length", "ragged"]))
    rows = ints.tolist()
    flat = ints.reshape(-1).tolist()
    at = draw(st.integers(0, max(len(flat) - 1, 0)))

    def with_entry(value):
        # the integral data with one entry replaced, as nested lists
        out = list(flat)
        out[at] = value
        return np.array(out, dtype=object).reshape(shape).tolist()

    if how == "int32" and np.all(np.abs(ints) < 2**31):
        return ints.astype(np.int32), ints
    if how in ("int64", "int32"):
        return ints, ints
    if how == "uint64":
        return (ints.astype(np.uint64), ints) if np.all(ints >= 0) else \
            (np.array([2**63] * ints.size, np.uint64).reshape(shape), None)
    if how in ("float64", "perturbed"):
        tiny = draw(st.sampled_from([1e-13, -1e-13])) if how == "perturbed" else 0.0
        return ints.astype(float) + tiny, ints
    if how == "object":
        return np.array(flat, dtype=object).reshape(shape), ints
    if how == "list":
        return rows, ints
    if how == "ragged":
        return (with_entry((0, 0)) if flat else [(0,) * shape[-1], (0,)]), None
    if not flat and how not in ("bool", "wrong length"):
        return rows, ints
    if how == "float":
        x = draw(st.floats(0.5, 1e300)) * draw(st.sampled_from([1, -1]))
        if _not_an_index(x):
            return with_entry(x), None
        if abs(round(x)) > bound:  # an index, but one that sets too large a size
            return rows, ints
        ints.reshape(-1)[at] = round(x)
        return with_entry(x), ints
    if how == "nan":
        return with_entry(draw(st.sampled_from([math.nan, math.inf, -math.inf]))), None
    if how == "bool":
        return ints.astype(bool), None
    if how == "bool entry":
        return with_entry(draw(st.booleans())), None
    if how == "huge":
        return with_entry(draw(st.integers(2**53, 10**30))), None
    if how == "none":
        return with_entry(draw(st.sampled_from([None, "1", 1j]))), None
    length = shape[-1] + draw(st.sampled_from([1, -1]))  # wrong length
    return np.zeros(shape[:-1] + (length,), dtype=np.int64), None


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_every_entry_point_applies_the_index_rule(data):
    name = data.draw(st.sampled_from(sorted(ENTRY_POINTS)))
    call, shape, bound = ENTRY_POINTS[name]
    index, ints = data.draw(index_data(shape, bound))
    got = _outcome(call, index)
    if ints is None:
        assert got[0] == "raised", (name, index, got)
    else:
        assert got == _outcome(call, ints), (name, index)


@pytest.mark.parametrize("case", [
    "point 1e300", "functional equation 1e300", "functional equation 2**63",
    "cocycle 1e300", "from_coeffs", "basis", "coeff", "from_dict radius",
    "coeff wrong length", "point bool", "b_factor", "ball"])
def test_non_indices_raise(case):
    emb, ctx, th = _instance()
    plane = nc.canonical_embedding(1, 0, theta=[0.5])
    error = {"coeff wrong length": DimensionMismatch, "ball": TypeError}.get(
        case, ValueError)
    with pytest.raises(error):
        {
            "point 1e300": lambda: emb.point([1e300, 0, 0, 0]),
            "functional equation 1e300": lambda: nc.verify_functional_equations(
                ctx, emb, th, np.array([[1e300, 0, 0, 0]]), "modified"),
            "functional equation 2**63": lambda: nc.verify_functional_equations(
                ctx, emb, th, np.array([[2**63, 0, 0, 0]], np.uint64), "modified"),
            "cocycle 1e300": lambda: nc.verify_cocycle_consistency(
                ctx, emb, "modified", [([1e300, 0, 0, 0], [0, 0, 0, 0])]),
            "from_coeffs": lambda: QuantumElement.from_coeffs(
                plane, {(0.5, 1.9): 2.0}, 2),
            "basis": lambda: QuantumElement.basis(plane, [1.7, 0]),
            "coeff": lambda: QuantumElement.basis(plane, [0, 1]).coeff((0.4, 1.2)),
            "from_dict radius": lambda: QuantumElement.from_dict(plane, {
                "radius": 1.9, "coeffs": [{"k": [1, 0], "re": 1.0, "im": 0.0}]}),
            "coeff wrong length": lambda: th.coeff((0, 0)),
            "point bool": lambda: emb.point([True, False, False, False]),
            "b_factor": lambda: nc.b_factor(0.3, 0.5),
            "ball": lambda: ball(2, 1.5),
        }[case]()


def test_integral_floats_empty_input_and_negative_balls():
    emb, ctx, th = _instance()
    assert nc.b_factor(0.3, 1.0) == nc.b_factor(0.3, 1)
    assert th.coeff((0, 0, 0, 5)) == 0j  # outside the ball
    assert QuantumElement.from_coeffs(emb, {}, 1.0).radius == 1
    assert nc.verify_cocycle_consistency(ctx, emb, "modified", [])[
        "pairs_checked"] == 0
    assert ball(2, -1).shape == (0, 2)
    assert ball(4, -3000).shape == (0, 4)
