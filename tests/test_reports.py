import enum
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nctheta as nc
from nctheta import cli, reports
from nctheta.heisenberg import GaussianVector
from nctheta.lattice import QuantumElement
from nctheta.reports import ELEMENT_CHUNK, render_report


def test_roundtrip_and_sorted_keys():
    obj = {"b": 1, "a": [1.5, 2, True, None], "c": {"y": "x\"z", "x": 0.1}}
    text = render_report(obj)
    back = json.loads(text)
    assert back == {"a": [1.5, 2, True, None], "b": 1,
                    "c": {"x": 0.1, "y": 'x"z'}}
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')


def test_float_precision_and_integers():
    text = render_report({"v": 1.0 / 3.0, "w": 2.0, "n": 7})
    assert "0.33333333333333331" in text
    assert '"w": 2.0' in text
    assert '"n": 7' in text
    assert json.loads(text)["v"] == 1.0 / 3.0


def test_complex_and_arrays():
    obj = {"z": 1.5 - 0.25j, "m": np.array([[1.0, 0.5]]),
           "i": np.int64(3), "f": np.float64(0.75)}
    back = json.loads(render_report(obj))
    assert back["z"] == {"im": -0.25, "re": 1.5}
    assert back["m"] == [[1.0, 0.5]]
    assert back["i"] == 3 and back["f"] == 0.75


def test_rejects_non_finite_and_bad_keys():
    with pytest.raises(ValueError):
        render_report({"x": float("nan")})
    with pytest.raises(TypeError):
        render_report({1: "x"})
    with pytest.raises(TypeError):
        render_report({"x": object()})


def test_determinism():
    obj = {"values": [0.1 * k for k in range(20)],
           "flags": {"a": True, "b": False}}
    assert render_report(obj) == render_report(obj)


# The isinstance-chain renderer that wrote every report before the
# exact-type dispatch, frozen as the reference for its bytes and errors.

def _frozen_format_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"reports must contain finite numbers, got {x}")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def _frozen_render(obj, indent: int, pad: str) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _frozen_format_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return _frozen_render({"re": float(obj.real), "im": float(obj.imag)},
                              indent, pad)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\t", "\\t")
        return f'"{out}"'
    if isinstance(obj, np.ndarray):
        return _frozen_render(obj.tolist(), indent, pad)
    inner = pad + " " * indent
    if isinstance(obj, dict):
        if any(not isinstance(k, str) for k in obj):
            raise TypeError("report keys must be strings")
        keys = sorted(obj)
        if not keys:
            return "{}"
        items = [f'{inner}"{k}": ' + _frozen_render(obj[k], indent, inner)
                 for k in keys]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [inner + _frozen_render(v, indent, inner) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)} into a report")


def _frozen_render_report(obj) -> str:
    return _frozen_render(obj, indent=2, pad="") + "\n"


def _outcome(render, obj):
    """The rendered text, or the type of the exception raised."""
    try:
        return render(obj)
    except Exception as exc:  # compared between the two renderers
        return type(exc)


def _captured_reports(monkeypatch, tmp_path, config):
    """The report objects run_config writes for config."""
    captured = {}

    def capture(path, obj):
        captured[path] = obj
        return reports.write_report(path, obj)

    monkeypatch.setattr(cli, "write_report", capture)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.run_config(cli.load_config(str(path)), str(tmp_path / "out"),
                          seed=1) == 0
    return captured


ACCEPTANCE = {"embedding": {"p": 1, "q": 2, "theta": [0.5], "Q": [[1, 0], [0, 1]],
                            "Delta": [[0.2, 0.0], [0.0, 0.7]]},
              "truncation_R": 4, "seed": 123}
CONTINUOUS = {"embedding": {"p": 2, "q": 0, "theta": [0.5, 0.25]},
              "truncation_R": 4, "seed": 123}


@pytest.mark.parametrize("config", [ACCEPTANCE, CONTINUOUS],
                         ids=["p1q2", "p2q0"])
def test_pipeline_reports_equal_frozen_renderer(monkeypatch, tmp_path, config):
    # the theta report carries the element itself; the frozen renderer
    # gets its to_dict() in its place
    captured = _captured_reports(monkeypatch, tmp_path, config)
    assert len(captured) == 4
    elements = 0
    for path, obj in captured.items():
        text = render_report(obj)
        if "element" in obj:
            assert type(obj["element"]) is QuantumElement, path
            obj = dict(obj, element=obj["element"].to_dict())
            elements += 1
        assert text == _frozen_render_report(obj), path
        with open(path) as fh:
            assert fh.read() == text
    assert elements == 1


def test_element_reports_equal_frozen_renderer(inst_1_2):
    # the shape the algebra benchmark writes: to_dict of Theta and Theta*Theta
    emb, omega = inst_1_2
    element = nc.quantum_theta(emb, GaussianVector.pure(omega, emb.q), 2)
    obj = {"theta": element.to_dict(),
           "product": element.multiply(element).to_dict()}
    assert render_report(obj) == _frozen_render_report(obj)


def test_write_report_returns_the_text(tmp_path):
    obj = {"a": [1, 2.5, np.float64(0.1)], "b": {"c": 1 - 1j}}
    path = tmp_path / "r.json"
    text = reports.write_report(str(path), obj)
    assert text == path.read_text() == _frozen_render_report(obj)


class _Dict(dict):
    pass


class _Int(int):
    pass


class _List(list):
    pass


class _Flag(enum.IntEnum):
    ON = 1


_EDGE_FLOATS = [0.0, -0.0, 1e16, -1e16, np.nextafter(1e16, 0.0),
                np.nextafter(1e16, np.inf), np.nextafter(-1e16, 0.0),
                np.nextafter(-1e16, -np.inf), 9007199254740993.0, 0.5, 2.0,
                5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1.7976931348623157e308]

_floats = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from(_EDGE_FLOATS).map(float))
_floats32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), _floats, st.text(max_size=6),
    _floats.map(np.float64), _floats32.map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.text(max_size=4).map(np.str_),
    st.builds(complex, _floats, _floats),
    st.builds(complex, _floats32, _floats32).map(np.complex64),
    st.integers().map(_Int), st.just(_Flag.ON),
    _floats.map(np.array),
    st.lists(st.lists(_floats, min_size=2, max_size=2), min_size=1,
             max_size=3).map(np.array),
    st.lists(st.integers(-5, 5), min_size=1, max_size=4).map(
        lambda v: np.array(v).reshape(-1, 1)),
)
_keys = st.text(max_size=5) | st.text(max_size=5).map(np.str_)
_reports = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4).map(_List),
        st.dictionaries(_keys, inner, max_size=4),
        st.dictionaries(_keys, inner, max_size=3).map(_Dict),
    ),
    max_leaves=20,
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_reports)
def test_generated_objects_equal_frozen_renderer(obj):
    assert _outcome(render_report, obj) == _outcome(_frozen_render_report, obj)


@pytest.mark.parametrize("obj", [
    float("nan"), float("inf"), -float("inf"), np.float64("nan"),
    np.float32("inf"), complex(1.0, float("nan")),
    [0.5, 1.0, float("nan")], {"a": [2.0, float("inf")]},
    np.array([1.0, np.nan]),
    {1: "x"}, {"a": 1, 2: "b"}, {("a",): 1.0}, _Dict({3: 1}),
    # a non-string key is reported before a non-finite value
    {"a": float("nan"), 0: 1},
    object(), {"a": object()}, [1, {1, 2}], b"bytes", {"a": [np.datetime64(0, "s")]},
])
def test_errors_match_frozen_renderer(obj):
    got = _outcome(render_report, obj)
    assert isinstance(got, type) and issubclass(got, (ValueError, TypeError))
    assert got is _outcome(_frozen_render_report, obj)


# The element writer against the generic rendering of to_dict().

_ELEMENT_FLOATS = [0.0, -0.0, 1.0, -3.0, 0.5, 1e16, -1e16,
                   np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf),
                   np.nextafter(-1e16, 0.0), np.nextafter(-1e16, -np.inf),
                   9007199254740993.0, 4503599627370495.5, -1.2345678901234567e15,
                   1.5e300, 1.7976931348623157e308, 5e-324, -5e-324,
                   2.2250738585072014e-308, 1e-310, 0.1]
_element_floats = (st.sampled_from(_ELEMENT_FLOATS).map(float)
                   | st.floats(allow_nan=False, allow_infinity=False))
# one embedding per dimension d = 2p + q
_EMBEDDINGS = {1: nc.canonical_embedding(0, 1, Q=[[1]], Delta=[[0.5]]),
               2: nc.canonical_embedding(1, 0, theta=[0.5]),
               3: nc.canonical_embedding(1, 1, theta=[0.5], Q=[[1]], Delta=[[0.5]]),
               4: nc.canonical_embedding(2, 0, theta=[0.5, 0.25])}


# side of a square cube with room for two chunks and one row
_BULK_SIDE = 2 * (int(np.sqrt(2 * ELEMENT_CHUNK + 1)) // 2) + 3


def _bulk_element(size, seed):
    """A d = 2 element whose support is the first `size` entries of its
    cube, with parts drawn from _ELEMENT_FLOATS and a normal law."""
    rng = np.random.default_rng(seed)
    parts = np.where(rng.random((size, 2)) < 0.5,
                     rng.choice(_ELEMENT_FLOATS, size=(size, 2)),
                     rng.normal(size=(size, 2)) * 10.0 ** rng.integers(-5, 20, (size, 2)))
    parts[np.abs(parts).max(axis=1) < 1e-300, 0] = 1.0  # keep every row
    values = np.zeros(_BULK_SIDE ** 2, dtype=complex)
    values[:size] = parts[:, 0] + 1j * parts[:, 1]
    element = QuantumElement(_EMBEDDINGS[2], values.reshape(_BULK_SIDE, -1))
    assert np.count_nonzero(element.values) == size
    return element


@st.composite
def _elements(draw):
    if draw(st.integers(0, 9)) == 0:
        return _bulk_element(draw(st.sampled_from([ELEMENT_CHUNK - 1, ELEMENT_CHUNK,
                                                   ELEMENT_CHUNK + 1])),
                             draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 4))
    side = 2 * draw(st.integers(0, 2 if d < 4 else 1)) + 1
    values = np.zeros(side ** d, dtype=complex)
    for at, re, im in draw(st.lists(st.tuples(st.integers(0, side ** d - 1),
                                              _element_floats, _element_floats),
                                    max_size=12)):
        values[at] = complex(re, im)
    return QuantumElement(_EMBEDDINGS[d], values.reshape((side,) * d))


def _element_mismatch(el):
    """None if el renders as el.to_dict() does, in a dict and in a list,
    else the first lines that differ (a plain assert would diff the whole
    texts, which takes minutes at a few thousand rows)."""
    fast = render_report({"e": el, "l": [el]}).splitlines()
    slow = render_report({"e": el.to_dict(), "l": [el.to_dict()]}).splitlines()
    if fast == slow:
        return None
    at = next((i for i, (a, b) in enumerate(zip(fast, slow)) if a != b),
              min(len(fast), len(slow)))
    return at, fast[at:at + 3], slow[at:at + 3]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_elements())
def test_element_renders_as_its_dict(el):
    assert _element_mismatch(el) is None


@pytest.mark.parametrize("size", [0, 1, ELEMENT_CHUNK - 1, ELEMENT_CHUNK,
                                  ELEMENT_CHUNK + 1, 2 * ELEMENT_CHUNK + 1])
def test_element_chunk_boundaries(size):
    assert _element_mismatch(_bulk_element(size, seed=size)) is None


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("at", [0, ELEMENT_CHUNK + 2])
@pytest.mark.parametrize("part", ["re", "im"])
def test_element_non_finite_raises(bad, at, part):
    values = _bulk_element(2 * ELEMENT_CHUNK, seed=at).values.copy()
    values.ravel()[at] = complex(bad, 0.5) if part == "re" else complex(1.0, bad)
    el = QuantumElement(_EMBEDDINGS[2], values)
    for obj in ({"e": el}, {"e": el.to_dict()}):
        with pytest.raises(ValueError):
            render_report(obj)
