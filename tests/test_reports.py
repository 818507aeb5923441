import enum
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nctheta as nc
from nctheta import cli, reports
from nctheta.heisenberg import GaussianVector
from nctheta.lattice import BATCH_ENTRIES, QuantumElement
from nctheta.manin import functional_equation_residual_ops
from nctheta.reports import render_report
from nctheta.theta import HermitianFormContext


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


def _mismatch(got, want):
    """None if got == want, else the first lines that differ (a plain
    assert would diff the whole texts, which takes minutes at a few
    thousand rows)."""
    if got == want:
        return None
    if not (isinstance(got, str) and isinstance(want, str)):
        return got, want
    got, want = got.splitlines(), want.splitlines()
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    return at, got[at:at + 3], want[at:at + 3]


def _outcome(render, obj):
    """The rendered text, or the type of the exception raised."""
    try:
        return render(obj)
    except Exception as exc:  # compared between the two renderers
        return type(exc)


def _captured_reports(monkeypatch, tmp_path, config):
    """The report objects run_config writes for config, by the path each
    is written to; a stage report is written into a staging directory
    that is gone when run_config returns, and its file is published
    under the same name in tmp_path / "out"."""
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
        assert (tmp_path / "out" / Path(path).name).read_text() == text
    assert elements == 1


def test_element_reports_equal_frozen_renderer(inst_1_2, tmp_path):
    # the shape the algebra benchmark writes: to_dict of Theta and
    # Theta*Theta, and reference functional-equation residuals
    emb, omega = inst_1_2
    element = nc.quantum_theta(emb, GaussianVector.pure(omega, emb.q), 2)
    ctx = HermitianFormContext(omega)
    residuals = [{"g": g, "residual": functional_equation_residual_ops(
        ctx, emb, element, emb.point(g), "modified")}
        for g in [[0, 0, 0, 1], [1, -1, 0, 0], [-1, 1, 1, 0]]]
    obj = {"theta": element.to_dict(),
           "product": element.multiply(element).to_dict(),
           "fe_residuals": residuals}
    text = reports.write_report(str(tmp_path / "algebra.json"), obj)
    assert _mismatch(text, _frozen_render_report(obj)) is None
    assert text == (tmp_path / "algebra.json").read_text()


def test_write_report_returns_the_text(tmp_path):
    obj = {"a": [1, 2.5, np.float64(0.1)], "b": {"c": 1 - 1j}}
    path = tmp_path / "r.json"
    text = reports.write_report(str(path), obj)
    assert text == path.read_text() == _frozen_render_report(obj)


def test_write_report_holds_twice_the_text(monkeypatch, tmp_path):
    # the pieces and the returned join, not the copies of each nesting level
    obj = next(obj for path, obj in _captured_reports(
        monkeypatch, tmp_path, ACCEPTANCE).items() if path.endswith("theta.json"))
    tracemalloc.start()
    try:
        text = reports.write_report(str(tmp_path / "theta.json"), obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * len(text), peak / len(text)


@pytest.mark.parametrize("what, bound", [("product_rows", 0.6e6), ("element", 0.8e6)],
                         ids=["product_rows", "element"])
def test_row_writer_working_memory_is_one_piece(inst_1_2, what, bound):
    # the tracemalloc peak of rendering, beyond the text it renders: the
    # row writer holds the columns and arguments of one piece of at most
    # BATCH_ENTRIES values; the bounds sit below the 1.46 MB and 1.15 MB
    # that the columns of all 6561 rows at once take
    emb, omega = inst_1_2
    theta = nc.quantum_theta(emb, GaussianVector.pure(omega, emb.q), 2)
    obj = (theta.multiply(theta).to_dict()["coeffs"] if what == "product_rows" else
           nc.quantum_theta(emb, GaussianVector.pure(omega, emb.q), 4))
    tracemalloc.start()
    try:
        pieces = reports._pieces(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pieces) > 10
    assert peak - sum(map(len, pieces)) < bound, peak - sum(map(len, pieces))


def test_write_report_that_fails_to_render_leaves_no_file(tmp_path):
    path = tmp_path / "r.json"
    with pytest.raises(ValueError):
        reports.write_report(str(path), {"x": float("nan")})
    assert not path.exists()


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


# rows per piece of the row writer: for a d = 2 element (im, k and re: 4
# values a row) at the default budget, and in the boundary tests, which
# set the budget to _PIECE rows; the side of a square cube with room for
# two pieces and one row
_ELEMENT_PIECE = BATCH_ENTRIES // 4
_PIECE = 4096
_BULK_SIDE = 2 * (int(np.sqrt(2 * _PIECE + 1)) // 2) + 3


@pytest.fixture
def piece_of(monkeypatch):
    """Set the batch budget to _PIECE rows of `values` values each."""
    return lambda values: monkeypatch.setattr(nc.lattice, "BATCH_ENTRIES",
                                              values * _PIECE)


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
        return _bulk_element(draw(st.sampled_from([_ELEMENT_PIECE - 1, _ELEMENT_PIECE,
                                                   _ELEMENT_PIECE + 1])),
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
    """None if el renders as the frozen renderer writes el.to_dict(), in a
    dict and in a list (a list of to_dict() rows takes the row writer in
    render_report too), else the first lines that differ."""
    return _mismatch(render_report({"e": el, "l": [el]}),
                     _frozen_render_report({"e": el.to_dict(), "l": [el.to_dict()]}))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_elements())
def test_element_renders_as_its_dict(el):
    assert _element_mismatch(el) is None


@pytest.mark.parametrize("size", [0, 1, _PIECE - 1, _PIECE, _PIECE + 1, 2 * _PIECE + 1])
def test_element_chunk_boundaries(size, piece_of):
    piece_of(4)
    assert _element_mismatch(_bulk_element(size, seed=size)) is None


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("at", [0, _PIECE + 2])
@pytest.mark.parametrize("part", ["re", "im"])
def test_element_non_finite_raises(bad, at, part, piece_of):
    piece_of(4)
    values = _bulk_element(2 * _PIECE, seed=at).values.copy()
    values.ravel()[at] = complex(bad, 0.5) if part == "re" else complex(1.0, bad)
    el = QuantumElement(_EMBEDDINGS[2], values)
    for obj in ({"e": el}, {"e": el.to_dict()}):
        with pytest.raises(ValueError):
            render_report(obj)


# The row writer against the frozen renderer on lists of dicts.

_ROW_KEYS = st.text(alphabet='ab%"\n\\{d', max_size=4)
_ROW_INTS = st.integers(-9, 9) | st.integers() | st.sampled_from(
    [2**63, -2**63 - 1, 2**64 + 1, -(3**90)])
_ROW_KINDS = ["float", "int", "floats", "ints", "bool", "str", "empty"]
# strings with what a template or a quoted string must escape
_ROW_STRS = ['"', "\n", "%", "%s%%d", 'a"b\n%', "\\\t", ""]
# changes after which a list of rows is no longer uniform, or not finite
_ROW_BREAKS = [None, "bool", "np.float64", "str", "none", "ragged", "empty",
               "missing", "renamed", "int_key", "nan", "inf", "huge_int",
               "bool_int", "empty_beside", "np.bool_"]


def _uniform_rows(keys, kinds, width, size, floats, ints, seed):
    """`size` dicts with the keys `keys`; the values of key j are of kind
    kinds[j] (lists have `width` entries, "empty" ones none), drawn from
    the pools `floats`, `ints` and _ROW_STRS and, for floats, a normal law
    over many decades."""
    rng = np.random.default_rng(seed)

    def values(kind, count):
        if kind in ("int", "ints"):
            return [ints[i] for i in rng.integers(0, len(ints), count)]
        if kind == "bool":
            return (rng.random(count) < 0.5).tolist()
        if kind == "str":
            return [_ROW_STRS[i] for i in rng.integers(0, len(_ROW_STRS), count)]
        if kind == "empty":
            return [[] for _ in range(count)]
        normal = rng.normal(size=count) * 10.0 ** rng.integers(-320, 300, count)
        pooled = np.array(floats)[rng.integers(0, len(floats), count)]
        return np.where(rng.random(count) < 0.7, pooled, normal).tolist()

    columns = []
    for kind in kinds:
        if kind in ("floats", "ints"):
            flat = values(kind, size * width)
            columns.append([flat[i:i + width] for i in range(0, len(flat), width)])
        else:
            columns.append(values(kind, size))
    return [dict(zip(keys, row)) for row in zip(*columns)]


_NUMERIC_KINDS = ("float", "int", "floats", "ints")


def _break_rows(rows, kinds, how, at, column):
    """rows after the change `how` at row `at`, key number `column`."""
    row = rows[at]
    k = list(row)[column]
    listed = kinds[column] in ("floats", "ints")
    value = row[k][0] if listed else row[k]

    def put(v):
        if listed:
            row[k] = [v] + row[k][1:]
        else:
            row[k] = v

    if how == "bool":
        put(True)
    elif how == "np.float64":
        put(np.float64(value) if kinds[column] in _NUMERIC_KINDS else 0.5)
    elif how == "str":
        put("x")
    elif how == "none":
        row[k] = None
    elif how == "ragged":
        row[k] = row[k] + [1] if listed else [value]
    elif how == "empty":
        for r in (rows if at % 2 else [row]):
            r[k] = []
    elif how == "missing":
        del row[k]
    elif how == "renamed":
        row[k + "~"] = row.pop(k)
    elif how == "int_key":
        row[len(row)] = row.pop(k)
    elif how in ("nan", "inf"):
        put(float(how))
    elif how == "huge_int":
        put(10**4400)  # beyond the digits int to str writes
    elif how == "bool_int":
        put(1 if kinds[column] == "bool" else True)
    elif how == "empty_beside":
        row[k] = [1] if kinds[column] == "empty" else []
    elif how == "np.bool_":
        put(np.bool_(True))
    return rows


@st.composite
def _row_lists(draw):
    keys = draw(st.lists(_ROW_KEYS, min_size=1, max_size=4, unique=True))
    kinds = draw(st.lists(st.sampled_from(_ROW_KINDS), min_size=len(keys),
                          max_size=len(keys)))
    width = draw(st.integers(1, 3))
    size = draw(st.integers(1, 5))
    if draw(st.integers(0, 19)) == 0:
        # around the rows per piece of the row writer
        values = sum({"floats": width, "ints": width, "empty": 0}.get(kind, 1)
                     for kind in kinds)
        piece = max(1, BATCH_ENTRIES // max(values, 1))
        size = draw(st.sampled_from([piece - 1, piece, piece + 1]))
    rows = _uniform_rows(
        keys, kinds, width, size,
        draw(st.lists(_floats, min_size=1, max_size=6)),
        draw(st.lists(_ROW_INTS, min_size=1, max_size=6)), draw(st.integers(0, 2**32 - 1)))
    how = draw(st.sampled_from(_ROW_BREAKS))
    if how is not None:
        rows = _break_rows(rows, kinds, how, draw(st.integers(0, size - 1)),
                           draw(st.integers(0, len(keys) - 1)))
    return draw(st.sampled_from([list, tuple, lambda r: {"rows": r}]))(rows), how


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_row_lists())
def test_row_lists_equal_frozen_renderer(drawn):
    obj, how = drawn
    got, want = _outcome(render_report, obj), _outcome(_frozen_render_report, obj)
    assert _mismatch(got, want) is None
    if how in ("nan", "inf", "huge_int"):
        assert got is ValueError


@pytest.mark.parametrize("size", [1, _PIECE - 1, _PIECE, _PIECE + 1, 2 * _PIECE + 1])
def test_row_chunk_boundaries(size, piece_of):
    piece_of(3 + 3 + 1)
    rows = _uniform_rows(["a%d", 'k"\n', "re"], ["floats", "ints", "float"], 3, size,
                         _EDGE_FLOATS, [0, -1, 2**64, 7], seed=size)
    assert _mismatch(render_report(rows), _frozen_render_report(rows)) is None


def test_row_writer_takes_bool_str_and_empty_columns():
    # rows shaped like the functional-equation entries of verify.json take
    # the row writer; a bool beside an int, [] beside [1] and np.bool_ do not
    rows = [{"g": [i, -i], "kind": 'm"od\n%s', "interior_radius": i,
             "max_residual": 0.1 * i, "degenerate": i == 2, "witnesses": [],
             "pass": True} for i in range(5)]
    pieces = []
    assert reports._render_dict_rows(rows, "", pieces)
    assert "".join(pieces) + "\n" == _frozen_render_report(rows) == render_report(rows)
    for key, value in (("pass", 1), ("witnesses", [1]), ("degenerate", np.bool_(True))):
        broken = [dict(r) for r in rows]
        broken[3][key] = value
        assert not reports._render_dict_rows(broken, "", pieces), key
        assert len(pieces) == 2, key  # refused rows append nothing
        assert render_report(broken) == _frozen_render_report(broken), key


def test_row_writer_withdraws_a_list_whose_later_piece_is_not_uniform(monkeypatch):
    # pieces of two rows: the writer has appended the first pieces when it
    # meets the bool beside ints in the third, removes them and refuses
    rows = [{"a": i, "b": [0.5 * i, -1.5 * i]} for i in range(7)]
    monkeypatch.setattr(nc.lattice, "BATCH_ENTRIES", 2 * 3)
    pieces = ["x"]
    assert reports._render_dict_rows(rows, "", pieces)
    assert len(pieces) == 6  # "x", four pieces and the closing bracket
    rows[5]["a"] = True
    pieces = ["x"]
    assert not reports._render_dict_rows(rows, "", pieces)
    assert pieces == ["x"]
    assert render_report(rows) == _frozen_render_report(rows)
