"""Deterministic JSON emission for verification reports.

Identical inputs always serialize to identical bytes.  The byte contract:

* Layout: two-space indentation, one element or ``"key": value`` member
  per line, members separated by ``",\\n"``; an empty container is ``{}``
  or ``[]``; the text ends with one newline.  Dictionary keys must be
  strings, are written in sorted order, and are written unescaped.
* Floats (Python and numpy): an integral value below 1e16 in magnitude is
  written with one decimal (``2.0``, ``-0.0``), any other value with 17
  significant digits (``%.17g``).  NaN and infinities raise ValueError.
* Integers (Python and numpy) in decimal; booleans (Python and numpy) as
  ``true``/``false``; ``None`` as ``null``.
* Complex numbers as ``{"im": ..., "re": ...}`` objects; numpy arrays as
  nested lists; tuples as lists.
* One chunked row writer writes, with the bytes of these rules, a
  ``QuantumElement`` (exact type, as its ``to_dict()``) and each list or
  tuple of dicts with the same string keys whose values per key are all
  exact floats, all exact ints, all exact bools, all exact strs, or all
  lists of one length (all empty, too) of one of these four.
* Strings with backslash, double quote, newline and tab escaped.
* Any other object raises TypeError.
"""

from __future__ import annotations

import math
from itertools import chain, repeat

import numpy as np

from .lattice import QuantumElement

# rows per %-formatting call of the row writer
ELEMENT_CHUNK = 4096
_BOOLS = ("false", "true")


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"reports must contain finite numbers, got {x}")
    if x.is_integer() and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def _quote(s: str) -> str:
    out = s.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t")
    return f'"{out}"'


def _render(obj, indent: int, pad: str) -> str:
    """Dispatch on the exact type; float and int members of a dict or list
    are formatted in the loop, without a recursive call."""
    t = type(obj)
    if t is float:
        return _format_float(obj)
    if t is int:
        return str(obj)
    if t is str:
        return _quote(obj)
    if t is bool:
        return "true" if obj else "false"
    if t is dict:
        for k in obj:
            if not isinstance(k, str):
                raise TypeError("report keys must be strings")
        if not obj:
            return "{}"
        inner = pad + " " * indent
        parts = []
        for k in sorted(obj):
            v = obj[k]
            t = type(v)
            if t is float:
                parts.append(f'"{k}": {_format_float(v)}')
            elif t is int:
                parts.append(f'"{k}": {v}')
            else:
                parts.append(f'"{k}": {_render(v, indent, inner)}')
        return "{\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "}"
    if t is list or t is tuple:
        if not obj:
            return "[]"
        text = type(obj[0]) is dict and _render_dict_rows(obj, indent, pad)
        if text:
            return text
        inner = pad + " " * indent
        parts = []
        for v in obj:
            t = type(v)
            if t is float:
                parts.append(_format_float(v))
            elif t is int:
                parts.append(str(v))
            else:
                parts.append(_render(v, indent, inner))
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "]"
    if t is QuantumElement:
        return _render_element(obj, indent, pad)
    return _render_other(obj, indent, pad)


def _render_element(element: QuantumElement, indent: int, pad: str) -> str:
    """element.to_dict() as _render writes it, from element.as_arrays()."""
    p1 = pad + " " * indent
    K, c = element.as_arrays()
    coeffs = _render_rows(["im", "k", "re"], [c.imag, K, c.real], indent, p1) \
        if len(K) else "[]"
    return f'{{\n{p1}"coeffs": {coeffs},\n{p1}"radius": {element.radius}\n{pad}}}'


def _render_dict_rows(rows, indent: int, pad: str):
    """rows, a list of dicts, through _render_rows when the dicts have the
    same string keys and each key's values are all exact floats, all exact
    ints, all bools, all strs, or all lists of one length of one of these;
    else None."""
    first = rows[0]
    if set(map(type, first)) != {str} or set(map(type, rows)) != {dict} \
            or set(map(len, rows)) != {len(first)}:
        return None
    keys, columns = sorted(first), []
    for k in keys:
        col = list(map(dict.get, rows, repeat(k)))  # None where k is missing
        types, shape = set(map(type, col)), (len(rows),)
        if types == {list} and len(set(map(len, col))) == 1:
            col = list(chain.from_iterable(col))
            # empty lists leave no type: written as a width-0 int column
            types, shape = set(map(type, col)) or {int}, (len(rows), -1)
        if types == {bool}:
            col = [_BOOLS[v] for v in col]
        elif types == {str}:
            col = list(map(_quote, col))
        elif types != {int} and types != {float}:
            return None
        columns.append(np.array(col, float if types == {float} else object).reshape(shape))
    return _render_rows(keys, columns, indent, pad)


def _render_rows(keys, columns, indent: int, pad: str) -> str:
    """A list of n dicts with the sorted keys `keys` as _render writes it,
    from one array per key: (n,) for scalars, (n, m) for lists of m
    scalars (m = 0 writes []).  A float array is formatted here; any
    other array is written by %s (ints, kept as ints by dtype object, and
    the text of bools and strings).  Each distinct float (bit pattern) of
    a column is formatted once; the rows are filled into one row template,
    by one % call per ELEMENT_CHUNK rows."""
    p1, p2, p3 = (pad + " " * (indent * j) for j in (1, 2, 3))
    n, members, parts = len(columns[0]), [], []
    for k, col in zip(keys, columns):
        at, listed, width = None, col.ndim == 2, col.size // n
        if col.dtype.kind == "f":
            if not np.isfinite(col).all():
                _format_float(float(col[~np.isfinite(col)][0]))  # raises ValueError
            u, at = np.unique(col.view(np.int64), return_inverse=True)
            u = u.view(float)
            formats = np.where((np.trunc(u) == u) & (np.abs(u) < 1e16), "%.1f", "%.17g")
            col = np.array((",".join(formats.tolist()) % tuple(u.tolist())).split(","),
                           dtype=object)
            at = at.reshape(n, width)
        value = "%s"
        if listed:
            value = f"[\n{p3}" + f",\n{p3}".join([value] * width) + f"\n{p2}]" \
                if width else "[]"
        members.append('"' + k.replace("%", "%%") + '": ' + value)
        parts.append((col.reshape(n, width) if at is None else col, at))
    row, sep, chunks = f"{{\n{p2}" + f",\n{p2}".join(members) + f"\n{p1}}}", f",\n{p1}", []
    for start in range(0, n, ELEMENT_CHUNK):
        rows = slice(start, start + ELEMENT_CHUNK)
        args = np.concatenate([col[rows].astype(object) if at is None else col[at[rows]]
                               for col, at in parts], axis=1)
        head = sep if start else f"[\n{p1}"  # brackets too: one join, no copy of the text
        chunks.append((head + sep.join([row] * len(args))) % tuple(args.ravel().tolist()))
    return "".join(chunks + [f"\n{pad}]"])


def _render_other(obj, indent: int, pad: str) -> str:
    """None, numpy scalars and arrays, complex numbers and subclasses of the
    builtin types: checked in this order, converted, and rendered again."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return _render({"re": float(obj.real), "im": float(obj.imag)}, indent, pad)
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist(), indent, pad)
    if isinstance(obj, dict):
        return _render({k: obj[k] for k in obj}, indent, pad)
    if isinstance(obj, (list, tuple)):
        return _render(list(obj), indent, pad)
    raise TypeError(f"cannot serialize {type(obj)} into a report")


def render_report(obj) -> str:
    """Serialize a report object to deterministic JSON text."""
    return _render(obj, indent=2, pad="") + "\n"


def write_report(path, obj):
    """Write the report to path and return its text."""
    text = render_report(obj)
    with open(path, "w") as fh:
        fh.write(text)
    return text
