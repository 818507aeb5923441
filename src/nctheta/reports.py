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
INDENT = "  "
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


def _render(obj, pad: str, out: list) -> None:
    """Append obj's JSON text to out, inner lines indented by pad + INDENT;
    uniform lists of dicts and an exact QuantumElement take the row writer."""
    inner, sep = pad + INDENT, ",\n" + pad + INDENT
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        _render({"re": float(obj.real), "im": float(obj.imag)}, pad, out)
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, np.ndarray):
        _render(obj.tolist(), pad, out)
    elif isinstance(obj, dict):
        if any(not isinstance(k, str) for k in obj):
            raise TypeError("report keys must be strings")
        for i, k in enumerate(sorted(obj)):
            out.append((sep if i else "{\n" + inner) + f'"{k}": ')
            _render(obj[k], inner, out)
        out.append("\n" + pad + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        if not _render_dict_rows(obj, pad, out):
            for i, v in enumerate(obj):
                out.append(sep if i else "[\n" + inner)
                _render(v, inner, out)
            out.append("\n" + pad + "]" if obj else "[]")
    elif type(obj) is QuantumElement:  # as its to_dict(), from its arrays
        K, c = obj.as_arrays()
        out.append(f'{{\n{inner}"coeffs": ')
        _render_rows(["im", "k", "re"], [c.imag, K, c.real], inner, out)
        out.append(f',\n{inner}"radius": {obj.radius}\n{pad}}}')
    else:
        raise TypeError(f"cannot serialize {type(obj)} into a report")


def _render_dict_rows(rows, pad: str, out: list) -> bool:
    """Append rows, a list or tuple, through _render_rows and return True
    if it is not empty and holds exact dicts with the same string keys
    whose values per key are all exact floats, all exact ints, all bools,
    all strs, or all lists of one length of one of these; else False."""
    first = rows[0] if rows else None
    if set(map(type, rows)) != {dict} or set(map(type, first)) != {str} \
            or set(map(len, rows)) != {len(first)}:
        return False
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
            return False
        columns.append(np.array(col, float if types == {float} else object).reshape(shape))
    _render_rows(keys, columns, pad, out)
    return True


def _render_rows(keys, columns, pad: str, out: list) -> None:
    """Append a list of n dicts with the sorted keys `keys`, as _render
    writes it, from one array per key: (n,) for scalars, (n, m) for lists
    of m scalars (m = 0 or n = 0 writes []).  A float array is formatted
    here; any other array is written by %s (ints, kept as ints by dtype
    object, and the text of bools and strings).  Each distinct float (bit
    pattern) of a column is formatted once; the rows are filled into one
    row template by one % call per ELEMENT_CHUNK rows, a piece each."""
    p1, p2, p3 = (pad + INDENT * j for j in (1, 2, 3))
    n, members, parts = len(columns[0]), [], []
    for k, col in zip(keys, columns):
        at, listed, width = None, col.ndim == 2, col.size // max(n, 1)
        if col.dtype.kind == "f":
            # _format_float's rule for a whole column by one % call: the speed path
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
    row, sep = f"{{\n{p2}" + f",\n{p2}".join(members) + f"\n{p1}}}", f",\n{p1}"
    for start in range(0, n, ELEMENT_CHUNK):
        rows = slice(start, start + ELEMENT_CHUNK)
        args = np.concatenate([col[rows].astype(object) if at is None else col[at[rows]]
                               for col, at in parts], axis=1)
        head = sep if start else f"[\n{p1}"
        out.append((head + sep.join([row] * len(args))) % tuple(args.ravel().tolist()))
    out.append(f"\n{pad}]" if n else "[]")


def _pieces(obj) -> list:
    """The report's text as the list of pieces that is joined once."""
    out = []
    _render(obj, "", out)
    out.append("\n")
    return out


def render_report(obj) -> str:
    """Serialize a report object to deterministic JSON text."""
    return "".join(_pieces(obj))


def write_report(path, obj):
    """Write the report to path and return its text.  It renders in full
    before the file opens, so a failed render leaves no file.  The text is
    joined from the written pieces only because perfbench's tracer counts
    `reports.render.bytes` from it; the join doubles the peak memory."""
    pieces = _pieces(obj)
    with open(path, "w") as fh:
        fh.writelines(pieces)
    return "".join(pieces)
