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
* One row writer writes, with the bytes of these rules, a
  ``QuantumElement`` (exact type, as its ``to_dict()``) and each list or
  tuple of dicts with the string keys of its first row whose values per
  key are, within each piece of rows, all exact floats, all exact ints,
  all exact bools, all exact strs, or all lists of the first row's
  length (all empty, too) of one of these four.  A piece holds at most
  ``lattice.BATCH_ENTRIES`` values (one row where one row has more), and
  the writer builds its columns and its text in one pass over its rows,
  so its working memory is one piece's, not the list's; an element adds
  the texts of its distinct coefficient parts, formatted once for the
  whole support, and a 4-byte index into them per part and row.
* Strings with backslash, double quote, newline and tab escaped.
* Any other object raises TypeError.
"""

from __future__ import annotations

import math
from itertools import chain, repeat

import numpy as np

from .lattice import QuantumElement, batch_rows

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
        # each part's distinct values formatted once for the whole support:
        # values repeat across pieces (c_k = c_-k), and a d=6 theta element
        # formats 15 times as many values piece by piece
        (im, at_im), (re, at_re) = _float_table(c.imag), _float_table(c.real)
        step = batch_rows(K.shape[1] + 2)  # im, k and re
        _render_rows(["im", "k", "re"],
                     ([im[at_im[i:i + step]], K[i:i + step], re[at_re[i:i + step]]]
                      for i in range(0, len(K), step)), inner, out)
        out.append(f',\n{inner}"radius": {obj.radius}\n{pad}}}')
    else:
        raise TypeError(f"cannot serialize {type(obj)} into a report")


def _render_dict_rows(rows, pad: str, out: list) -> bool:
    """Append rows, a list or tuple, through _render_rows and return True
    if it is not empty and holds exact dicts with the string keys of its
    first row whose values per key are, in each piece of rows, all exact
    floats, all exact ints, all bools, all strs, or all lists of the
    length of the first row's list of one of these; else append nothing
    and return False.  The columns are built one piece at a time."""
    first = rows[0] if rows else None
    if type(first) is not dict or set(map(type, first)) != {str}:
        return False
    keys = sorted(first)
    widths = [len(first[k]) if type(first[k]) is list else None for k in keys]
    step = batch_rows(sum(1 if w is None else w for w in widths))
    return _render_rows(keys, (_dict_columns(rows[i:i + step], keys, widths)
                               for i in range(0, len(rows), step)), pad, out)


def _dict_columns(rows, keys, widths):
    """The columns of _render_rows for a piece of dict rows, or None if the
    piece is not uniform (see _render_dict_rows); `widths` holds each
    key's list length, None for a scalar key."""
    if set(map(type, rows)) != {dict} or set(map(len, rows)) != {len(keys)}:
        return None
    columns = []
    for k, width in zip(keys, widths):
        col = list(map(dict.get, rows, repeat(k)))  # None where k is missing
        types, shape = set(map(type, col)), (len(rows),)
        if width is not None:
            if types != {list} or set(map(len, col)) != {width}:
                return None
            col = list(chain.from_iterable(col))
            # empty lists leave no type: written as a width-0 int column
            types, shape = set(map(type, col)) or {int}, (len(rows), width)
        if types == {bool}:
            col = [_BOOLS[v] for v in col]
        elif types == {str}:
            col = list(map(_quote, col))
        elif types != {int} and types != {float}:
            return None
        columns.append(np.array(col, float if types == {float} else object).reshape(shape))
    return columns


def _render_rows(keys, pieces, pad: str, out: list) -> bool:
    """Append a list of dicts with the sorted keys `keys`, as _render
    writes it, from `pieces`: per piece of rows, in order, one array per
    key, (n,) for scalars and (n, m) for lists of m scalars (m = 0 writes
    []), or None, which removes what was appended and returns False.  A
    float array is formatted here, each distinct float (bit pattern) once
    per piece; any other array is written by %s (ints, kept as ints by
    dtype object, and the text of bools, strings and formatted floats).
    Each piece is one text: its rows filled into one row template by one
    % call."""
    p1, p2, p3 = (pad + INDENT * j for j in (1, 2, 3))
    mark, head, sep = len(out), f"[\n{p1}", f",\n{p1}"
    for columns in pieces:
        if columns is None:
            del out[mark:]
            return False
        n, members, args = len(columns[0]), [], []
        for k, col in zip(keys, columns):
            listed, width = col.ndim == 2, col.size // n
            if col.dtype.kind == "f":
                texts, at = _float_table(col)
                col = texts[at]
            value = "%s"
            if listed:
                value = f"[\n{p3}" + f",\n{p3}".join([value] * width) + f"\n{p2}]" \
                    if width else "[]"
            members.append('"' + k.replace("%", "%%") + '": ' + value)
            args.append(col.reshape(n, width))
        row = f"{{\n{p2}" + f",\n{p2}".join(members) + f"\n{p1}}}"
        args = np.concatenate(args, axis=1, dtype=object)
        out.append((head + sep.join([row] * n)) % tuple(args.ravel().tolist()))
        head = sep
    out.append(f"\n{pad}]" if head == sep else "[]")
    return True


def _float_table(col):
    """The texts of the distinct floats (bit patterns) of col by
    _format_float's rule, all formatted by one % call (the speed path),
    and the position of each float's text, an int32 array of col's shape."""
    if not np.isfinite(col).all():
        _format_float(float(col[~np.isfinite(col)][0]))  # raises ValueError
    u, at = np.unique(col.view(np.int64), return_inverse=True)
    u = u.view(float)
    formats = np.where((np.trunc(u) == u) & (np.abs(u) < 1e16), "%.1f", "%.17g")
    return (np.array((",".join(formats.tolist()) % tuple(u.tolist())).split(","), dtype=object),
            at.reshape(col.shape).astype(np.int32))


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
