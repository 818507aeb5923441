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
* A ``QuantumElement`` (exact type) as its ``to_dict()`` would be written,
  byte for byte: ``{"coeffs": [{"im", "k", "re"} rows], "radius": R}``,
  written from its support arrays without building that dict.
* Strings with backslash, double quote, newline and tab escaped.
* Any other object raises TypeError.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import QuantumElement

# support rows of a QuantumElement per %-formatting call of its writer
ELEMENT_CHUNK = 4096


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
    """element.to_dict() as _render writes it, from element.as_arrays():
    one row template per choice of the float formats of "im" and "re",
    and one template % args call per ELEMENT_CHUNK rows."""
    p1, p2, p3, p4 = (pad + " " * (indent * j) for j in (1, 2, 3, 4))
    tail = f'"radius": {element.radius}\n{pad}}}'
    K, c = element.as_arrays()
    if not len(K):
        return f'{{\n{p1}"coeffs": [],\n{p1}{tail}'
    k = f",\n{p4}".join(["%d"] * K.shape[1])
    # templates[2 * re_short + im_short]: a part is short when
    # _format_float writes it with one decimal
    templates = [f'{{\n{p3}"im": {im},\n{p3}"k": [\n{p4}{k}\n{p3}],\n'
                 f'{p3}"re": {re}\n{p2}}}'
                 for re in ("%.17g", "%.1f") for im in ("%.17g", "%.1f")]
    sep = f",\n{p2}"
    chunks = []
    for start in range(0, len(K), ELEMENT_CHUNK):
        rows = slice(start, start + ELEMENT_CHUNK)
        parts = np.stack((c.imag[rows], c.real[rows]), axis=1)
        finite = np.isfinite(parts)
        if not finite.all():
            _format_float(float(parts[~finite][0]))  # raises ValueError
        short = (np.trunc(parts) == parts) & (np.abs(parts) < 1e16)
        args = np.empty((len(parts), K.shape[1] + 2), dtype=object)
        args[:, 0], args[:, 1:-1], args[:, -1] = parts[:, 0], K[rows], parts[:, 1]
        template = sep.join([templates[i] for i in
                             (2 * short[:, 1] + short[:, 0]).tolist()])
        chunks.append(template % tuple(args.ravel().tolist()))
    return f'{{\n{p1}"coeffs": [\n{p2}' + sep.join(chunks) + \
        f'\n{p1}],\n{p1}{tail}'


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
