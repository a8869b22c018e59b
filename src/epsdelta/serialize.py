"""Deterministic text serialization.

JSON output carries floats at 17 significant digits (lossless for
float64), CSV at 12.  JSON has no inf or NaN, so a document holding one
is refused.  Both are emitted with fixed key order and "\\n" line
endings so repeated runs are byte-identical.  A 2-D float array prints
as its ``tolist()`` would, through one ``%`` template for all its rows.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import EpsDeltaError


def format_float(v: float, sig: int = 17) -> str:
    return "%.*g" % (sig, float(v))


def _not_json(v: float) -> EpsDeltaError:
    return EpsDeltaError(f"JSON cannot hold the value {format_float(v)}; use --output csv")


def _is_table(obj) -> bool:
    """Whether ``obj`` is a 2-D float array with cells, which prints through a row template."""
    return isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind == "f" and obj.size > 0


def _rows_text(a: np.ndarray, row: str, sep: str) -> str:
    """The rows of a 2-D array, each through the ``%`` template ``row``, ``sep`` between."""
    return sep.join([row] * len(a)) % tuple(a.ravel().tolist())


def _emit(obj, indent: int) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        text = format_float(obj)
        if not text[-1].isdigit():  # inf or nan: a finite float ends in a digit
            raise _not_json(obj)
        return text
    if isinstance(obj, str):
        return json.dumps(obj)
    pad = "  " * (indent + 1)
    if isinstance(obj, np.ndarray):
        if not _is_table(obj):
            return _emit(obj.tolist(), indent)
        finite = np.isfinite(obj)
        if not finite.all():
            # the first in row order, as the list's emitter meets it
            raise _not_json(obj.ravel()[np.argmin(finite.ravel())])
        # each row is a list one level deeper, as _emit lays it out
        item = "\n" + pad + "  %.17g"
        row = pad + "[" + ",".join([item] * obj.shape[1]) + "\n" + pad + "]"
        return "[\n" + _rows_text(obj, row, ",\n") + "\n" + "  " * indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{pad}{json.dumps(str(k))}: {_emit(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + "  " * indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}{_emit(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + "  " * indent + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_text(obj) -> str:
    return _emit(obj, 0)


def _cell(v) -> str:
    if v is None:
        return ""
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, float):
        return format_float(v, 12)
    return str(v)


def csv_text(header: list[str], rows) -> str:
    if _is_table(rows):
        return ",".join(header) + "\n" + _rows_text(
            rows, ",".join(["%.12g"] * rows.shape[1]), "\n") + "\n"
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"
