"""Deterministic text serialization.

JSON output carries floats at 17 significant digits (lossless for
float64), CSV at 12.  JSON has no inf or NaN, so a document holding one
is refused.  Both are emitted with fixed key order and "\\n" line
endings so repeated runs are byte-identical.
"""

from __future__ import annotations

import json

from .errors import EpsDeltaError


def format_float(v: float, sig: int = 17) -> str:
    return "%.*g" % (sig, float(v))


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
            raise EpsDeltaError(f"JSON cannot hold the value {text}; use --output csv")
        return text
    if isinstance(obj, str):
        return json.dumps(obj)
    pad = "  " * (indent + 1)
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
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"
