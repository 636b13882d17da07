"""Serialization for distributions, channels, and reports.

JSON is the primary interchange format.  Floats are emitted with 17
significant digits so every IEEE-754 double round-trips losslessly:
parsing an emitted document and emitting it again reproduces the exact
same bytes.  The emitter is deliberately tiny and deterministic (keys
in insertion order, no whitespace surprises) rather than delegating
float formatting to :mod:`json`.

CSV support covers the two array-like payloads: a distribution is a
single record of probabilities, a channel has one record per input
symbol.  Parsers reject NaN and negative entries up front so malformed
files fail loudly instead of polluting downstream math.

:func:`emit_json` takes numpy numbers and arrays by the :mod:`numbers` ABCs and
``ndim``, so the CLI verbs built on :mod:`~ldpcontract.formulas` never load numpy;
the parsers import it when called.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from typing import TYPE_CHECKING, Any, NoReturn

if TYPE_CHECKING:
    from .probability import Channel, ProbVector

__all__ = [
    "emit_json",
    "distribution_to_json",
    "distribution_from_json",
    "channel_to_json",
    "channel_from_json",
    "distribution_to_csv",
    "distribution_from_csv",
    "channel_to_csv",
    "channel_from_csv",
]


def _fail(message: str, cause: BaseException | None = None) -> NoReturn:
    """Raise ``ProbabilityError`` from ``cause``, importing numpy only on this path."""
    from .probability import ProbabilityError
    raise ProbabilityError(message) from cause


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        _fail("cannot serialize NaN")
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _emit(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, float):  # numpy's float64 too; the ABCs below are slower
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, (int, numbers.Integral)):  # Python and numpy integers
        out.append(str(int(obj)))
    elif isinstance(obj, numbers.Real):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)) or getattr(obj, "ndim", 0) > 0:  # an array
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    else:
        _fail(f"cannot serialize object of type {type(obj).__name__}")


def emit_json(obj: Any) -> str:
    """Deterministic JSON text with lossless float formatting."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def _parse_numbers(values, *, what: str) -> Channel | ProbVector:
    """``values`` checked as floats; a ``Channel`` for ``what="channel"``, else a ``ProbVector``."""
    import numpy as np
    from .probability import Channel, ProbVector
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        _fail(f"{what}: not a numeric array", exc)
    if np.any(np.isnan(arr)):
        _fail(f"{what}: contains NaN")
    if np.any(arr < 0):
        _fail(f"{what}: contains negative entries")
    return Channel(arr) if what == "channel" else ProbVector(arr)


# ---------------------------------------------------------------- JSON


def distribution_to_json(p: ProbVector) -> str:
    return emit_json(p.mass)


def distribution_from_json(text: str) -> ProbVector:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        _fail(f"invalid JSON: {exc}", exc)
    if not isinstance(data, list):
        _fail("distribution JSON must be an array of probabilities")
    return _parse_numbers(data, what="distribution")


def channel_to_json(k: Channel) -> str:
    return emit_json(k.rows)


def channel_from_json(text: str) -> Channel:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        _fail(f"invalid JSON: {exc}", exc)
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        _fail("channel JSON must be an array of rows")
    return _parse_numbers(data, what="channel")


# ---------------------------------------------------------------- CSV


def distribution_to_csv(p: ProbVector) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(_fmt_float(v) for v in p.mass)
    return buf.getvalue()


def distribution_from_csv(text: str) -> ProbVector:
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if len(rows) != 1:
        _fail("distribution CSV must contain exactly one record")
    return _parse_numbers(rows[0], what="distribution")


def channel_to_csv(k: Channel) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in k.rows:
        writer.writerow(_fmt_float(v) for v in row)
    return buf.getvalue()


def channel_from_csv(text: str) -> Channel:
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if not rows:
        _fail("channel CSV is empty")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        _fail("channel CSV rows have inconsistent lengths")
    return _parse_numbers(rows, what="channel")
