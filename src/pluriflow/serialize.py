"""Deterministic text output: JSON with 17-significant-digit floats, CSV; and
the checks on numbers read from JSON input."""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["format_float", "dumps_json", "write_csv", "json_int", "json_number", "json_array"]

_INDENT = 2  # spaces per nesting level of dumps_json
_string = json.JSONEncoder(ensure_ascii=False).encode  # json.dumps(s, ensure_ascii=False), one encoder


def format_float(x: float) -> str:
    x = float(x) + 0.0  # -0.0 + 0.0 is 0.0: a zero prints as 0 whatever its sign
    if math.isfinite(x):
        return format(x, ".17g")
    if x != x:
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


def dumps_json(obj) -> str:
    """JSON text with stable key order and reproducible float formatting."""
    return "".join(_emit(obj, 0)) + "\n"


def _emit(obj, level):
    pad = " " * (_INDENT * level)
    pad_in = " " * (_INDENT * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        yield "{\n"
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            yield pad_in + _string(str(k)) + ": "
            yield from _emit(v, level + 1)
            yield ",\n" if i + 1 < len(items) else "\n"
        yield pad + "}"
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            yield "[]"
            return
        simple = all(isinstance(x, (int, float, bool)) or x is None for x in seq)
        if simple:
            yield "[" + ", ".join("".join(_emit(x, 0)) for x in seq) + "]"
            return
        yield "[\n"
        for i, x in enumerate(seq):
            yield pad_in
            yield from _emit(x, level + 1)
            yield ",\n" if i + 1 < len(seq) else "\n"
        yield pad + "]"
    elif isinstance(obj, bool) or obj is None:
        yield {True: "true", False: "false", None: "null"}[obj]
    elif isinstance(obj, (int, np.integer)):
        yield str(int(obj))
    elif isinstance(obj, (float, np.floating)):
        yield format_float(float(obj))
    elif isinstance(obj, str):
        yield _string(obj)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def write_csv(path_or_file, columns: dict):
    """Write named columns (equal-length arrays) as CSV with 17-digit floats.

    The text is format_float's, cell for cell: a finite table goes through
    one "%.17g" row template, any other row by row through format_float."""
    names = list(columns)
    cols = [np.asarray(columns[n], dtype=float) for n in names]
    lengths = {n: len(c) for n, c in zip(names, cols)}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"CSV columns must have equal lengths, got {lengths}")
    text = ",".join(names) + "\n"
    if cols and cols[0].size:
        with np.errstate(invalid="ignore"):  # a signaling NaN stays a NaN
            table = np.stack(cols, axis=1) + 0.0  # -0.0 + 0.0 is 0.0: a zero prints as 0 whatever its sign
        if np.isfinite(table).all():
            row = ",".join(["%.17g"] * len(cols)) + "\n"
            text += (row * len(cols[0])) % tuple(table.ravel().tolist())
        else:
            text += "".join(",".join(map(format_float, r)) + "\n" for r in table.tolist())
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w") as fh:
            fh.write(text)
    return text


_JSON_NUMBER_TYPES = {int, float}  # what json.load makes of a JSON number


def json_int(x, name: str) -> int:
    """x, which must be a JSON integer: not a boolean, a float or a string."""
    if type(x) is not int:
        raise TypeError(f"{name} must be a JSON integer, got {x!r}")
    return x


def json_number(x, name: str) -> float:
    """x, which must be a JSON number: not a boolean or a string."""
    if type(x) not in _JSON_NUMBER_TYPES:
        raise TypeError(f"{name} must be a JSON number, got {x!r}")
    return float(x)


def json_array(x, name: str) -> np.ndarray:
    """x as a float array; x must be a JSON number or a list, nested to any
    depth, of JSON numbers."""
    entries = np.array(x, dtype=object)
    if not set(map(type, entries.flat)) <= _JSON_NUMBER_TYPES:
        bad = next(y for y in entries.flat if type(y) not in _JSON_NUMBER_TYPES)
        if type(bad) is list:  # np.array stops at the depth where the lists' lengths differ
            raise ValueError(f"{name} must be a rectangular array, got a row {bad!r}")
        raise TypeError(f"{name} must hold only JSON numbers, got {bad!r}")
    return entries.astype(float)
