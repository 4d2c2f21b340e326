"""JSON serialization helpers.

Complex scalars are stored as [re, im] pairs; arrays as nested lists of
pairs.  Files are written with sorted keys and a fixed float format so
repeated runs are byte-identical.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__all__ = [
    "FormatError",
    "encode_complex_array",
    "decode_complex_array",
    "finite_number",
    "read_json",
    "write_json",
]


class FormatError(ValueError):
    """Malformed structured-text input (parse or shape errors)."""


def encode_complex_array(arr) -> list:
    arr = np.asarray(arr, dtype=complex)

    def enc(x):
        if isinstance(x, np.ndarray) and x.ndim > 0:
            return [enc(row) for row in x]
        return [float(np.real(x)), float(np.imag(x))]

    return enc(arr)


def _is_number(value) -> bool:
    """A JSON number as json.load returns it: an int or a float, and never a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def finite_number(value) -> float:
    """value as a float if it is a finite JSON number; a numeric string, a bool, NaN or Infinity is refused."""
    if not _is_number(value):
        raise FormatError(f"expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise FormatError(f"{value!r} is not a finite number")
    return x


def _decode(node):
    if isinstance(node, (list, tuple)) and len(node) == 2 and all(_is_number(x) for x in node):
        return complex(finite_number(node[0]), finite_number(node[1]))
    if isinstance(node, (list, tuple)):
        return [_decode(x) for x in node]
    raise FormatError(f"expected [re, im] pair or nested list, got {node!r}")


def decode_complex_array(node) -> np.ndarray:
    """The complex array a nested list of finite [re, im] pairs encodes."""
    values = _decode(node)
    try:
        return np.asarray(values, dtype=complex)
    except ValueError as exc:
        raise FormatError(f"ragged complex array: {exc}") from exc


def read_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"top-level JSON value in {path} must be an object")
    return payload


def write_json(path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
