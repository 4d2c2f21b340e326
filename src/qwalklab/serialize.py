"""JSON serialization helpers.

Complex scalars are stored as [re, im] pairs; arrays as nested lists of
pairs.  Files are written with sorted keys and a fixed float format so
repeated runs are byte-identical.
"""
from __future__ import annotations

import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = [
    "FormatError",
    "encode_complex_array",
    "decode_complex_array",
    "finite_number",
    "integer",
    "invalid",
    "labels_and_name",
    "only_keys",
    "read_json",
    "write_json",
]


class FormatError(ValueError):
    """Input the program refuses: malformed structured text, or a config or file that is invalid or inconsistent."""


def encode_complex_array(arr) -> list:
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


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


def integer(value) -> int:
    """value if it is a JSON integer; a float such as 2.0 or 2.5, a numeric string or a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"expected an integer, got {value!r}")
    return value


@contextmanager
def invalid(field: str):
    """Refuse a bad value of field: a TypeError, ValueError or OverflowError inside becomes a FormatError naming it."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"invalid {field}: {exc}") from exc


def labels_and_name(payload: dict, count: int, prefix: str, name: str) -> tuple[tuple[str, ...], str]:
    """payload's 'labels', count strings (absent: prefix0, prefix1, ...), and its 'name', a string (absent: name)."""
    labels = payload["labels"] if "labels" in payload else [f"{prefix}{i}" for i in range(count)]
    if not (isinstance(labels, list) and len(labels) == count and all(isinstance(x, str) for x in labels)):
        raise FormatError(f"invalid 'labels': expected a list of {count} strings, got {labels!r}")
    name = payload.get("name", name)
    if not isinstance(name, str):
        raise FormatError(f"invalid 'name': expected a string, got {name!r}")
    return tuple(labels), name


def only_keys(payload: dict, allowed, required=(), where: str = "") -> None:
    """Refuse payload, with a FormatError naming the key and ending in where, if one of its keys is
    not in allowed, or else if a key of required is absent."""
    unknown = [key for key in payload if key not in allowed]
    if unknown:
        raise FormatError(f"unknown key {unknown[0]!r}{where}")
    missing = [key for key in required if key not in payload]
    if missing:
        raise FormatError(f"missing {missing[0]!r}{where}")


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
        raise FormatError("ragged nested list: entries at one depth differ in shape") from exc


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
