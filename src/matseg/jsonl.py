"""Strict JSON interchange: JSON-lines files and single JSON documents.

A JSON-lines file holds one record, a JSON object, per line; a document
file holds one JSON object. Both readers check each record with
check_record against a table of required keys and their kinds, and
raise InterchangeError naming the file (and the line, where there is one)
on anything else. Each writer has one layout: one ``json.dumps`` per line,
or the whole document at ``indent=1`` with a trailing newline.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator

import numpy as np

from .errors import InterchangeError

# the largest magnitude a stored coordinate or weight may have: squares,
# products and short sums of such numbers stay finite (squares overflow
# near 1.3e154)
MAX_MAGNITUDE = 1e150


def finite(value) -> bool:
    """Whether a JSON value is a number, not a bool, that a float holds finitely."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def unit(value) -> float:
    """A number in [0, 1], else ValueError; also a kind for check_record."""
    if type(value) not in (int, float) or not 0.0 <= value <= 1.0:  # NaN fails the range
        raise ValueError(f"{value!r} is not a number in [0, 1]")
    return value


def int64(value: int) -> int:
    """An int that an int64 array holds, else ValueError; a parse for ``int``."""
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{value} does not fit in 64 bits")
    return value


def check_magnitude(array: np.ndarray, name: str) -> None:
    """ValueError naming the first entry of ``array``, as name[i][j]..., that
    is NaN or beyond MAX_MAGNITUDE in magnitude."""
    bad = ~(np.abs(array) <= MAX_MAGNITUDE)
    if bad.any():
        at = np.unravel_index(np.argmax(bad), array.shape)
        raise ValueError(f"{name}{''.join(f'[{i}]' for i in at)} = {array[at]:g} is beyond {MAX_MAGNITUDE:g}")


def one_of(*choices):
    """A parse that passes the given values only, else raises ValueError."""
    def parse(value):
        if value not in choices:
            raise ValueError(f"expected {' or '.join(map(repr, choices))}, got {value!r}")
        return value
    return parse


def finite_array(values, shape=(None,)) -> np.ndarray:
    """Lists of finite numbers nested to ``shape`` (None: any length) as a
    float array, else ValueError."""
    def fits(v, dims) -> bool:
        return type(v) is list and dims[0] in (None, len(v)) and (
            all(fits(x, dims[1:]) for x in v) if len(dims) > 1 else all(map(finite, v)))

    if not fits(values, shape):
        raise ValueError("expected %s finite numbers" % "x".join(str(n or "n") for n in shape))
    return np.array(values, dtype=np.float64)


# type(), not isinstance(): a bool is not an int here
_TYPES = {int: (int,), float: (int, float), unit: (int, float), bool: (bool,), str: (str,),
          list: (list,), dict: (dict,)}
_decode = json.JSONDecoder().decode


def check_record(rec, fields: dict) -> dict:
    """Check a decoded record against ``fields`` and return it, parsed in place.

    ``fields`` maps each required key to a kind: ``int``, ``float`` (finite),
    ``unit`` (a number in [0, 1]), ``bool``, ``str``, ``list``, ``dict``, or
    ``(kind, parse)`` where ``parse`` replaces the value or raises ValueError
    or TypeError. Other keys pass unchecked. A record that is not an object,
    or lacks a key or its kind, raises ValueError.
    """
    if type(rec) is dict:
        for key, kind in fields.items():
            kind, parse = kind if type(kind) is tuple else (kind, None)
            value = rec.get(key)
            if (type(value) not in _TYPES[kind] or kind is float and not finite(value)
                    or kind is unit and not 0.0 <= value <= 1.0):
                break
            if parse is not None:
                rec[key] = parse(value)
        else:
            return rec
    kinds = (kind[0] if type(kind) is tuple else kind for kind in fields.values())
    raise ValueError("expected {%s}" % ", ".join(f"{k}: {kind.__name__}" for k, kind in zip(fields, kinds)))


def write_jsonl(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in records)


def write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def record_line(path: str, k: int) -> int:
    """The line holding record k (from 0) of a JSON-lines file, as read_jsonl counts them."""
    with open(path, "rb") as fh:
        return [line for line, raw in enumerate(fh, 1) if not raw.isspace()][k]


def _parse(path: str, text: bytes, fields: dict, line: int | None = None) -> dict:
    """The checked record in ``text``, else InterchangeError naming the file."""
    try:
        rec = _decode(text.decode("utf-8"))
    except ValueError as exc:  # also bad UTF-8 and an integer too long to convert
        raise InterchangeError(path, f"invalid JSON: {getattr(exc, 'msg', exc)}",
                               line or getattr(exc, "lineno", None)) from None
    try:
        return check_record(rec, fields)
    except (ValueError, TypeError) as exc:
        raise InterchangeError(path, str(exc), line) from None


def read_json(path: str, fields: dict) -> dict:
    """Read a JSON document: one object that check_record accepts."""
    with open(path, "rb") as fh:
        return _parse(path, fh.read(), fields)


def read_jsonl(path: str, fields: dict, index: str | None = None) -> Iterator[dict]:
    """Yield the records of a JSON-lines file, one per non-blank line.

    Each record must pass check_record under ``fields``. With ``index``,
    that key must run exactly over 0..n-1, and the records come in that
    order once the file is read. Anything else raises InterchangeError.
    """
    records, lines = [], {}
    with open(path, "rb") as fh:
        for line, raw in enumerate(fh, 1):
            if raw.isspace():
                continue
            rec = _parse(path, raw, fields, line)
            if index is not None and rec[index] in lines:
                message = f"{index} {rec[index]} repeats line {lines[rec[index]]}"
                raise InterchangeError(path, message, line)
            if index is None:
                yield rec
            else:
                lines[rec[index]] = line
                records.append(rec)
    if index is None:
        return
    n = len(records)
    stray = next((i for i in lines if not 0 <= i < n), None)
    if stray is not None:  # the values are distinct, so one in 0..n-1 is missing
        missing = min(set(range(n)) - lines.keys())
        message = f"{index} {stray} is out of range, so the values are not 0..{n - 1}"
        raise InterchangeError(path, f"{message}: {missing} is missing", lines[stray])
    yield from sorted(records, key=lambda rec: rec[index])
