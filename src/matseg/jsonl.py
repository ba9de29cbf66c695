"""JSON-lines interchange: one JSON object per line, read back strictly."""

from __future__ import annotations

import json
import math
from collections.abc import Iterator

from .errors import InterchangeError


def unit(value) -> float:
    """A number in [0, 1], else ValueError; also a kind for read_jsonl."""
    if type(value) not in (int, float) or not 0.0 <= value <= 1.0:  # NaN fails the range
        raise ValueError(f"{value!r} is not a number in [0, 1]")
    return value


# type(), not isinstance(): a bool is not an int here
_TYPES = {int: (int,), float: (int, float), unit: (int, float), bool: (bool,), str: (str,),
          list: (list,), dict: (dict,)}
_decode = json.JSONDecoder().decode


def write_jsonl(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in records)


def read_jsonl(path: str, fields: dict, index: str | None = None) -> Iterator[dict]:
    """Yield the records of a JSON-lines file, one per non-blank line.

    ``fields`` maps each required key to a kind: ``int``, ``float`` (finite),
    ``unit`` (a number in [0, 1]), ``bool``, ``str``, ``list``, ``dict``, or
    ``(kind, parse)`` where ``parse`` replaces the value or raises ValueError
    or TypeError. With ``index``, that key must run exactly over 0..n-1, and
    the records come in that order once the file is read. Anything else
    raises InterchangeError.
    """
    specs = [(key, *(kind if type(kind) is tuple else (kind, None))) for key, kind in fields.items()]
    expected = "expected {%s}" % ", ".join(f"{key}: {kind.__name__}" for key, kind, _ in specs)
    records, lines = [], {}
    with open(path, "rb") as fh:
        for line, raw in enumerate(fh, 1):
            if raw.isspace():
                continue
            try:
                rec = _decode(raw.decode("utf-8"))
            except ValueError as exc:  # also bad UTF-8 and an integer too long to convert
                raise InterchangeError(path, f"invalid JSON: {getattr(exc, 'msg', exc)}", line) from None
            try:
                if type(rec) is not dict:
                    raise ValueError(expected)
                for key, kind, parse in specs:
                    value = rec.get(key)
                    if (type(value) not in _TYPES[kind] or kind is float and not math.isfinite(value)
                            or kind is unit and not 0.0 <= value <= 1.0):
                        raise ValueError(expected)
                    if parse is not None:
                        rec[key] = parse(value)
                if index is not None and rec[index] in lines:
                    raise ValueError(f"{index} {rec[index]} repeats line {lines[rec[index]]}")
            except (ValueError, TypeError) as exc:
                raise InterchangeError(path, str(exc), line) from None
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
