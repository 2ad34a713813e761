"""JSON wire formats for point sets and partitions.

Point set:   {"dim": d, "points": [{"id": 7, "coords": ["1/2", 3, "0.25"]}, ...]}
Partition:   {"parts": [[ids...], [ids...], ...]}

Coordinates are accepted as integers, decimal strings or "num/den"
strings; they are always emitted as "num/den" strings so output is
exact and byte-stable.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .core import Partition, Point, PointSet, TverbergError, short_repr, to_scalar

_LEAF = {int: int.__repr__, str: _quote}  # by exact type: a bool is no int here


def scalar_to_json(value: int | Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def point_set_to_obj(point_set: PointSet) -> dict[str, Any]:
    return {
        "dim": point_set.dim,
        "points": [
            {"id": p.id, "coords": [scalar_to_json(c) for c in p.coords]}
            for p in point_set.points
        ],
    }


def point_set_from_obj(obj: Any) -> PointSet:
    if not isinstance(obj, dict) or "dim" not in obj or "points" not in obj:
        raise TverbergError("point set JSON must have 'dim' and 'points'")
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise TverbergError("'dim' must be an integer")
    if not isinstance(obj["points"], list):
        raise TverbergError("'points' must be a list")
    if not obj["points"]:
        raise TverbergError("'points' must not be empty")
    points = []
    for entry in obj["points"]:
        if not isinstance(entry, dict) or "id" not in entry or "coords" not in entry:
            raise TverbergError("each point needs 'id' and 'coords'")
        pid = entry["id"]
        if not isinstance(pid, int) or isinstance(pid, bool):
            raise TverbergError(f"point id must be an integer, got {short_repr(pid)}")
        coords = entry["coords"]
        if not isinstance(coords, list):
            raise TverbergError(f"coords of point {short_repr(pid)} must be a list")
        exact = set(map(type, coords)) <= {int}  # ints, which to_scalar keeps as they are
        points.append(Point(pid, tuple(coords) if exact else tuple(map(to_scalar, coords))))
    return PointSet(dim, tuple(points))


def partition_to_obj(partition: Partition) -> dict[str, Any]:
    return {"parts": [sorted(part) for part in partition]}


def partition_from_obj(obj: Any) -> Partition:
    if not isinstance(obj, dict) or "parts" not in obj:
        raise TverbergError("partition JSON must have 'parts'")
    if not isinstance(obj["parts"], list):
        raise TverbergError("'parts' must be a list")
    parts = []
    for part in obj["parts"]:
        if not isinstance(part, list) or any(
            not isinstance(i, int) or isinstance(i, bool) for i in part
        ):
            raise TverbergError("each part must be a list of integer ids")
        parts.append(frozenset(part))
    return tuple(parts)


def dumps(obj: Any) -> str:
    """Exactly ``json.dumps(obj, indent=2)`` and a newline, but each list of
    ints or of strs joined in one step instead of value by value."""
    return _encode(obj, "\n") + "\n"


def _encode(obj: Any, nl: str) -> str:
    """``json.dumps(obj, indent=2)`` with its line breaks written as ``nl``.
    Empty containers, bools, None, floats and non-str keys go to json.dumps."""
    kind, inner = type(obj), nl + "  "
    if kind in _LEAF:
        return _LEAF[kind](obj)
    if kind is dict and obj and all(type(k) is str for k in obj):
        items = [f"{_quote(k)}: {_encode(v, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if (kind is list or kind is tuple) and obj:
        first = type(obj[0])
        same = first in _LEAF and all(type(x) is first for x in obj)
        items = map(_LEAF[first], obj) if same else [_encode(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    return json.dumps(obj, indent=2).replace("\n", nl)


def load_point_set(path: str) -> PointSet:
    return point_set_from_obj(_load(path))


def load_partition(path: str) -> Partition:
    return partition_from_obj(_load(path))


def _load(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise TverbergError("JSON nested too deeply") from exc
        except ValueError as exc:
            if type(exc) is not ValueError:  # a decode error keeps its own text
                raise
            # json's one plain ValueError: an int past the interpreter's digit limit
            raise TverbergError(f"JSON integer beyond {sys.get_int_max_str_digits()} digits") from exc
