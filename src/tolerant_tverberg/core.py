"""Exact-arithmetic point and partition model shared by the whole package.

``to_scalar`` makes parsed coordinates ints when integral, else
Fractions; computed points may hold integral Fractions, and no decision
depends on which.  Nothing divides a coordinate with ``/``, so every
geometric decision made downstream (hull membership, LP feasibility,
tolerance verdicts) is exact.  Where a decision needs integers,
``homogeneous`` is the one integer form of a rational vector: its
numerators over W, the lcm of its denominators, then W > 0.  Every type
here is immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

# A removal set is just a set of point ids drawn from one PointSet.
RemovalSet = frozenset[int]
# A partition of a point set into nonempty id sets.  Part order is
# meaningful: several algorithms give part 0 a special structural role.
Partition = tuple[frozenset[int], ...]

# Largest |exponent| accepted in a decimal string such as "1e-3".
# Fraction computes 10**exponent outright, so "1e999999999" would hang;
# the bound matches the interpreter's default limit on int digits.
MAX_DECIMAL_EXPONENT = 4300
# A parsed string's numerator and denominator stay below this, at most
# 4300 digits, so that the "num/den" output form can print them.
_DIGIT_BOUND = 10**MAX_DECIMAL_EXPONENT
# \d, as in Fraction's own pattern: it reads every script's decimal digits
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")
# The "num/den" form the library writes, in ASCII digits that stay inside the
# digit bound; it is read with int alone, and every other string by Fraction.
_DIGITS = rf"[0-9]{{1,{MAX_DECIMAL_EXPONENT}}}"
_RATIO = re.compile(rf"(-?{_DIGITS})/({_DIGITS})")

# Error messages quote at most this many characters of an offending value.
ECHO_LIMIT = 60


class TverbergError(Exception):
    """The error this package raises for input it refuses; the message
    names the kind of fault."""


def to_scalar(value: int | str | Fraction) -> int | Fraction:
    """Convert an exact representation to an int when it is integral,
    else to a Fraction: ints are cheaper, and as exact without ``/``.

    Accepts ints, Fractions, "num/den" strings and decimal strings
    ("0.25" becomes 1/4 exactly) with exponents up to
    ``MAX_DECIMAL_EXPONENT`` in magnitude and values whose numerator and
    denominator have at most that many digits.  Floats are rejected:
    binary floats are not a faithful carrier for exact rational input.
    """
    if isinstance(value, bool):
        raise TverbergError(f"not an exact scalar: {value!r}")
    if isinstance(value, int):
        return value
    # str before Fraction: parsed input is all strings, and the Fraction
    # test goes through the numbers ABC
    if isinstance(value, str):
        ratio = _RATIO.fullmatch(value)
        if ratio and (den := int(ratio[2])):
            if den == 1:
                return int(ratio[1])
            scalar = Fraction(int(ratio[1]), den)
            return scalar.numerator if scalar.denominator == 1 else scalar
        return _parse_text(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TverbergError(
        f"not an exact scalar: {short_repr(value)} (floats are not accepted)"
    )


def _parse_text(value: str) -> int | Fraction:
    """``to_scalar`` of any string, through ``Fraction``'s own parser."""
    try:
        exponent = _EXPONENT.search(value)
        if exponent and abs(int(exponent.group(1))) > MAX_DECIMAL_EXPONENT:
            raise TverbergError(
                f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}: {short_repr(value)}"
            )
        scalar = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise TverbergError(f"not an exact scalar: {short_repr(value)}") from exc
    if abs(scalar.numerator) >= _DIGIT_BOUND or scalar.denominator >= _DIGIT_BOUND:
        raise TverbergError(f"scalar beyond {MAX_DECIMAL_EXPONENT} digits: {short_repr(value)}")
    return scalar.numerator if scalar.denominator == 1 else scalar


def short_repr(value: object) -> str:
    """``repr(value)``, cut to ``ECHO_LIMIT`` characters and ended with
    "..." when longer; a long int is cut from its leading digits alone,
    even past the interpreter's limit on int digits."""
    if type(value) is int and value.bit_length() > 4 * ECHO_LIMIT:
        # 0.30103 exceeds log10(2) by 4.4e-9: ECHO_LIMIT + 1 or 2 digits stay
        drop = (value.bit_length() - 1) * 30103 // 100000 - ECHO_LIMIT
        value = value // 10**drop if value > 0 else -(-value // 10**drop)
    text = repr(value)
    return text if len(text) <= ECHO_LIMIT else text[:ECHO_LIMIT] + "..."


class Point(NamedTuple):
    """A point with a stable integer identity.

    The id survives projection and lifting, which is what lets a
    partition computed for a projected set be mapped back to the
    original points.  A named tuple: immutable, and cheap to build.
    """

    id: int
    coords: tuple[int | Fraction, ...]

    @property
    def dim(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class PointSet:
    """An ordered collection of points in a common ambient dimension."""

    dim: int
    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise TverbergError(f"dimension must be positive, got {short_repr(self.dim)}")
        seen: set[int] = set()
        for p in self.points:
            if len(p.coords) != self.dim:
                raise TverbergError(
                    f"point {short_repr(p.id)} has {len(p.coords)} coords, "
                    f"expected {short_repr(self.dim)}"
                )
            if p.id in seen:
                raise TverbergError(f"duplicate point id {short_repr(p.id)}")
            seen.add(p.id)

    def __len__(self) -> int:
        return len(self.points)

    def ids(self) -> frozenset[int]:
        return frozenset(p.id for p in self.points)

    def by_id(self) -> dict[int, Point]:
        return {p.id: p for p in self.points}

    def parts(self, partition: Partition) -> list[list[Point]]:
        """Each part's points in id order, once ``check_partition`` passes."""
        check_partition(partition, self.ids())
        by_id = self.by_id()
        return [[by_id[pid] for pid in sorted(part)] for part in partition]


def check_partition(partition: Partition, ids: frozenset[int]) -> None:
    """Raise an ``invalid partition: ...`` TverbergError naming the first
    fault unless ``partition`` has parts, none empty, no id in two parts,
    and exactly ``ids`` among them."""
    if not partition:
        raise TverbergError("invalid partition: no parts")
    seen: set[int] = set()
    for part in partition:
        if not part:
            raise TverbergError("invalid partition: empty part")
        if not seen.isdisjoint(part):
            twice = short_repr(min(seen & part))
            raise TverbergError(f"invalid partition: id {twice} in two parts")
        seen |= part
    if not seen <= ids:
        raise TverbergError("invalid partition: ids outside the point set")
    if len(seen) != len(ids):
        raise TverbergError("invalid partition: does not cover the point set")


def homogeneous(values: Sequence[int | Fraction]) -> tuple[int, ...]:
    """The numerators of ``values`` over W, the lcm of their denominators,
    followed by W: integers, with no factor common to all of them, whose
    ratios to the last are the values.  Scaling by W > 0 keeps every sign
    and order."""
    w = math.lcm(*[v.denominator for v in values])
    return (*[v.numerator * (w // v.denominator) for v in values], w)


def check_query(c: Point, point_set: PointSet) -> None:
    """Raise a ``dimension: ...`` TverbergError unless c has the point set's dimension."""
    if c.dim != point_set.dim:
        raise TverbergError(f"dimension: query has dim {c.dim}, point set has {point_set.dim}")


def lex_key(p: Point) -> tuple:
    """Symbolic tie-break order used in any dimension: coordinates read
    from the last axis down to the first, then id.

    A deterministic stand-in for an infinitesimal rotation: no two
    distinct points ever compare equal.  Each coordinate c, int or Fraction,
    enters as (floor(c), c): the order is that of the coordinates, but most
    comparisons end on ints, and Fractions meet only on tied floors.
    """
    key = []
    for c in reversed(p.coords):
        key += (c.numerator // c.denominator, c)
    key.append(p.id)
    return tuple(key)
