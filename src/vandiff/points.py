"""Strictly increasing point sequences and the sum-complement transform.

A sequence x = (x_1, ..., x_{n+1}) determines the sequential rectangle
R(x) = [x_1,x_2] x [x_2,x_3] x ... x [x_n,x_{n+1}], held as the tuple
`PointSequence.intervals` of its axis bounds, and the transformed
sequence y with

    y_i = (sum of all x_j) - x_{n+2-i},

i.e. y_i drops the i-th from the last coordinate.  The transform is
linear (y = M x with M all-ones except a zero anti-diagonal), invertible
for n >= 1, gap-preserving in reverse order, and leaves the pairwise
difference product unchanged.

Coordinates are either all exact rationals or all floats, tagged by the
sequence; exact sequences feed the symbolic pipeline, float sequences
the quadrature pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

# Floats closer than this are treated as non-increasing; exact values use
# exact comparison instead.
FLOAT_MIN_GAP = 1e-12


@dataclass(frozen=True)
class PointSequence:
    """An increasing sequence of >= 2 coordinates, all Fraction or all float."""

    values: tuple

    def __post_init__(self):
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 2:
            raise ValueError("need at least two points")
        exact = isinstance(vals[0], Fraction)
        for v in vals:
            if isinstance(v, Fraction) != exact:
                raise ValueError("mixed exact and floating coordinates")
        gap = 0 if exact else FLOAT_MIN_GAP
        for a, b in zip(vals, vals[1:]):
            if not b > a:
                raise ValueError(f"points must be strictly increasing: {a} !< {b}")
            if not b - a > gap:
                raise ValueError(f"points {a} and {b} are closer than {gap}")

    @classmethod
    def exact(cls, values: Sequence) -> PointSequence:
        return cls(tuple(Fraction(v) for v in values))

    @classmethod
    def floating(cls, values: Sequence) -> PointSequence:
        return cls(tuple(float(v) for v in values))

    @property
    def n(self) -> int:
        """Dimension of the sequential rectangle (one less than the length)."""
        return len(self.values) - 1

    @property
    def intervals(self) -> tuple[tuple, ...]:
        """The sequential rectangle R(x) as its n axis bounds (x_i, x_{i+1})."""
        return tuple(zip(self.values, self.values[1:]))

    @property
    def is_exact(self) -> bool:
        return isinstance(self.values[0], Fraction)

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator:
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def render(self) -> str:
        """Comma-separated text form matching the input grammar."""
        return ",".join(str(v) for v in self.values)


def parse_points(text: str, exact: bool = False) -> PointSequence:
    """Parse comma-separated coordinates, each a decimal or p/q rational.

    With exact=True, decimals become exact rationals (scaled by powers of
    ten), so "0.1" means 1/10 rather than the nearest binary float.
    """
    tokens = [tok.strip() for tok in text.split(",")]
    if any(not tok for tok in tokens):
        raise ValueError(f"empty coordinate in {text!r}")
    values = []
    for tok in tokens:
        try:
            value = Fraction(tok)
            values.append(value if exact else float(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse coordinate {tok!r}") from exc
        except OverflowError as exc:
            raise ValueError(f"coordinate {tok!r} is beyond float range") from exc
    return PointSequence(tuple(values))


def _total(seq: PointSequence, given: str):
    # the message names the points the caller gave, as _transformed does
    if seq.is_exact:
        return sum(seq.values, Fraction(0))
    try:
        return math.fsum(seq.values)
    except OverflowError:
        raise ValueError(
            f"the sum of {given} = {seq.render()} is beyond float range"
        ) from None


def _transformed(values: tuple, source: PointSequence, names: tuple) -> PointSequence:
    # the transform keeps the gaps, but floating sums can round two points
    # together; the message names the points the caller gave
    try:
        return PointSequence(values)
    except ValueError:
        given, made = names
        raise ValueError(
            f"the transformed points {made} coincide in floating point "
            f"for {given} = {source.render()}"
        ) from None


def y_from_x(x: PointSequence) -> PointSequence:
    """The sum-complement transform: y_i = (sum of x) - x_{n+2-i}.

    The gaps of y are those of x, but floating sums can round two y_i
    together; that raises ValueError naming x."""
    total = _total(x, "x")
    return _transformed(tuple(total - v for v in reversed(x.values)), x, ("x", "y"))


def x_from_y(y: PointSequence) -> PointSequence:
    """Exact inverse of y_from_x: x_i = ((sum of y) - n*y_{n+2-i}) / n.

    Floating x_i can round together too; that raises ValueError naming y."""
    n, total = y.n, _total(y, "y")
    return _transformed(tuple((total - n * v) / n for v in reversed(y.values)), y, ("y", "x"))


def sum_bounds(x: PointSequence) -> tuple:
    """Range (y_1, y_{n+1}) of the coordinate sum over the rectangle R(x)."""
    y = y_from_x(x)
    return (y.values[0], y.values[-1])


def monotone_vertices(x: PointSequence) -> list[tuple]:
    """The n+1 rectangle vertices with non-decreasing selectors.

    Vertex i (1-based) is x with the coordinate x_{n+2-i} omitted; its
    coordinate sum is exactly y_i.
    """
    vals = x.values
    n = x.n
    out = []
    for i in range(1, n + 2):
        skip = n + 1 - i  # 0-based index of the omitted coordinate
        out.append(tuple(vals[j] for j in range(n + 1) if j != skip))
    return out
