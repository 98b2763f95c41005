"""Strictly increasing point sequences and the sum-complement transform.

A sequence x = (x_1, ..., x_{n+1}) determines the sequential rectangle
R(x) = [x_1,x_2] x [x_2,x_3] x ... x [x_n,x_{n+1}] and the transformed
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
from typing import Iterator, Literal, Sequence

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
            if not b - a > gap:
                raise ValueError(f"points must be strictly increasing: {a} !< {b}")

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


@dataclass(frozen=True)
class SequentialRectangle:
    """The box of consecutive intervals [x_i, x_{i+1}] of a sequence."""

    x: PointSequence

    @property
    def dimension(self) -> int:
        return self.x.n

    @property
    def intervals(self) -> tuple[tuple, ...]:
        v = self.x.values
        return tuple((v[i], v[i + 1]) for i in range(len(v) - 1))


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


def y_from_x(x: PointSequence) -> PointSequence:
    """The sum-complement transform: y_i = (sum of x) - x_{n+2-i}."""
    vals = x.values
    if x.is_exact:
        total = sum(vals, Fraction(0))
    else:
        total = math.fsum(vals)
    return PointSequence(tuple(total - vals[len(vals) - 1 - i] for i in range(len(vals))))


def x_from_y(y: PointSequence) -> PointSequence:
    """Exact inverse of y_from_x: x_i = ((sum of y) - n*y_{n+2-i}) / n."""
    vals = y.values
    n = y.n
    if y.is_exact:
        total = sum(vals, Fraction(0))
        out = tuple((total - n * vals[len(vals) - 1 - i]) / Fraction(n) for i in range(len(vals)))
    else:
        total = math.fsum(vals)
        out = tuple((total - n * vals[len(vals) - 1 - i]) / n for i in range(len(vals)))
    return PointSequence(out)


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


MatrixRole = Literal["forward", "inverse"]


@dataclass(frozen=True)
class TransformMatrix:
    """The (n+1)x(n+1) linear map between x and y, or its inverse."""

    entries: tuple[tuple[Fraction, ...], ...]
    role: MatrixRole

    def apply(self, values: Sequence) -> tuple:
        return tuple(sum(c * v for c, v in zip(row, values) if c) for row in self.entries)


def transform_matrix(n: int, role: MatrixRole = "forward") -> TransformMatrix:
    """Explicit matrix for y = M x (forward) or x = M^{-1} y (inverse).

    Forward rows are all ones with a zero on the anti-diagonal; the
    inverse has 1/n everywhere except (1-n)/n on the anti-diagonal.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    size = n + 1
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            on_anti = j == size - 1 - i
            if role == "forward":
                row.append(Fraction(0) if on_anti else Fraction(1))
            else:
                row.append(Fraction(1 - n, n) if on_anti else Fraction(1, n))
        rows.append(tuple(row))
    return TransformMatrix(tuple(rows), role)
