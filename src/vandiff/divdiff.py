"""Divided differences at distinct points, by two independent routes.

The recursive table is the default route; the explicit sum

    sum_i f(y_i) / prod_{j != i} (y_i - y_j)

is kept as an algebraically independent oracle.  Both are exact when the
points are rational and f is a rational polynomial, floating otherwise.
`divided_difference_side` builds the product side of the main identity:
the pairwise-difference product of x times the divided difference at the
transformed points.

These functions only compute.  The table loses digits on clustered
floating points; the command line says so in a note of its own.
"""

from __future__ import annotations

import operator
from typing import Sequence

from .funcs import AnalyticFunction, Polynomial
from .points import PointSequence, y_from_x
from .symfun import vandermonde_product


def _check_distinct(values: Sequence) -> None:
    if len(set(values)) != len(values):
        raise ValueError("divided differences require distinct points")


def build_table(values: Sequence, fvalues: Sequence) -> tuple[tuple, ...]:
    """The recursive table over arbitrary distinct points (any order).

    Returns its layers: layer k holds the order-k divided differences, so
    the last layer holds only the full-order one.
    """
    _check_distinct(values)
    if len(values) != len(fvalues):
        raise ValueError("points and values must have equal length")
    layers = [tuple(fvalues)]
    m = len(values)
    for k in range(1, m):
        prev = layers[-1]
        layers.append(
            tuple((prev[j + 1] - prev[j]) / (values[j + k] - values[j]) for j in range(m - k))
        )
    return tuple(layers)


def sum_form(values: Sequence, f: AnalyticFunction):
    """The reciprocal-product sum over arbitrary distinct points."""
    _check_distinct(values)
    total = None
    for i, yi in enumerate(values):
        denom = None
        for j, yj in enumerate(values):
            if j == i:
                continue
            d = yi - yj
            denom = d if denom is None else denom * d
        term = f(yi) if denom is None else f(yi) / denom
        total = term if total is None else total + term
    return total


def _table_values(points: PointSequence, f: AnalyticFunction) -> tuple:
    # exact only when both the points and f keep Fraction arithmetic closed
    if points.is_exact and isinstance(f, Polynomial):
        return points.values
    return points.as_floats()


def divided_difference(points: PointSequence, f: AnalyticFunction):
    """Divided difference of f at the points, via the recursive table."""
    values = _table_values(points, f)
    return build_table(values, tuple(f(v) for v in values))[-1][0]


def divided_difference_sum_form(points: PointSequence, f: AnalyticFunction):
    """Divided difference via the explicit reciprocal-product sum."""
    return sum_form(_table_values(points, f), f)


def divided_difference_side(x: PointSequence, f: AnalyticFunction):
    """Product side of the main identity: V(x) times the divided
    difference of f at the sum-complement points y."""
    values = _table_values(x, f)
    # the same coordinate objects have passed x's increasing and gap checks
    same = all(map(operator.is_, values, x.values))
    seq = x if same else PointSequence(values)
    return vandermonde_product(seq.values) * divided_difference(y_from_x(seq), f)
