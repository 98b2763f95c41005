"""Point sequences, rectangles, and the sum-complement transform."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from vandiff.exact import MultiPoly, var_family
from vandiff.points import (
    PointSequence,
    monotone_vertices,
    parse_points,
    sum_bounds,
    x_from_y,
    y_from_x,
)
from vandiff.symfun import enumerate_vertices, vandermonde_poly, vandermonde_product


def exact_seq(*vals):
    return PointSequence.exact(vals)


# -- sequence validation -----------------------------------------------------------


def test_needs_two_points():
    with pytest.raises(ValueError):
        PointSequence.exact([1])


def test_mixed_coordinate_kinds_rejected():
    with pytest.raises(ValueError):
        PointSequence((Fraction(0), 1.0))


def test_non_increasing_rejected_with_message():
    with pytest.raises(ValueError) as err:
        PointSequence.exact([0, 1, 1])
    assert "points must be strictly increasing" in str(err.value)
    assert "1 !< 1" in str(err.value)
    with pytest.raises(ValueError, match=r"strictly increasing: 1\.0 !< 0\.5"):
        PointSequence.floating([0.0, 1.0, 0.5])


def test_float_gap_below_threshold_rejected():
    with pytest.raises(ValueError, match=r"^points 0\.0 and 1e-13 are closer than 1e-12$"):
        PointSequence.floating([0.0, 1e-13])
    # a gap just above the threshold is fine
    PointSequence.floating([0.0, 1e-11])


def test_basic_properties():
    x = exact_seq(0, 1, 2, 4)
    assert x.n == 3
    assert x.is_exact
    assert len(x) == 4
    assert list(x) == [0, 1, 2, 4]
    assert x[2] == 2
    assert x.as_floats() == (0.0, 1.0, 2.0, 4.0)
    assert not PointSequence.floating([0, 1]).is_exact


def test_render_round_trip():
    x = exact_seq(0, Fraction(1, 3), 2)
    assert parse_points(x.render(), exact=True) == x


# -- parsing ----------------------------------------------------------------------


def test_parse_float_default():
    x = parse_points("0,0.5,2")
    assert not x.is_exact
    assert x.values == (0.0, 0.5, 2.0)


def test_parse_exact_decimals_are_rational():
    x = parse_points("0,0.1,1/3,2", exact=True)
    assert x.values == (Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(2))


def test_parse_rejects_garbage():
    with pytest.raises(ValueError) as err:
        parse_points("0,abc,2")
    assert "cannot parse coordinate" in str(err.value)
    with pytest.raises(ValueError):
        parse_points("0,,2")


# -- rectangles --------------------------------------------------------------------


def test_sequential_rectangle_intervals():
    x = exact_seq(0, 1, 2, 4)
    assert len(x.intervals) == x.n == 3
    assert x.intervals == ((0, 1), (1, 2), (2, 4))


# -- the transform ------------------------------------------------------------------


def test_transform_small_examples():
    assert y_from_x(exact_seq(0, 1, 2)).values == (1, 2, 3)
    assert y_from_x(exact_seq(0, 1, 2, 4)).values == (3, 5, 6, 7)


def test_transform_is_identity_for_n1():
    x = exact_seq(Fraction(-3, 2), Fraction(7, 3))
    assert y_from_x(x) == x
    assert x_from_y(x) == x


def test_round_trip_exact():
    x = exact_seq(Fraction(-1, 2), 0, Fraction(2, 3), 5)
    assert x_from_y(y_from_x(x)) == x


def test_round_trip_float():
    x = PointSequence.floating([-0.75, 0.2, 1.9, 2.4, 3.3])
    back = x_from_y(y_from_x(x))
    for a, b in zip(back.values, x.values):
        assert a == pytest.approx(b, rel=1e-14)


def test_float_transform_that_collapses_names_x():
    # exact y keeps the gaps of x, but 1e17 + 1 rounds to 1e17
    message = r"^the transformed points y coincide in floating point for x = 0\.0,1\.0,1e\+17$"
    with pytest.raises(ValueError, match=message):
        y_from_x(PointSequence.floating([0.0, 1.0, 1e17]))
    assert y_from_x(exact_seq(0, 1, 10**17)).values == (1, 10**17, 10**17 + 1)


def test_float_inverse_transform_that_collapses_names_y():
    # (1e17 + 1 - 2) / 2 and (1e17 + 1) / 2 round to the same float
    message = r"^the transformed points x coincide in floating point for y = 0\.0,1\.0,1e\+17$"
    with pytest.raises(ValueError, match=message):
        x_from_y(PointSequence.floating([0.0, 1.0, 1e17]))
    y = exact_seq(0, 1, 10**17)
    assert y_from_x(x_from_y(y)) == y


def test_sum_bounds_are_extreme_y_values():
    x = exact_seq(0, 1, 2)
    assert sum_bounds(x) == (1, 3)


increasing_rationals = st.integers(2, 7).flatmap(
    lambda k: st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=10),
        min_size=k,
        max_size=k,
        unique=True,
    )
)


@given(increasing_rationals)
def test_transform_reverses_gaps(vals):
    x = PointSequence(tuple(sorted(vals)))
    y = y_from_x(x)
    xgaps = [b - a for a, b in zip(x.values, x.values[1:])]
    ygaps = [b - a for a, b in zip(y.values, y.values[1:])]
    assert ygaps == list(reversed(xgaps))


@given(increasing_rationals)
def test_transform_preserves_difference_product(vals):
    x = PointSequence(tuple(sorted(vals)))
    assert vandermonde_product(x.values) == vandermonde_product(y_from_x(x).values)


def test_transform_preserves_difference_product_symbolically():
    # substitute y_i = (sum of x) - x_{n+2-i} into the expanded product on
    # n+1 variables and compare against the product in the x variables
    for size in range(2, 6):
        xs = var_family("x", size)
        xp = [MultiPoly.variable(v) for v in xs]
        total = MultiPoly.zero()
        for p in xp:
            total = total + p
        v_y = vandermonde_poly(size, family="y")
        for i, yvar in enumerate(var_family("y", size)):
            v_y = v_y.substitute(yvar, total - xp[size - 1 - i])
        assert v_y == vandermonde_poly(size, family="x")


# -- monotone vertices --------------------------------------------------------------


def test_monotone_vertices_small_case():
    assert monotone_vertices(exact_seq(0, 1, 2)) == [(0, 1), (0, 2), (1, 2)]


def test_monotone_vertex_sums_are_y_values():
    x = exact_seq(0, 1, 2, 4)
    y = y_from_x(x)
    for i, vertex in enumerate(monotone_vertices(x)):
        assert sum(vertex) == y.values[i]


def test_monotone_vertices_match_selectors_on_intervals():
    x = exact_seq(Fraction(-1), Fraction(1, 2), 3, 7)
    intervals = x.intervals
    # the n+1 non-decreasing lower/upper flags (0..0), (0..01), ..., (1..1)
    sels = [(0,) * (x.n + 1 - i) + (1,) * (i - 1) for i in range(1, x.n + 2)]
    expected = [
        tuple(intervals[axis][eps[axis]] for axis in range(x.n)) for eps in sels
    ]
    assert monotone_vertices(x) == expected
    assert set(zip(sels, expected)) <= set(enumerate_vertices(intervals))
