"""Divided differences: recursive table vs reciprocal-product sum."""

import math
import random
from fractions import Fraction

import pytest

from vandiff import divdiff
from vandiff.divdiff import (
    build_table,
    divided_difference,
    divided_difference_side,
    divided_difference_sum_form,
    sum_form,
)
from vandiff.funcs import Exponential, Polynomial, Sine, parse_function
from vandiff.points import PointSequence, y_from_x
from vandiff.symfun import vandermonde_product


def monomial(k):
    return Polynomial((0,) * k + (1,))


# -- frozen small cases -------------------------------------------------------------


def test_second_difference_of_square_is_one():
    pts = PointSequence.exact([1, 2, 3])
    assert divided_difference(pts, monomial(2)) == 1


def test_full_order_difference_of_power_is_reciprocal_factorial():
    # [y_1,...,y_{n+1}] x^n = leading coefficient of the interpolant = 1/n!
    # for x^n / n! the result is exactly 1/n! ... times n! = 1; use x^n
    for n in range(1, 6):
        pts = PointSequence.exact([Fraction(3 * i - 7, 2) for i in range(n + 1)])
        assert divided_difference(pts, monomial(n)) == 1
        scaled = Polynomial((0,) * n + (Fraction(1, math.factorial(n)),))
        assert divided_difference(pts, scaled) == Fraction(1, math.factorial(n))


def test_difference_of_low_degree_vanishes():
    pts = PointSequence.exact([0, 1, 2, 5])
    assert divided_difference(pts, Polynomial((5,))) == 0
    assert divided_difference(pts, Polynomial((1, 2, 3))) == 0


def test_product_side_small_case():
    x = PointSequence.exact([0, 1, 2])
    assert divided_difference_side(x, monomial(3)) == 12


@pytest.mark.parametrize(
    "x, f",
    [
        (PointSequence.floating([-1.5, -0.7, 0.1, 0.8, 1.6, 2.4]), Exponential(1.0)),
        (PointSequence.floating([0.0, 0.3, 1.7, 2.2]), Sine(1.0, 0.4)),
        (PointSequence.floating([0.0, 0.3, 1.7]), parse_function("recip:10")),
        (PointSequence.exact([0, Fraction(1, 3), 2, 5]), monomial(4)),
        (PointSequence.exact([0, Fraction(1, 3), 2]), Exponential(0.5)),
        (PointSequence((0, 1, 3)), Exponential(1.0)),
    ],
    ids=["float-exp", "float-sin", "float-recip", "exact-poly", "exact-exp", "int-exp"],
)
def test_product_side_reuses_checked_points_with_the_same_bits(monkeypatch, x, f):
    # the product side before x was reused: a new sequence of the table values
    seq = PointSequence(divdiff._table_values(x, f))
    want = vandermonde_product(seq.values) * divided_difference(y_from_x(seq), f)
    built = []

    def counted(values):
        built.append(values)
        return PointSequence(values)

    monkeypatch.setattr(divdiff, "PointSequence", counted)
    got = divided_difference_side(x, f)
    assert type(got) is type(want)
    assert got == want and (not isinstance(got, float) or got.hex() == want.hex())
    # floating x, or exact x with a polynomial, is its own table values
    reused = (not x.is_exact and isinstance(x[0], float)) or isinstance(f, Polynomial)
    assert len(built) == (0 if reused else 1)


def test_sum_form_two_points_is_difference_quotient():
    got = sum_form([0.0, 1.0], Exponential(1.0))
    assert got == pytest.approx(math.e - 1, rel=1e-14)


def test_table_layers_shape():
    layers = build_table((0, 1, 3), (2, 4, 10))
    assert layers[0] == (2, 4, 10)
    assert layers[1] == (2, 3)
    assert layers[2] == ((3 - 2) / (3 - 0),)


# -- route agreement ------------------------------------------------------------------


def test_routes_agree_exactly_on_rational_data():
    rng = random.Random(4711)
    for n in range(1, 6):
        vals = set()
        while len(vals) < n + 1:
            vals.add(Fraction(rng.randrange(-40, 40), rng.randrange(1, 12)))
        pts = PointSequence.exact(sorted(vals))
        f = Polynomial(tuple(Fraction(rng.randrange(-9, 10)) for _ in range(n + 3)))
        a = divided_difference(pts, f)
        b = divided_difference_sum_form(pts, f)
        assert a == b
        assert isinstance(a, Fraction) and isinstance(b, Fraction)


def test_routes_agree_on_floating_data():
    rng = random.Random(271828)
    for f in (Exponential(1.0), Sine(1.3, 0.2), parse_function("poly:1,0,-2,1")):
        for n in range(1, 6):
            vals = sorted(rng.uniform(-2, 3) for _ in range(n + 1))
            while min(b - a for a, b in zip(vals, vals[1:])) < 0.1:
                vals = sorted(rng.uniform(-2, 3) for _ in range(n + 1))
            pts = PointSequence.floating(vals)
            a = divided_difference(pts, f)
            b = divided_difference_sum_form(pts, f)
            assert a == pytest.approx(b, rel=1e-12)


def test_sum_form_is_symmetric_under_reordering():
    rng = random.Random(5)
    vals = [0.0, 0.7, 1.9, 2.4]
    f = Exponential(0.5)
    reference = sum_form(vals, f)
    for _ in range(5):
        shuffled = vals[:]
        rng.shuffle(shuffled)
        assert sum_form(shuffled, f) == pytest.approx(reference, rel=1e-13)


def test_transcendental_function_forces_float_route():
    pts = PointSequence.exact([0, 1])
    got = divided_difference(pts, Exponential(1.0))
    assert isinstance(got, float)
    assert got == pytest.approx(math.e - 1, rel=1e-14)


# -- validation ---------------------------------------------------------------------


def test_repeated_points_rejected():
    with pytest.raises(ValueError, match="distinct"):
        build_table((0, 1, 1), (1, 2, 3))
    with pytest.raises(ValueError, match="distinct"):
        sum_form([0.5, 0.5], Exponential(1.0))


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="equal length"):
        build_table((0, 1), (1, 2, 3))
