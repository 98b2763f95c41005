"""Function families: closed-form derivatives, evaluation, parsing."""

import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vandiff.exact import MultiPoly, VarId
from vandiff.funcs import (
    Exponential,
    PoleError,
    Polynomial,
    Reciprocal,
    Sine,
    parse_function,
)

SAMPLES = [-1.7, -0.3, 0.4, 1.1, 2.6]


def central_difference(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2 * h)


# -- polynomials ---------------------------------------------------------------


def test_polynomial_coefficients_become_exact():
    p = Polynomial((1, 2, 3))
    assert all(isinstance(c, Fraction) for c in p.coeffs)


def test_polynomial_strips_trailing_zeros():
    assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
    zero = Polynomial((0, 0))
    assert zero.coeffs == () and zero.degree == -1


def test_polynomial_exact_horner():
    p = Polynomial((1, 0, 2))
    got = p(Fraction(1, 2))
    assert got == Fraction(3, 2) and isinstance(got, Fraction)
    assert p(2) == 9


def test_polynomial_float_and_array_paths_agree():
    p = Polynomial((Fraction(1, 3), -2, 0, 5))
    arr = p(np.array(SAMPLES))
    assert isinstance(arr, np.ndarray)
    for x, ax in zip(SAMPLES, arr):
        assert ax == pytest.approx(p(x), rel=1e-15)


def test_polynomial_derivative_coefficients():
    p = Polynomial((1, 2, 3))
    assert p.derivative().coeffs == (2, 6)
    assert p.derivative(2).coeffs == (6,)
    assert p.derivative(3).degree == -1
    assert p.derivative(9).degree == -1


def test_polynomial_compose_matches_calls():
    p = Polynomial((Fraction(1, 2), 0, -3, 1))
    v = VarId("a", 1)
    sym = p.compose(MultiPoly.variable(v))
    for x in (Fraction(-2), Fraction(0), Fraction(5, 7)):
        assert sym.eval({v: x}) == p(x)
    # a constant and the zero polynomial compose to polynomials too
    assert Polynomial((3,)).compose(MultiPoly.variable(v)) == MultiPoly.const(3)
    zero = Polynomial(()).compose(MultiPoly.variable(v))
    assert isinstance(zero, MultiPoly) and zero.is_zero


def test_polynomial_describe():
    assert Polynomial((0, Fraction(1, 2))).describe() == "poly:0,1/2"
    assert Polynomial(()).describe() == "poly:0"
    # only an integer from 1e16 up that the exponent form shortens changes
    p = Polynomial((10**16, -(10**308), 12345678901234560, 10**15, Fraction(10**20, 3)))
    assert p.describe() == (
        "poly:1e16,-1e308,12345678901234560,1000000000000000,100000000000000000000/3"
    )


# -- transcendental families ------------------------------------------------------


def test_exponential_values_and_derivative_chain():
    f = Exponential(2.0)
    assert f(0.3) == pytest.approx(math.exp(0.6))
    assert f.derivative().amplitude == pytest.approx(2.0)
    assert f.derivative(3).amplitude == pytest.approx(8.0)


def test_unit_factors_leave_the_numpy_bits_unchanged():
    # a multiply by exactly 1.0 is skipped, and x * 1.0 == x bit for bit
    a = np.linspace(-3.0, 3.0, 1001).reshape(7, 11, 13)
    want = np.exp(a).tobytes()
    assert Exponential(1.0)(a).tobytes() == want
    assert Exponential(1.0).derivative(5)(a).tobytes() == want
    assert Sine(1.0, 0.5)(a).tobytes() == np.sin(a + 0.5).tobytes()
    assert Exponential(2.0)(a).tobytes() == (1.0 * np.exp(2.0 * a)).tobytes()
    assert Sine(2.0, 0.5, 3.0)(a).tobytes() == (3.0 * np.sin(2.0 * a + 0.5)).tobytes()


def test_sine_derivative_is_shifted_cosine():
    f = Sine(2.0)
    g = f.derivative()
    for x in SAMPLES:
        assert g(x) == pytest.approx(2 * math.cos(2 * x), rel=1e-12)


def test_reciprocal_derivative_closed_form():
    f = Reciprocal(10.0)
    g = f.derivative(2)
    for x in SAMPLES:
        assert g(x) == pytest.approx(2.0 / (x - 10.0) ** 3, rel=1e-12)


def test_reciprocal_pole_raises():
    f = Reciprocal(1.5)
    assert f.pole() == 1.5
    with pytest.raises(PoleError):
        f(1.5)
    with pytest.raises(PoleError):
        f(np.array([0.0, 1.5]))


@pytest.mark.parametrize("power", range(1, 10))
def test_reciprocal_array_path_matches_scalar_path(power):
    # the array path raises |base| and restores the sign, the scalar path
    # divides by base**power; both sides of the pole, up to power 9 (n = 8)
    f = Reciprocal(10.0).derivative(power - 1)
    assert f.power == power
    rng = np.random.default_rng(power)
    xs = np.concatenate([rng.uniform(-2.0, 9.0, 500), rng.uniform(11.0, 40.0, 500)])
    got = f(xs)
    want = np.array([f(float(x)) for x in xs])
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))


@pytest.mark.parametrize("s", [0.0, 0.7, -0.7])
@pytest.mark.parametrize("power", range(10))
def test_reciprocal_weighted_translate_matches_the_scalar_path(power, s):
    # scale * kernel times the reciprocal to the power by squarings, against
    # kernel * scale / base**power on the scalar path at the same rounded
    # base d + s, d = total - shift.  The reciprocal's rounding enters the
    # power p times, a squaring's floor(p / 2^j) times, p - popcount(p) in
    # all, and each of the popcount(p) products into the result and the
    # product scale * kernel once: 2p + 1 roundings of at most 2^-53 each.
    # The scalar path rounds the pow (under one ulp, two roundings), the
    # quotient and the product with the kernel.  One more ulp covers the
    # second-order terms.
    f = Reciprocal(10.0, power, float((-1) ** (power - 1) * math.factorial(max(power - 1, 0))))
    rng = np.random.default_rng(power)
    shape = (2, 250)
    total = np.concatenate([rng.uniform(-2.0, 9.0, shape), rng.uniform(11.0, 40.0, shape)])
    kernel = rng.uniform(-3.0, 3.0, total.shape)
    base = (total - f.shift) + s
    at_origin = Reciprocal(0.0, power, f.scale)
    want = np.array([k * at_origin(float(b)) for k, b in zip(kernel.flat, base.flat)])
    with np.errstate(over="raise"):
        got = f.weighted_translate(kernel, total)(s).ravel()
    assert np.all(np.abs(got - want) <= (2 * power + 6) * np.spacing(np.abs(want)))


def test_reciprocal_weighted_translate_edges():
    kernel = np.ones(3)
    with pytest.raises(PoleError, match="pole 10.0"):
        Reciprocal(10.0).weighted_translate(kernel, np.array([9.0, 10.0, 11.0]))(0.0)
    # 1e-40 to the power 9 is far beyond float range
    tiny = Reciprocal(0.0, 9).weighted_translate(kernel, np.array([1.0, 1e-40, 2.0]))
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        tiny(0.0)
    # the reciprocal of 1e60 to the power 9 underflows, and raising 1e60
    # to the power 9 first would overflow
    far = Reciprocal(1e60, 9).weighted_translate(kernel, np.array([-1.0, 0.0, 1.0]))
    with np.errstate(over="raise", divide="raise"):
        assert far(0.7).tolist() == [0.0] * 3


def test_scalar_overflow_is_named():
    # math.sin(inf) raises a bare ValueError, math.exp(inf) returns inf
    with pytest.raises(OverflowError, match=r"^sin:1e\+308,0 overflows the float range$"):
        Sine(1e308)(2.0)
    for x in (2.0, -2.0):
        with pytest.raises(OverflowError, match=r"^exp:1e\+308 overflows the float range$"):
            Exponential(1e308)(x)
    with pytest.raises(OverflowError, match=r"^1e\+308\*exp:1 overflows the float range$"):
        Exponential(1.0, 1e308)(1.0)
    assert Exponential(1e308)(0.0) == 1.0


@pytest.mark.parametrize(
    "f, x, name",
    [
        # 1 / -1e-310 is -inf without an exception
        (Reciprocal(1e-310), 0.0, "recip:1e-310"),
        (Reciprocal(5e-324), 0.0, "recip:5e-324"),
        # (1e-200)**3 underflows to 0.0, which raised a bare ZeroDivisionError
        (Reciprocal(0.0, 3), 1e-200, r"1\*\(x-0\)\^-3"),
        # (1e200)**3 raised OverflowError with no name
        (Reciprocal(0.0, 3), 1e200, r"1\*\(x-0\)\^-3"),
    ],
)
def test_reciprocal_scalar_overflow_is_named(f, x, name):
    with pytest.raises(OverflowError, match=f"^{name} overflows the float range$"):
        f(x)


def test_polynomial_scalar_overflow_is_named():
    # a float Horner step overflows to inf without an exception
    with pytest.raises(OverflowError, match=r"^poly:0,0,1 overflows the float range$"):
        Polynomial((0, 0, 1))(1e200)
    with pytest.raises(OverflowError, match=r"^poly:0,0,1e308 overflows the float range$"):
        Polynomial((0, 0, Fraction(10**308)))(3.0)
    # the exact path stays exact, and a finite float value passes
    assert Polynomial((0, 0, 1))(Fraction(10**200)) == 10**400
    assert Polynomial((0, 0, 1))(2.0**500) == 2.0**1000


# -- the separable split that cubature contracts -----------------------------------


def _floats(bound):
    return st.floats(-bound, bound, allow_nan=False, allow_infinity=False)


def _translate(f, total, shift, centre=0.0):
    """The sum of f's split terms at one shift."""
    return sum(phi(np.array([shift])) * grid for phi, grid in f.split(total, centre))


@given(
    frequency=_floats(8.0),
    phase=_floats(8.0),
    amplitude=_floats(1e3).filter(lambda a: abs(a) >= 1e-3),
    grid=st.lists(_floats(10.0), min_size=1, max_size=12),
    shift=_floats(10.0),
)
def test_sine_translate_matches_the_shifted_sine(frequency, phase, amplitude, grid, shift):
    f = Sine(frequency, phase, amplitude)
    total = np.array(grid)
    got = _translate(f, total, shift)
    want = f(shift + total)
    # both routes round the angle, so the bound grows with its size
    angle = abs(frequency) * (abs(shift) + np.abs(total)) + abs(phase)
    tol = 4 * np.spacing(abs(amplitude)) * np.maximum(1.0, angle)
    assert np.all(np.abs(got - want) <= tol)


@given(
    rate=_floats(8.0),
    amplitude=_floats(1e3).filter(lambda a: abs(a) >= 1e-3),
    grid=st.lists(_floats(10.0), min_size=1, max_size=12),
    shift=_floats(10.0),
    centre=_floats(10.0),
)
def test_exponential_split_matches_the_shifted_exponential(rate, amplitude, grid, shift, centre):
    f = Exponential(rate, amplitude)
    total = np.array(grid)
    got = _translate(f, total, shift, centre)
    want = f(shift + total)
    # each route rounds its exponents, so the bound grows with their size
    power = abs(rate) * (abs(shift) + np.abs(total) + 2 * abs(centre))
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)) * np.maximum(1.0, power))


@pytest.mark.parametrize(
    "f",
    [
        Exponential(1.3, -2.0),
        Reciprocal(10.0).derivative(4),
        Polynomial((Fraction(1, 3), -2, 0, 5)),
    ],
    ids=lambda f: type(f).__name__,
)
def test_default_translate_keeps_the_bits(f):
    total = np.linspace(-3.0, 4.0, 1001).reshape(7, 11, 13)
    terms = f.split(total, 0.0)
    if isinstance(f, Exponential):
        # one term, whose grid is f on the grid itself and whose factor
        # at the centre is exactly 1
        ((phi, grid),) = terms
        assert grid.tobytes() == f(total).tobytes()
        assert phi(np.zeros(3)).tolist() == [1.0] * 3
    else:
        # no split: the cubature evaluates f(s + total) itself
        assert terms == ()


def test_sine_translate_rejects_a_non_finite_angle():
    terms = Sine(1e308, 0.5).split(np.linspace(-1e-3, 1e-3, 5), 0.0)
    for phi, _ in terms:
        assert np.isfinite(phi(np.array([1.0, -1.0]))).all()
        for shift in (2.0, -2.0):
            with pytest.raises(FloatingPointError, match=r"^sin:1e\+308,0.5 overflows"):
                phi(np.array([0.0, shift]))


def test_poles_absent_for_entire_families():
    assert Polynomial((1, 2)).pole() is None
    assert Exponential(1.0).pole() is None
    assert Sine(1.0).pole() is None


ALL_FAMILIES = [
    Polynomial((Fraction(1, 3), -2, 0, 5)),
    Exponential(1.3),
    Sine(1.7, 0.4),
    Reciprocal(10.0),
]


@pytest.mark.parametrize("f", ALL_FAMILIES, ids=lambda f: type(f).__name__)
def test_first_derivative_against_finite_differences(f):
    g = f.derivative()
    for x in SAMPLES:
        assert g(x) == pytest.approx(central_difference(f, x), rel=1e-6)


@pytest.mark.parametrize("f", ALL_FAMILIES, ids=lambda f: type(f).__name__)
def test_derivative_orders_compose(f):
    a = f.derivative(2).derivative(3)
    b = f.derivative(5)
    for x in SAMPLES:
        assert float(a(x)) == pytest.approx(float(b(x)), rel=1e-10)


@pytest.mark.parametrize("f", ALL_FAMILIES, ids=lambda f: type(f).__name__)
def test_zeroth_derivative_is_identity(f):
    g = f.derivative(0)
    for x in SAMPLES:
        assert float(g(x)) == pytest.approx(float(f(x)), rel=1e-15)


@pytest.mark.parametrize("f", ALL_FAMILIES, ids=lambda f: type(f).__name__)
def test_array_evaluation_matches_scalar(f):
    arr = f(np.array(SAMPLES))
    for x, ax in zip(SAMPLES, arr):
        assert ax == pytest.approx(float(f(x)), rel=1e-14)


# -- scalar and array dispatch ------------------------------------------------------

# float.hex of each family at 0.4 and at SAMPLES, whatever the moment numpy
# is imported.  `recip` differs in the last bit at 0.4 between its two
# paths, and every other scalar result is a Python or numpy scalar, never
# an array, so each pin also says which path a value took.
DISPATCH_FAMILIES = {
    "poly": Polynomial((Fraction(1, 3), -2, 0, 5)),
    "exp": Exponential(1.3, -2.0),
    "sin": Sine(1.7, 0.4, -2.5),
    "recip": Reciprocal(10.0, 3, 2.0),
}
SCALAR_PINS = {
    "poly": "-0x1.2c5f92c5f92c6p-3",
    "exp": "-0x1.ae995d326ca98p+1",
    "sin": "-0x1.1a39fbc947465p+1",
    "recip": "-0x1.284bda12f684dp-9",
}
ARRAY_PINS = {
    "poly": ["-0x1.4d4e81b4e81b5p+4", "0x1.98bf258bf258cp-1", "-0x1.2c5f92c5f92c6p-3",
             "0x1.32740da740da8p+2", "0x1.4c0da740da741p+6"],
    "exp": ["-0x1.c155779b95f6fp-3", "-0x1.5aa732db00d0ep+0", "-0x1.ae995d326ca98p+1",
            "-0x1.0b6fcebc48724p+3", "-0x1.d5eeadb0de133p+5"],
    "sin": ["0x1.84215863a2744p+0", "0x1.19084ea70fa7ap-2", "-0x1.1a39fbc947465p+1",
            "-0x1.e9d3c1635ca83p+0", "0x1.3e2622a70cb9ep+1"],
    "recip": ["-0x1.475998f6b5ecep-10", "-0x1.dfcc3bfc2b0d9p-10", "-0x1.284bda12f684cp-9",
              "-0x1.73da1058a265cp-9", "-0x1.4374a6b89f579p-8"],
}


@pytest.mark.parametrize("name", DISPATCH_FAMILIES)
def test_scalars_and_arrays_take_their_paths_with_numpy_loaded(name):
    f = DISPATCH_FAMILIES[name]
    for x in (0.4, Fraction(2, 5), np.float64(0.4)):
        value = f(x)
        assert not isinstance(value, np.ndarray)
        if name == "poly" and isinstance(x, Fraction):
            assert value == Fraction(-11, 75)  # the exact Horner path
        else:
            assert float(value).hex() == SCALAR_PINS[name]
    values = f(np.array(SAMPLES))
    assert isinstance(values, np.ndarray)
    assert [v.hex() for v in values.tolist()] == ARRAY_PINS[name]


# the same families in a fresh interpreter, where numpy is not yet loaded
_BEFORE_NUMPY = """
import json, sys
from fractions import Fraction
from vandiff.funcs import Exponential, Polynomial, Reciprocal, Sine
families = {
    "poly": Polynomial((Fraction(1, 3), -2, 0, 5)),
    "exp": Exponential(1.3, -2.0),
    "sin": Sine(1.7, 0.4, -2.5),
    "recip": Reciprocal(10.0, 3, 2.0),
}
out = {}
for name, f in families.items():
    values = [f(0.4), f(Fraction(2, 5))]
    out[name] = [type(v).__name__ + ":" + (str(v) if type(v) is Fraction else v.hex())
                 for v in values]
assert "numpy" not in sys.modules, "a scalar call loaded numpy"
print(json.dumps(out))
"""


def test_scalars_take_the_scalar_path_before_numpy_is_loaded():
    proc = subprocess.run(
        [sys.executable, "-c", _BEFORE_NUMPY], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    for name, pin in SCALAR_PINS.items():
        exact = "Fraction:-11/75" if name == "poly" else f"float:{pin}"
        assert got[name] == [f"float:{pin}", exact]


def test_negative_derivative_order_rejected():
    with pytest.raises(ValueError):
        Exponential(1.0).derivative(-1)


# -- grammar ------------------------------------------------------------------------


def test_parse_poly():
    f = parse_function("poly:0,0,1")
    assert isinstance(f, Polynomial) and f.coeffs == (0, 0, 1)
    assert parse_function("poly:1/2,-3").coeffs == (Fraction(1, 2), -3)


def test_parse_exp_sin_recip():
    assert parse_function("exp:1") == Exponential(1.0)
    assert parse_function("sin:2") == Sine(2.0, 0.0)
    assert parse_function("sin:1,0.5") == Sine(1.0, 0.5)
    assert parse_function("recip:10") == Reciprocal(10.0)


def test_parse_errors():
    with pytest.raises(ValueError, match="unknown function family"):
        parse_function("tan:1")
    with pytest.raises(ValueError, match="expected family:args"):
        parse_function("poly")
    with pytest.raises(ValueError, match="cannot parse function"):
        parse_function("poly:1,zap")
    with pytest.raises(ValueError, match="cannot parse function"):
        parse_function("sin:1,2,3")


@pytest.mark.parametrize(
    "text",
    [
        "poly:0,0,1",
        "poly:1/2,-3",
        "exp:1",
        "exp:-0.25",
        "exp:1e+200",
        "sin:2,0",
        "sin:1.5,0.5",
        "recip:10",
        "poly:0,0,1e308",
        "poly:-25e20,1/3,1e16",
    ],
)
def test_describe_round_trips(text):
    f = parse_function(text)
    assert f.describe() == text
    assert parse_function(f.describe()) == f
