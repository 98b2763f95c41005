"""Gauss-Legendre rules and deterministic tensor-product cubature."""

import hashlib
import itertools
import math
import re
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from vandiff import quad
from vandiff.funcs import (
    AnalyticFunction,
    Exponential,
    PoleError,
    Polynomial,
    Reciprocal,
    Sine,
)
from vandiff.identity import floating_suite_points
from vandiff.points import PointSequence, sum_bounds
from vandiff.quad import (
    MAX_DIMENSION,
    MAX_ORDER,
    BudgetExceededError,
    gauss_legendre,
    integral_side,
)
from vandiff.symfun import vandermonde_product


# -- one-dimensional rules ----------------------------------------------------------


def test_order_one_is_midpoint_rule():
    rule = gauss_legendre(1)
    assert rule.nodes == (0.0,)
    assert rule.weights == (2.0,)


def test_order_two_nodes():
    rule = gauss_legendre(2)
    r = 1 / math.sqrt(3)
    assert rule.nodes[0] == pytest.approx(-r, abs=1e-15)
    assert rule.nodes[1] == pytest.approx(r, abs=1e-15)
    assert rule.weights == (pytest.approx(1.0), pytest.approx(1.0))


def test_odd_order_has_exact_zero_node():
    for order in (3, 5, 9):
        assert gauss_legendre(order).nodes[order // 2] == 0.0


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 8, 13, 20, 32, 64])
def test_rule_invariants(order):
    rule = gauss_legendre(order)
    assert len(rule.nodes) == len(rule.weights) == order
    assert math.fsum(rule.weights) == pytest.approx(2.0, abs=1e-14)
    assert all(b > a for a, b in zip(rule.nodes, rule.nodes[1:]))
    assert all(w > 0 for w in rule.weights)
    # exact mirror symmetry, bit for bit
    for i in range(order):
        assert rule.nodes[i] == -rule.nodes[order - 1 - i]
        assert rule.weights[i] == rule.weights[order - 1 - i]


@pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 13, 21])
def test_monomial_exactness(order):
    rule = gauss_legendre(order)
    for k in range(2 * order):
        got = math.fsum(w * z**k for z, w in zip(rule.nodes, rule.weights))
        want = 0.0 if k % 2 else 2.0 / (k + 1)
        assert got == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize("order", list(range(1, 21)) + [32, 48, 64])
def test_rules_match_reference_implementation(order):
    # independent oracle for the hand-rolled Newton iteration
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(order)
    rule = gauss_legendre(order)
    assert np.allclose(rule.nodes, ref_nodes, atol=1e-14, rtol=0)
    assert np.allclose(rule.weights, ref_weights, atol=1e-14, rtol=0)


def test_rules_are_bit_identical_to_pinned_digest():
    # sha256 of repr of every rule's nodes and weights, orders 1..64
    rules = [(gauss_legendre(o).nodes, gauss_legendre(o).weights) for o in range(1, 65)]
    digest = hashlib.sha256(repr(rules).encode()).hexdigest()
    assert digest == "32300b2f5250e9ca1e0f06bd21b608c7cfe667b84f95e8ef955ee09f239d9bee"


def test_order_out_of_range():
    with pytest.raises(ValueError):
        gauss_legendre(0)
    with pytest.raises(ValueError):
        gauss_legendre(MAX_ORDER + 1)


# -- the integral side of the identity --------------------------------------------


def test_one_dimensional_case_is_fundamental_theorem():
    x = PointSequence.floating([0, 1])
    got = integral_side(x, Exponential(1.0), 20)
    assert got.value == pytest.approx(math.e - 1, rel=1e-14)


def test_two_dimensional_volume_case():
    # f = s^2/2 has second derivative 1, so the integrand reduces to
    # t2 - t1 over [0,1]x[1,2], which integrates to 1
    f = Polynomial((0, 0, Fraction(1, 2)))
    got = integral_side(PointSequence.floating([0, 1, 2]), f, 10)
    assert got.value == pytest.approx(1.0, rel=1e-13)


def reference_cubature(intervals, integrand, order):
    """The plain tensor-product rule, one node at a time."""
    rule = gauss_legendre(order)
    axes = []
    for a, b in intervals:
        half = 0.5 * (b - a)
        axes.append(
            [(0.5 * (a + b) + half * z, half * w) for z, w in zip(rule.nodes, rule.weights)]
        )
    terms = []
    for node in itertools.product(*axes):
        weight = math.prod(w for _, w in node)
        terms.append(weight * float(integrand(*(t for t, _ in node))))
    return math.fsum(terms)


# (n, order, slab size bound, k leading axes): a call forms V of the
# trailing axes once and V of the leading axes once per block, order**(k-1)
# times; the cases span one slab (k = 0), one block (k = 1) and k = 2 and
# 3, where a small bound reaches them on a grid the reference can walk, and
# the last leaves a single trailing axis
SIDE_CASES = [
    (1, 9, quad._CHUNK, 0),
    (2, 20, quad._CHUNK, 0),
    (3, 6, quad._CHUNK, 0),
    (3, 41, quad._CHUNK, 1),
    (3, 4, 16, 1),
    (4, 3, 9, 2),
    (5, 3, 27, 2),
    (6, 2, 16, 2),
    (6, 3, 81, 2),
    (4, 3, 3, 3),
]

SIDE_FUNCTIONS = [
    Exponential(1.0),
    Sine(1.0, 0.0),
    Reciprocal(10.0),
    Polynomial((1, -2, Fraction(1, 2), 3, 0, 1, -1, 2)),
    Sine(1.7, 0.4, -2.5),
]


@pytest.mark.parametrize("f", SIDE_FUNCTIONS, ids=lambda f: f.describe())
@pytest.mark.parametrize("n, order, chunk, k", SIDE_CASES)
def test_integral_side_matches_the_per_node_integrand(monkeypatch, n, order, chunk, k, f):
    monkeypatch.setattr(quad, "_CHUNK", chunk)
    trailing_products = []

    def spy(values):
        trailing_products.append(isinstance(values[0], np.ndarray))
        return vandermonde_product(values)

    monkeypatch.setattr(quad, "vandermonde_product", spy)
    x = PointSequence.floating([-0.8 + 0.35 * i + 0.05 * i * i for i in range(n + 1)])
    got = integral_side(x, f, order)
    assert trailing_products.count(True) == 1 + (order ** (k - 1) if k else 0)
    assert got.function_evaluations == order**n
    fn = f.derivative(n)

    def per_node(*t):
        pairs = itertools.combinations(t, 2)
        return math.prod(tj - ti for ti, tj in pairs) * fn(sum(t))

    want = reference_cubature(x.intervals, per_node, order)
    assert got.value == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("f", SIDE_FUNCTIONS[:4], ids=lambda f: f.describe())
def test_integral_side_holds_less_than_order_slabs(f):
    # order 20 at n = 5: 20^3 nodes in a slab, 20 slabs in a block; every
    # array the call makes at once fits in the bytes of one block's nodes
    x = floating_suite_points(5)[0]
    integral_side(x, f, 20)  # numpy and the rule are loaded before tracing
    tracemalloc.start()
    try:
        integral_side(x, f, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 20**3 * 8


class GridSpy(AnalyticFunction):
    """`inner` and its derivatives, recording the size of every grid the
    cubature hands them or gets back from them."""

    def __init__(self, inner, sizes):
        self.inner = inner
        self.sizes = sizes

    def derivative(self, k=1):
        return GridSpy(self.inner.derivative(k), self.sizes)

    def __call__(self, x):
        self.sizes.append(np.size(x))
        return self.inner(x)

    def split(self, total, centre):
        self.sizes.append(total.size)
        terms = self.inner.split(total, centre)
        self.sizes += [grid.size for _, grid in terms]
        return terms

    def weighted_translate(self, kernel, total):
        self.sizes.append(total.size)
        at = self.inner.weighted_translate(kernel, total)

        def spied(s):
            out = at(s)
            self.sizes.append(out.size)
            return out

        return spied

    def pole(self):
        return self.inner.pole()

    def describe(self):
        return self.inner.describe()


def test_no_call_sees_more_than_one_chunk():
    # exp takes the split, recip the weighted translate
    for f in (Exponential(1.0), Reciprocal(-1.0)):
        for n in range(1, MAX_DIMENSION + 1):
            sizes = []
            got = integral_side(PointSequence.floating(range(n + 1)), GridSpy(f, sizes), 10)
            assert got.function_evaluations == 10**n
            assert sizes and max(sizes) <= quad._CHUNK


@pytest.mark.parametrize("n, translates", [(3, 0), (4, 1), (5, 1)])
def test_sine_translate_is_built_once_per_call(monkeypatch, n, translates):
    # order 20 gives n = 3 no leading axis, n = 5 400 slabs
    built = []
    split = Sine.split

    def spy(self, total, centre):
        built.append(total.shape)
        return split(self, total, centre)

    monkeypatch.setattr(Sine, "split", spy)
    x = floating_suite_points(n)[0]
    got = integral_side(x, Sine(1.0, 0.0), 20)
    assert built == [(20, 20, 20)] * translates
    assert math.isfinite(got.value)


@pytest.mark.parametrize("name", ["exp", "sin", "recip", "poly"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_weighted_translate_is_built_once_per_call(monkeypatch, n, name):
    # only a family without a split takes the slab-at-a-time hook, and
    # only where the grid has a leading axis (from n = 4 at order 20)
    built = []
    for cls in (AnalyticFunction, Reciprocal):
        hook = cls.weighted_translate

        def spy(self, kernel, total, hook=hook):
            built.append(total.shape)
            return hook(self, kernel, total)

        monkeypatch.setattr(cls, "weighted_translate", spy)
    got = integral_side(floating_suite_points(n)[0], PIN_FUNCTIONS[name], 20)
    once = n >= 4 and name in ("recip", "poly")
    assert built == [(20, 20, 20)] * once
    assert math.isfinite(got.value)


# integral_side values at the first criterion-2 point sequence for each n,
# as float.hex; from n = 4 the grid has a leading axis, and the values are
# those of the contraction
SIDE_PINS = {
    (1, "exp"): "0x1.3b8ce3e4a64e2p-4",
    (1, "sin"): "0x1.d22a26429b1f5p-4",
    (1, "recip"): "-0x1.be6783a310932p-10",
    (1, "poly"): "0x1.82f6d9aa96bdbp+2",
    (1, "sinw"): "-0x1.079aa38b5f25fp-2",
    (2, "exp"): "0x1.79b4142dbecf0p+5",
    (2, "sin"): "-0x1.ceac783efec9cp+0",
    (2, "recip"): "-0x1.0da01d65bc8aep-6",
    (2, "poly"): "0x1.29bed24886092p+15",
    (2, "sinw"): "-0x1.b490591353d88p+3",
    (3, "exp"): "0x1.2a3a0c5ebbd30p+3",
    (3, "sin"): "-0x1.82bb98f4cf786p+2",
    (3, "recip"): "-0x1.4bb965e0898aep-8",
    (3, "poly"): "0x1.e1925692c350cp+12",
    (3, "sinw"): "0x1.29daf298796f6p+5",
    (4, "exp"): "0x1.14509373f6a6dp+6",
    (4, "sin"): "0x1.11c37e6549234p+1",
    (4, "recip"): "-0x1.599f58e418423p-8",
    (4, "poly"): "0x1.0deff7aebf17fp+17",
    (4, "sinw"): "0x1.fb776b626688ap+5",
    (5, "exp"): "0x1.6a71006f48952p+10",
    (5, "sin"): "-0x1.90621f2730657p+1",
    (5, "recip"): "-0x1.34f579bfc1678p-4",
    (5, "poly"): "0x1.58d9e562c584ap+20",
    (5, "sinw"): "0x1.f4bac234a11c0p+4",
}

PIN_FUNCTIONS = {
    "exp": Exponential(1.0),
    "sin": Sine(1.0, 0.0),
    "recip": Reciprocal(10.0),
    "poly": SIDE_FUNCTIONS[3],
    "sinw": SIDE_FUNCTIONS[4],
}


@pytest.mark.parametrize("n, family", SIDE_PINS, ids=lambda v: str(v))
def test_integral_side_bits_are_pinned(n, family):
    got = integral_side(floating_suite_points(n)[0], PIN_FUNCTIONS[family], 20)
    assert got.value.hex() == SIDE_PINS[n, family]


def _mp_value(mpmath, f, y):
    """f at the mpf y, evaluated in mpmath arithmetic."""
    if isinstance(f, Exponential):
        return f.amplitude * mpmath.exp(f.rate * y)
    if isinstance(f, Sine):
        return f.amplitude * mpmath.sin(f.frequency * y + f.phase)
    if isinstance(f, Reciprocal):
        return f.scale / (y - f.shift) ** f.power
    terms = (mpmath.mpf(c.numerator) / c.denominator * y**i for i, c in enumerate(f.coeffs))
    return mpmath.fsum(terms)


def _mp_product_side(mpmath, x, f):
    """V(x) * f[y] at 50 digits, by the reciprocal-product sum."""
    with mpmath.workdps(50):
        xs = [mpmath.mpf(v) for v in x.as_floats()]
        ys = [mpmath.fsum(xs) - v for v in reversed(xs)]
        ref = mpmath.mpf(0)
        for i, yi in enumerate(ys):
            others = ys[:i] + ys[i + 1 :]
            ref += _mp_value(mpmath, f, yi) / mpmath.fprod(yi - yj for yj in others)
        return ref * mpmath.fprod(xj - xi for xi, xj in itertools.combinations(xs, 2))


@pytest.mark.parametrize("family", ["exp", "sin", "recip", "poly"])
@pytest.mark.parametrize("n", [4, 5])
def test_cubature_matches_a_50_digit_reference(n, family):
    mpmath = pytest.importorskip("mpmath")
    f = PIN_FUNCTIONS[family]
    worst = 0.0
    for x in floating_suite_points(n):
        ref = _mp_product_side(mpmath, x, f)
        got = integral_side(x, f, 20).value
        worst = max(worst, float(abs((got - ref) / ref)))
    assert worst <= 1e-14


@pytest.mark.parametrize("side", [-1, 1])
@pytest.mark.parametrize("spans", [0.3, 1.0])
@pytest.mark.parametrize("n", [4, 5])
def test_recip_near_its_pole_matches_a_50_digit_reference(n, spans, side):
    # the pole 0.3 or 1 widths of the coordinate-sum range below or above
    # it, where f^(n) varies most over the box
    mpmath = pytest.importorskip("mpmath")
    for x in floating_suite_points(n)[:4]:
        lo, hi = sum_bounds(x)
        pole = hi + spans * (hi - lo) if side > 0 else lo - spans * (hi - lo)
        f = Reciprocal(pole)
        ref = _mp_product_side(mpmath, x, f)
        got = integral_side(x, f, 20).value
        assert float(abs((got - ref) / ref)) <= 1e-14


# exp:1 on n + 1 unit-spaced points from `start`: the integral is within
# a factor of 1e4 of the float maximum, and one unit further on the
# cubature overflows (tests/test_cli.py)
@pytest.mark.parametrize("n, start", [(4, 174.0), (5, 137.0)])
def test_centred_split_is_finite_near_the_float_maximum(n, start):
    mpmath = pytest.importorskip("mpmath")
    x = PointSequence.floating([start + i for i in range(n + 1)])
    got = integral_side(x, Exponential(1.0), 20).value
    ref = _mp_product_side(mpmath, x, Exponential(1.0))
    assert ref > 1e304
    assert float(abs((got - ref) / ref)) <= 1e-14


def test_budget_guard():
    x = PointSequence.floating([0, 1, 2, 3])
    message = r"^10\^3 = 1000 node evaluations exceed the budget 999$"
    with pytest.raises(BudgetExceededError, match=message):
        integral_side(x, Exponential(1.0), 10, budget=999)


@pytest.mark.parametrize(
    "box, f",
    [
        # the slab weights
        ((1e200, 2e200, 3e200), Polynomial((0, 0, 1))),
        # the sum of 20 finite partials
        ((0, 4, 5, 6, 7), Polynomial((0, 0, 0, 0, 2 * 10**304))),
        # a slab total times its leading weight: only the last slab's
        # partial overflows, and the rest sum to a finite value
        ((-200, 0, 1, 2, 3), Exponential(7.0, 5e289)),
    ],
    ids=["box0", "box1", "box2"],
)
def test_overflow_names_the_function(box, f):
    message = f"^the cubature for {re.escape(f.describe())} overflows the float range$"
    with pytest.raises(OverflowError, match=message):
        integral_side(PointSequence.floating(box), f, 20)


@pytest.mark.parametrize("workers", [1, 2])
def test_overflow_in_a_slab_raises_in_every_thread(workers):
    # order 20 in 5-D: 20 blocks of 20 slabs, and f^(5)(s) = 7.2e307 * s
    # overflows in the first block, inside the loop over blocks; the raise
    # must not depend on the caller's floating-point error state, so the
    # call is made from `workers` threads at once and each must see it
    f = Polynomial((0,) * 6 + (10**305,))
    raised = [None] * workers

    def run(i):
        try:
            integral_side(PointSequence.floating(range(6)), f, 20)
        except OverflowError as exc:
            raised[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert all(isinstance(exc, OverflowError) for exc in raised)


def test_pole_inside_sum_range_rejected():
    x = PointSequence.floating([0, 1, 2])
    with pytest.raises(PoleError, match="coordinate-sum range"):
        integral_side(x, Reciprocal(2.0), 10)


def test_pole_outside_sum_range_allowed():
    x = PointSequence.floating([0, 1, 2])
    got = integral_side(x, Reciprocal(10.0), 24)
    assert math.isfinite(got.value)


def test_dimension_cap():
    x = PointSequence.floating(list(range(MAX_DIMENSION + 2)))
    with pytest.raises(ValueError, match="dimension"):
        integral_side(x, Exponential(1.0), 4)
