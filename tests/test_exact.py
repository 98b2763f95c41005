"""Exact rational polynomial core: ring behavior, calculus, rendering."""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from vandiff import symfun
from vandiff.exact import (
    _MASK,
    MissingVariableError,
    MultiPoly,
    VarId,
    var_family,
)

T1, T2, T3 = var_family("t", 3)
X1, X2, X3 = var_family("x", 3)


def tp(v):
    return MultiPoly.variable(v)


# -- rational coefficients -----------------------------------------------------


def test_rational_is_reduced_with_positive_denominator():
    q = Fraction(6, -4)
    assert q.numerator == -3 and q.denominator == 2
    assert Fraction(0, 7) == 0 and Fraction(0, 7).denominator == 1


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        MultiPoly.const(0.5)
    with pytest.raises(TypeError):
        tp(T1) * 0.5


# -- arithmetic ------------------------------------------------------------------


def test_additive_inverse_gives_zero():
    assert (tp(T1) + (-tp(T1))).is_zero


def test_like_terms_merge():
    p = tp(T1) * tp(T2)
    assert (p + p).terms() == {(((T1, 1), (T2, 1))): Fraction(2)}


def test_cancellation():
    assert (tp(T2) - tp(T1)) + tp(T1) == tp(T2)


def test_binomial_product():
    got = (tp(T2) - tp(T1)) * (tp(T3) - tp(T1))
    want = tp(T2) * tp(T3) - tp(T1) * tp(T3) - tp(T1) * tp(T2) + tp(T1) ** 2
    assert got == want


def test_multiply_by_zero_annihilates():
    p = (tp(T1) + 3) * (tp(T2) - 7)
    assert (p * MultiPoly.zero()).is_zero


def test_three_variable_difference_product_has_six_unit_terms():
    p = (tp(T2) - tp(T1)) * (tp(T3) - tp(T1)) * (tp(T3) - tp(T2))
    terms = p.terms()
    assert len(terms) == 6
    assert all(abs(c) == 1 for c in terms.values())
    # brute-force oracle: evaluate both factored and expanded forms
    pts = {T1: Fraction(2), T2: Fraction(5), T3: Fraction(11)}
    factored = (pts[T2] - pts[T1]) * (pts[T3] - pts[T1]) * (pts[T3] - pts[T2])
    assert p.eval(pts) == factored


def test_power_matches_repeated_multiplication():
    p = tp(T1) + tp(T2) - 2
    assert p**3 == p * p * p
    assert p**0 == MultiPoly.one()


# -- calculus --------------------------------------------------------------------


def test_first_partials():
    assert (tp(T2) - tp(T1)).diff(T1) == MultiPoly.const(-1)
    assert (tp(T1) ** 2 * tp(T2)).diff(T1) == 2 * tp(T1) * tp(T2)


def test_second_partial_of_linear_term_vanishes():
    assert (tp(T2) - tp(T1)).diff(T1, 2).is_zero


def test_integrate_constant_over_symbolic_bounds():
    got = MultiPoly.one().integrate(T1, tp(X1), tp(X2))
    assert got == tp(X2) - tp(X1)


def test_iterated_integral_matches_closed_form():
    # integral of (t2 - t1) over [x1,x2] then [x2,x3] equals the expanded
    # product (x2-x1)(x3-x1)(x3-x2)/2
    inner = (tp(T2) - tp(T1)).integrate(T1, tp(X1), tp(X2))
    got = inner.integrate(T2, tp(X2), tp(X3))
    want = (
        (tp(X2) - tp(X1)) * (tp(X3) - tp(X1)) * (tp(X3) - tp(X2))
    ) * Fraction(1, 2)
    assert got == want


def test_integrate_with_rational_bounds():
    got = tp(T1).integrate(T1, 0, 1)
    assert got == MultiPoly.const(Fraction(1, 2))


def test_integration_bound_containing_variable_rejected():
    with pytest.raises(ValueError):
        tp(T1).integrate(T1, tp(T1), tp(X1))


def test_eval_simple():
    assert (tp(T2) - tp(T1)).eval({T1: 0, T2: 1}) == 1
    assert MultiPoly.zero().eval({}) == 0


def test_eval_vandermonde_n3_at_012():
    p = (tp(T2) - tp(T1)) * (tp(T3) - tp(T1)) * (tp(T3) - tp(T2))
    assert p.eval({T1: 0, T2: 1, T3: 2}) == 2


def test_eval_missing_variable_lists_names():
    with pytest.raises(MissingVariableError) as err:
        (tp(T1) + tp(T2)).eval({T1: 1})
    assert "t2" in str(err.value)


def test_substitute_constantlike_variable():
    got = (tp(T2) - tp(T1)).substitute(T1, tp(X1))
    assert got == tp(T2) - tp(X1)


def test_substitute_sum_into_square():
    a = VarId("u", 1)
    got = (tp(a) ** 2).substitute(a, tp(T1) + tp(T2))
    assert got == tp(T1) ** 2 + 2 * tp(T1) * tp(T2) + tp(T2) ** 2


def test_substitute_absent_variable_is_identity():
    p = tp(T1) * tp(T2) - 3
    assert p.substitute(T3, tp(X1) + 1) == p


# -- property-based ring and calculus laws ----------------------------------------

VARS = [T1, T2, T3]

coeffs = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


@st.composite
def polys(draw, max_terms=5, max_exp=3, variables=VARS):
    p = MultiPoly.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        mono = MultiPoly.one()
        for v in variables:
            e = draw(st.integers(0, max_exp))
            if e:
                mono = mono * tp(v) ** e
        p = p + MultiPoly.const(draw(coeffs)) * mono
    return p


@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(polys())
def test_mixed_partials_commute(p):
    assert p.diff(T1).diff(T2) == p.diff(T2).diff(T1)


@given(polys())
def test_derivative_of_antiderivative_restores(p):
    assert p.antiderivative(T2).diff(T2) == p


@given(polys(), st.fractions(min_value=-5, max_value=5, max_denominator=8))
def test_eval_commutes_with_substitution(p, r):
    base = {T1: Fraction(2, 3), T3: Fraction(-1, 4)}
    substituted = p.substitute(T2, MultiPoly.const(r))
    assert substituted.eval(base) == p.eval({**base, T2: r})


# replacements and bounds for T2: polynomials free of T2
free_of_t2 = polys(max_terms=3, max_exp=2, variables=[T1, T3, X1])


@given(polys(), free_of_t2, st.lists(coeffs, min_size=3, max_size=3))
def test_eval_commutes_with_polynomial_substitution(p, q, vals):
    point = dict(zip([T1, T3, X1], vals))
    assert p.substitute(T2, q).eval(point) == p.eval({**point, T2: q.eval(point)})


def assert_canonical(p):
    # the stored form the is_zero proofs rely on: no zero numerator, and
    # numerators and denominator without a common factor
    assert 0 not in p._terms.values() and p._den >= 1
    assert math.gcd(p._den, *p._terms.values()) == 1
    # the decoded view: every monomial sorted by variable with positive exponents
    for mono, c in p.terms().items():
        assert isinstance(c, Fraction) and c != 0
        assert all(e > 0 for _, e in mono)
        assert all(a < b for (a, _), (b, _) in zip(mono, mono[1:]))


@given(polys(), polys(), free_of_t2, free_of_t2)
def test_every_operation_keeps_the_canonical_form(a, b, q, r):
    for p in (
        a + b,
        a - b,
        a - a,
        a * b,
        a.diff(T2),
        a.diff(T2, 2),
        a.antiderivative(T2),
        a.substitute(T2, q),
        a.integrate(T2, q, r),
    ):
        assert_canonical(p)


# -- the one-pass eval and diff against their definitions --------------------------

values = st.one_of(
    st.integers(-20, 20), st.fractions(min_value=-20, max_value=20, max_denominator=30)
)


def eval_by_definition(p, point):
    total = Fraction(0)
    for mono, c in p.terms().items():
        term = c
        for v, e in mono:
            term *= Fraction(point[v]) ** e
        total += term
    return total


def diff_by_definition(p, v):
    out = MultiPoly.zero()
    for mono, c in p.terms().items():
        exps = dict(mono)
        e = exps.get(v, 0)
        if e:
            exps[v] = e - 1
            term = MultiPoly.const(c * e)
            for w, f in exps.items():
                term = term * tp(w) ** f
            out = out + term
    return out


@given(polys(max_exp=5), st.lists(values, min_size=4, max_size=4))
def test_eval_equals_the_term_loop(p, vals):
    # X1 appears in no term: an extra assigned variable is ignored
    point = dict(zip([T1, T2, T3, X1], vals))
    got = p.eval(point)
    assert isinstance(got, Fraction)
    assert got == eval_by_definition(p, point)


@given(st.one_of(st.just(0), coeffs), st.dictionaries(st.sampled_from(VARS), values))
def test_eval_of_a_constant_is_the_constant(c, point):
    got = MultiPoly.const(c).eval(point)
    assert isinstance(got, Fraction) and got == c


@given(polys(), st.sets(st.sampled_from(VARS)))
def test_eval_names_exactly_the_missing_variables(p, assigned):
    point = {v: Fraction(2, 3) for v in assigned}
    missing = tuple(v for v in p.variables() if v not in assigned)
    if not missing:
        assert p.eval(point) == eval_by_definition(p, point)
        return
    with pytest.raises(MissingVariableError) as err:
        p.eval(point)
    assert err.value.missing == missing
    assert str(err.value).endswith(", ".join(v.name for v in missing))


def test_eval_rejects_float_values_even_when_unused():
    for point in ({T1: 0.5}, {T1: 1, T2: 0.5}, {T2: 0.5}):
        with pytest.raises(TypeError):
            tp(T1).eval(point)


@given(polys(max_exp=4), st.sampled_from(VARS + [X1]), st.integers(0, 6))
def test_diff_of_order_k_equals_k_first_derivatives(p, v, k):
    want = p
    for _ in range(k):
        want = diff_by_definition(want, v)
    got = p.diff(v, k)
    assert got == want
    assert_canonical(got)


@given(polys(max_exp=4), st.sampled_from(VARS))
def test_diff_above_the_degree_is_zero_and_order_zero_is_identity(p, v):
    assert p.diff(v, 0) == p
    assert p.diff(v, p.degree_in(v) + 1).is_zero


def test_diff_rejects_a_negative_order():
    with pytest.raises(ValueError, match="non-negative"):
        tp(T1).diff(T1, -1)


def test_substitution_that_cancels_leaves_no_terms():
    p = (tp(T1) * tp(X1) - tp(T2) * tp(X1)).substitute(T1, tp(T2))
    assert p.is_zero and p.terms() == {} and p == 0


# -- rendering --------------------------------------------------------------------


def test_render_zero():
    assert MultiPoly.zero().render() == "0"


def test_render_graded_lex_descending():
    p = tp(T1) - tp(T1) ** 2 * tp(T2) + 3 + tp(T2) ** 3
    assert p.render() == "-t1^2*t2 + t2^3 + t1 + 3"


def test_render_fraction_coefficients():
    p = MultiPoly.const(Fraction(-1, 2)) * tp(X1) * tp(X2) ** 2
    assert p.render() == "-1/2*x1*x2^2"


def test_render_orders_t_family_before_x_family():
    p = tp(X1) + tp(T1)
    assert p.render() == "t1 + x1"


def test_rendering_holds_less_than_the_tuple_monomials_did():
    p = symfun._expand_vandermonde(7, "x")  # 5,040 terms
    tracemalloc.start()
    try:
        p.render()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # render over tuple monomials with Fraction coefficients peaked at
    # 915,033 bytes (1,190,256 on its first call) under Python 3.11.7;
    # corollary --n-max 6 prints this polynomial over 6!, so it sets the
    # memory peak of the lemma runs
    assert peak < 915_033


# -- exponent fields ----------------------------------------------------------------


def test_an_exponent_past_its_field_raises_naming_the_variable():
    full = tp(T2) ** _MASK
    assert full.terms() == {((T2, _MASK),): 1}
    message = f"^the exponent of t2 would exceed {_MASK}$"
    with pytest.raises(ValueError, match=message):
        tp(T2) ** (_MASK + 1)
    with pytest.raises(ValueError, match=message):
        full.antiderivative(T2)
    with pytest.raises(ValueError, match=message):
        (tp(T1) * tp(T2)).substitute(T1, full)


def test_large_exponents_of_different_variables_fit():
    a, b = tp(T1) ** 200, tp(T2) ** 200
    assert (a * b).terms() == {((T1, 200), (T2, 200)): 1}
    # only the term without t2 meets the power of the replacement
    got = (a + tp(T2)).substitute(T2, tp(T1) ** 55)
    assert got.terms() == {((T1, 200),): 1, ((T1, 55),): 1}


# -- the packed kernel against a reference model --------------------------------------
# The model is the kernel on decoded monomials: sorted ((variable, exponent),
# ...) tuples mapped to nonzero Fractions, merged by one accumulator.


def collect(pairs):
    out = {}
    for mono, c in pairs:
        c = out.pop(mono, 0) + c
        if c:
            out[mono] = c
    return out


def mono_mul(a, b):
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def without(mono, v):
    """v's exponent in mono, and mono without v."""
    exps = dict(mono)
    return exps.pop(v, 0), tuple(sorted(exps.items()))


class Model:
    def __init__(self, pairs):
        self.terms = collect(pairs)

    @classmethod
    def of(cls, p):
        return cls(p.terms().items())

    def __add__(self, other):
        return Model([*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return Model((m, -c) for m, c in self.terms.items())

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        return Model(
            (mono_mul(ma, mb), ca * cb)
            for ma, ca in self.terms.items()
            for mb, cb in other.terms.items()
        )

    def __pow__(self, k):
        out = Model([((), Fraction(1))])
        for _ in range(k):
            out = out * self
        return out

    def diff(self, v, k):
        out = []
        for mono, c in self.terms.items():
            e, rest = without(mono, v)
            if e >= k:
                out.append((mono_mul(rest, ((v, e - k),) if e > k else ()), c * math.perm(e, k)))
        return Model(out)

    def antiderivative(self, v):
        return Model(
            (mono_mul(mono, ((v, 1),)), c / (without(mono, v)[0] + 1))
            for mono, c in self.terms.items()
        )

    def substitute(self, v, r):
        out = Model([])
        for mono, c in self.terms.items():
            e, rest = without(mono, v)
            out = out + Model([(rest, c)]) * r**e
        return out

    def integrate(self, v, lower, upper):
        anti = self.antiderivative(v)
        return anti.substitute(v, upper) - anti.substitute(v, lower)

    def eval(self, point):
        return sum(
            (c * math.prod(Fraction(point[v]) ** e for v, e in mono) for mono, c in self.terms.items()),
            Fraction(0),
        )

    def degree_in(self, v):
        return max((without(mono, v)[0] for mono in self.terms), default=0)

    def variables(self):
        return tuple(sorted({v for mono in self.terms for v, _ in mono}))

    def render(self):
        if not self.terms:
            return "0"
        universe = self.variables()

        def graded_lex(item):
            exps = dict(item[0])
            return sum(exps.values()), [exps.get(v, 0) for v in universe]

        pieces = []
        for mono, c in sorted(self.terms.items(), key=graded_lex, reverse=True):
            factors = [v.name if e == 1 else f"{v.name}^{e}" for v, e in mono]
            body = "*".join(([] if abs(c) == 1 and factors else [str(abs(c))]) + factors)
            sign = "-" if c < 0 else "+"
            pieces.append(f" {sign} {body}" if pieces else body if c > 0 else f"-{body}")
        return "".join(pieces)


def from_model(model):
    # built term by term, a path independent of the operation under test
    out = MultiPoly.zero()
    for mono, c in model.terms.items():
        term = MultiPoly.const(c)
        for v, e in mono:
            term = term * tp(v) ** e
        out = out + term
    return out


def assert_agree(got, want):
    assert got.terms() == want.terms
    assert got.render() == want.render()
    assert got.variables() == want.variables()
    assert_canonical(got)


@given(polys(), polys(), st.integers(0, 3))
def test_ring_operations_agree_with_the_model(a, b, k):
    ma, mb = Model.of(a), Model.of(b)
    assert_agree(a + b, ma + mb)
    assert_agree(a - b, ma - mb)
    assert_agree(-a, -ma)
    assert_agree(a * b, ma * mb)
    assert_agree(a**k, ma**k)
    assert from_model(ma) == a and from_model(mb) == b
    assert (a == b) is (ma.terms == mb.terms)
    assert (a - b == 0) is (ma.terms == mb.terms)


@given(polys(max_exp=4), st.sampled_from(VARS + [X1]), st.integers(0, 5))
def test_calculus_agrees_with_the_model(p, v, k):
    model = Model.of(p)
    assert_agree(p.diff(v, k), model.diff(v, k))
    assert_agree(p.antiderivative(v), model.antiderivative(v))
    assert p.degree_in(v) == model.degree_in(v)


@given(polys(), free_of_t2, free_of_t2)
def test_substitution_and_integration_agree_with_the_model(p, q, r):
    model, mq, mr = Model.of(p), Model.of(q), Model.of(r)
    assert_agree(p.substitute(T2, q), model.substitute(T2, mq))
    assert_agree(p.substitute(T1, q), model.substitute(T1, mq))
    assert_agree(p.integrate(T2, q, r), model.integrate(T2, mq, mr))


@given(polys(max_exp=5), st.lists(values, min_size=3, max_size=3))
def test_eval_agrees_with_the_model(p, vals):
    point = dict(zip(VARS, vals))
    assert p.eval(point) == Model.of(p).eval(point)


# -- variable registration order -------------------------------------------------------

_REGISTRATION = """
import contextlib, hashlib, io, sys
from fractions import Fraction
from vandiff import cli
from vandiff.exact import _SLOTS, MultiPoly, var_family

assert not _SLOTS, "importing the package registered a variable"
if sys.argv[1] == "x-first":
    for v in var_family("x", 4):
        MultiPoly.variable(v)
t1, t2 = map(MultiPoly.variable, var_family("t", 2))
x1, x2 = map(MultiPoly.variable, var_family("x", 2))
p = (t1 - x2) ** 3 * (x1 + Fraction(1, 3) * t2) - t2 * x1
print(p.render())
print(sorted(p.terms().items()))
print(p.eval(dict(zip(var_family("t", 2) + var_family("x", 2), (1, Fraction(-2, 5), 3, 7)))))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    cli.main(["verify-lemmas", "--n-max", "3"])
print(hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def run_registration(order):
    proc = subprocess.run(
        [sys.executable, "-c", _REGISTRATION, order],
        capture_output=True,
        text=True,
        env={k: v for k, v in os.environ.items() if not k.startswith("VANDIFF_")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_output_does_not_depend_on_which_variables_came_first():
    usual, x_first = run_registration("t-first"), run_registration("x-first")
    assert usual.splitlines()[0] == (
        "1/3*t1^3*t2 + t1^3*x1 - t1^2*t2*x2 - 3*t1^2*x1*x2 + t1*t2*x2^2"
        " + 3*t1*x1*x2^2 - 1/3*t2*x2^3 - x1*x2^3 - t2*x1"
    )
    assert x_first == usual
