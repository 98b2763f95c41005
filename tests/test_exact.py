"""Exact rational polynomial core: ring behavior, calculus, rendering."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from vandiff.exact import (
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
    # the stored form the is_zero proofs rely on: no zero coefficient, and
    # every monomial sorted by variable with positive exponents
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
