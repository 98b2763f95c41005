"""Symmetric polynomials, difference products, operators, vertices."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from vandiff import symfun
from vandiff.exact import MultiPoly, VarId, var_family
from vandiff.points import PointSequence, monotone_vertices
from vandiff.symfun import (
    SYMBOLIC_LIMIT,
    MixedSum,
    PureSum,
    SymbolicLimitError,
    apply_operator,
    elementary_symmetric,
    enumerate_vertices,
    omega,
    vandermonde_poly,
    vandermonde_product,
)

T = var_family("t", 6)


def tp(v):
    return MultiPoly.variable(v)


# -- elementary symmetric polynomials ---------------------------------------------


def test_esym_zero_is_one():
    assert elementary_symmetric(0, []) == MultiPoly.one()
    assert elementary_symmetric(0, [tp(T[0]), tp(T[1])]) == MultiPoly.one()


def test_esym_two_of_three():
    a, b, c = (tp(v) for v in T[:3])
    assert elementary_symmetric(2, [a, b, c]) == a * b + a * c + b * c


def test_esym_of_shifted_arguments():
    t = VarId("s", 1)
    args = [tp(t) - tp(T[0]), tp(t) - tp(T[1])]
    assert elementary_symmetric(1, args) == 2 * tp(t) - tp(T[0]) - tp(T[1])


def test_esym_index_out_of_range():
    with pytest.raises(ValueError):
        elementary_symmetric(3, [tp(T[0])])
    with pytest.raises(ValueError):
        elementary_symmetric(-1, [tp(T[0])])


@given(st.integers(1, 5), st.integers(0, 5))
def test_esym_matches_subset_enumeration(m, k):
    # oracle: literal sum over k-subsets of distinct arguments
    if k > m:
        return
    args = [tp(v) for v in T[:m]]
    want = MultiPoly.zero()
    for subset in combinations(args, k):
        prod = MultiPoly.one()
        for a in subset:
            prod = prod * a
        want = want + prod
    assert elementary_symmetric(k, args) == want


# -- monic root products --------------------------------------------------------


def test_omega_no_roots_is_one():
    assert omega([], VarId("s", 1)) == MultiPoly.one()


def test_omega_two_symbolic_roots():
    s = VarId("s", 1)
    got = omega([tp(T[0]), tp(T[1])], s)
    want = tp(s) ** 2 - (tp(T[0]) + tp(T[1])) * tp(s) + tp(T[0]) * tp(T[1])
    assert got == want


def test_omega_numeric_roots():
    s = VarId("s", 1)
    got = omega([MultiPoly.const(0), MultiPoly.const(1)], s)
    assert got == tp(s) ** 2 - tp(s)


def test_omega_rejects_root_containing_the_variable():
    s = VarId("s", 1)
    with pytest.raises(ValueError):
        omega([tp(s) + 1], s)


@given(st.integers(0, 4))
def test_omega_coefficients_are_signed_esyms(m):
    # classic expansion: omega(s) = sum_k (-1)^k e_k(roots) s^(m-k)
    s = VarId("s", 1)
    roots = [tp(v) for v in T[:m]]
    sp = tp(s)
    want = MultiPoly.zero()
    for k in range(m + 1):
        sign = Fraction(-1) ** k
        want = want + MultiPoly.const(sign) * elementary_symmetric(k, roots) * sp ** (m - k)
    assert omega(roots, s) == want


# -- difference products ----------------------------------------------------------


def test_vandermonde_poly_small_cases():
    assert vandermonde_poly(1) == MultiPoly.one()
    assert vandermonde_poly(2) == tp(T[1]) - tp(T[0])


def test_vandermonde_poly_value_at_integers():
    p = vandermonde_poly(3)
    assert p.eval({T[0]: 0, T[1]: 1, T[2]: 2}) == 2


def test_vandermonde_poly_term_count_is_factorial():
    import math

    for n in range(1, 6):
        assert len(vandermonde_poly(n).terms()) == math.factorial(n)


def binomial_product(n):
    """prod_{i<j} (t_j - t_i) multiplied out one binomial at a time."""
    ts = [tp(v) for v in var_family("t", n)]
    out = MultiPoly.one()
    for i, j in combinations(range(n), 2):
        out = out * (ts[j] - ts[i])
    return out


@pytest.mark.parametrize("n", range(1, SYMBOLIC_LIMIT + 1))
def test_vandermonde_poly_equals_the_binomial_product(n):
    assert vandermonde_poly(n) == binomial_product(n)


def test_vandermonde_poly_cap():
    assert SYMBOLIC_LIMIT == 7
    # V_7 is homogeneous of degree 7*6/2
    assert {sum(e for _, e in mono) for mono in vandermonde_poly(7).terms()} == {21}
    with pytest.raises(SymbolicLimitError, match="n=8 exceeds the symbolic cap 7"):
        vandermonde_poly(8)
    # the volume identity caches V_8 in x for its right side; the cap holds
    symfun._expand_vandermonde(8, "x")
    with pytest.raises(SymbolicLimitError):
        vandermonde_poly(8, "x")


def test_vandermonde_poly_takes_no_limit():
    with pytest.raises(TypeError):
        vandermonde_poly(5, limit=5)
    with pytest.raises(TypeError):
        vandermonde_poly(8, "t", 8)


def test_vandermonde_poly_is_expanded_once_however_it_is_called():
    symfun._expand_vandermonde.cache_clear()
    spellings = [
        vandermonde_poly(5),
        vandermonde_poly(5, "t"),
        vandermonde_poly(n=5),
        vandermonde_poly(5, family="t"),
    ]
    info = symfun._expand_vandermonde.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert all(p is spellings[0] for p in spellings)


def test_vandermonde_poly_alternating_sign():
    p = vandermonde_poly(3)
    swapped = p.substitute(T[0], tp(VarId("u", 1))).substitute(T[1], tp(T[0]))
    swapped = swapped.substitute(VarId("u", 1), tp(T[1]))
    assert swapped == -p


def test_vandermonde_product_exact_and_float():
    exact = vandermonde_product([Fraction(0), Fraction(1), Fraction(2)])
    assert exact == Fraction(2) and isinstance(exact, Fraction)
    approx = vandermonde_product([0.0, 1.0, 2.0])
    assert approx == pytest.approx(2.0)


def test_vandermonde_product_single_value_is_empty_product():
    assert vandermonde_product([Fraction(5)]) == 1


def test_vandermonde_routes_agree_on_random_rationals():
    rng = random.Random(99)
    for n in range(2, 6):
        vals = sorted(Fraction(rng.randrange(-50, 50), rng.randrange(1, 9)) for _ in range(n))
        poly = vandermonde_poly(n)
        assigned = {T[i]: vals[i] for i in range(n)}
        assert poly.eval(assigned) == vandermonde_product(vals)


# -- derivative-sum operators -----------------------------------------------------


def test_mixed_sum_of_difference_vanishes():
    p = tp(T[1]) - tp(T[0])
    assert apply_operator(MixedSum(1), p, T[:2]).is_zero


def test_mixed_sum_full_order_on_product():
    p = tp(T[0]) * tp(T[1])
    assert apply_operator(MixedSum(2), p, T[:2]) == MultiPoly.one()


def test_pure_sum_annihilates_difference_product():
    v3 = vandermonde_poly(3)
    assert apply_operator(PureSum(2), v3, T[:3]).is_zero


def test_operator_order_validation():
    p = tp(T[0])
    with pytest.raises(ValueError):
        apply_operator(PureSum(0), p, T[:2])
    with pytest.raises(ValueError):
        apply_operator(MixedSum(3), p, T[:2])


def test_pure_sum_k1_equals_mixed_sum_k1():
    p = (tp(T[0]) + 2 * tp(T[1])) ** 3 - tp(T[2]) * tp(T[0])
    a = apply_operator(PureSum(1), p, T[:3])
    b = apply_operator(MixedSum(1), p, T[:3])
    assert a == b


def test_operator_variables_must_be_distinct():
    p = tp(T[0]) * tp(T[1])
    for op in (PureSum(1), MixedSum(2)):
        with pytest.raises(ValueError, match="distinct"):
            apply_operator(op, p, [T[0], T[0]])


@st.composite
def polys_on_four(draw):
    p = MultiPoly.zero()
    for _ in range(draw(st.integers(0, 6))):
        term = MultiPoly.const(draw(st.fractions(-9, 9, max_denominator=7)))
        for v in T[:4]:
            term = term * tp(v) ** draw(st.integers(0, 3))
        p = p + term
    return p


def mixed_sum_by_definition(k, p, variables):
    result = MultiPoly.zero()
    for subset in combinations(variables, k):
        q = p
        for v in subset:
            q = q.diff(v)
        result = result + q
    return result


@given(
    polys_on_four(),
    st.lists(st.sampled_from(T[:5]), min_size=1, max_size=5, unique=True),
)
def test_mixed_sum_equals_the_chain_of_subset_derivatives(p, variables):
    # variables may be a strict subset of p's, or name T[4], which p lacks;
    # k runs up to len(variables)
    for k in range(1, len(variables) + 1):
        got = apply_operator(MixedSum(k), p, variables)
        assert got == mixed_sum_by_definition(k, p, variables)


# -- rectangle vertices ------------------------------------------------------------


def test_enumerate_vertices_order_and_values():
    got = enumerate_vertices([(0, 1), (1, 2)])
    assert [pt for _, pt in got] == [(0, 1), (1, 1), (0, 2), (1, 2)]
    assert [eps for eps, _ in got] == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_enumerate_vertices_count():
    bounds = [(0, 1)] * 4
    assert len(enumerate_vertices(bounds)) == 16


def test_monotone_selectors_are_subset_of_all_vertices():
    for n in range(1, 5):
        x = PointSequence.exact([Fraction(i * i) for i in range(n + 1)])
        flagged = dict((point, eps) for eps, point in enumerate_vertices(x.intervals))
        mono = monotone_vertices(x)
        assert len(mono) == n + 1
        assert all(v in flagged for v in mono)
        # non-decreasing flags within each selector
        for v in mono:
            assert list(flagged[v]) == sorted(flagged[v])
