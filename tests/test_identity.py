"""Identity checks, lemma suite, report serialization."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vandiff import identity, symfun
from vandiff.divdiff import divided_difference
from vandiff.exact import MultiPoly, var_family
from vandiff.funcs import Exponential, PoleError, Polynomial, Reciprocal, Sine
from vandiff.identity import (
    DEFAULT_SEED,
    LEMMA_GROUPS,
    ZERO_GUARD,
    IdentityReport,
    _float_verdict,
    _has_zero_property,
    _report,
    check_chain_rule,
    check_identity_exact,
    check_identity_numeric,
    check_reduced_vertex_sum,
    check_vertex_sum,
    check_volume_symbolic,
    divided_difference_via_integral,
    exact_integral_value,
    exact_suite_points,
    floating_suite_points,
    json_value,
    random_increasing_floats,
    random_increasing_rationals,
    run_lemma_suite,
    suite_passed,
)
from vandiff.points import PointSequence
from vandiff.symfun import SYMBOLIC_LIMIT, MixedSum, SymbolicLimitError, vandermonde_poly

import random


def tp(v):
    return MultiPoly.variable(v)


def monomial(k, scale=1):
    return Polynomial((0,) * k + (Fraction(scale),))


# -- exact pipeline ---------------------------------------------------------------


def test_exact_identity_half_square():
    x = PointSequence.exact([0, 1, 2])
    report = check_identity_exact(x, monomial(2, Fraction(1, 2)))
    assert report.passed
    assert report.lhs == report.rhs == 1
    assert report.abs_err == report.rel_err == 0.0
    assert report.config["pipeline"] == "exact"


def test_exact_identity_cube():
    x = PointSequence.exact([0, 1, 2])
    report = check_identity_exact(x, monomial(3))
    assert report.passed and report.lhs == 12


def test_exact_identity_one_dimension():
    x = PointSequence.exact([0, 1])
    report = check_identity_exact(x, monomial(5))
    assert report.passed and report.lhs == 1


def test_exact_integral_value_is_fundamental_theorem_for_n1():
    x = PointSequence.exact([0, 1])
    assert exact_integral_value(x, monomial(5)) == 1
    assert exact_integral_value(x, Polynomial((3, 2))) == 2


def iterated_box_integral(p, tvars, bounds, g):
    """The reference route: expand p * g(t_1 + ... + t_n), then integrate
    one axis at a time between its bounds."""
    s = MultiPoly.zero()
    for v in tvars:
        s = s + tp(v)
    g_of_s = MultiPoly.zero()
    for c in reversed(g):
        g_of_s = g_of_s * s + c
    value = p * g_of_s
    for v, (a, b) in zip(tvars, bounds):
        value = value.integrate(v, a, b)
    return value.as_constant()


# ints, and rationals with denominators up to 100, negative or straddling 0
_bound = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=100),
)
_coefficient = st.fractions(min_value=-10, max_value=10, max_denominator=100)


@st.composite
def box_integral_cases(draw):
    n = draw(st.integers(1, 4))
    tvars = var_family("t", n)
    p = MultiPoly.zero()
    for _ in range(draw(st.integers(0, 4))):  # 0 terms is p = 0
        term = MultiPoly.const(draw(_coefficient))
        for v in tvars:
            term = term * tp(v) ** draw(st.integers(0, 3))
        p = p + term
    g = draw(st.lists(_coefficient, min_size=0, max_size=5))  # [] is g = 0
    bounds = [(draw(_bound), draw(_bound)) for _ in tvars]
    return p, tvars, bounds, g


@settings(max_examples=150)
@given(box_integral_cases())
def test_box_integral_equals_iterated_integration(case):
    p, tvars, bounds, g = case
    value = identity._box_integral(p, tvars, bounds, g)
    assert isinstance(value, Fraction)
    assert value == iterated_box_integral(p, tvars, bounds, g)


def test_box_integral_of_zero_is_zero():
    tvars = var_family("t", 2)
    box = [(0, 1), (Fraction(-1, 3), 2)]
    assert identity._box_integral(MultiPoly.zero(), tvars, box, (1, 2)) == 0
    assert identity._box_integral(tp(tvars[0]), tvars, box, ()) == 0


def test_box_integral_rejects_foreign_variables_and_float_bounds():
    t1 = var_family("t", 1)[0]
    x1 = var_family("x", 1)[0]
    with pytest.raises(ValueError, match="x1"):
        identity._box_integral(tp(x1), [t1], [(0, 1)])
    with pytest.raises(TypeError):
        identity._box_integral(tp(t1), [t1], [(0.0, 1)])


def test_exact_integral_value_is_zero_below_degree_n():
    # f^(n) vanishes when deg f < n
    x = PointSequence.exact([0, 1, 2])
    assert exact_integral_value(x, Polynomial((1, 2))) == 0
    x = PointSequence.exact([Fraction(-3, 2), 0, Fraction(1, 3), 1, 2, Fraction(7, 2)])
    assert exact_integral_value(x, Polynomial((1, -2, 3, Fraction(1, 5), 7))) == 0


def expanded_integral_value(x, f):
    """The reference route: one pass over the n! terms of the expanded V."""
    n = x.n
    return identity._box_integral(
        vandermonde_poly(n, "t"), var_family("t", n), x.intervals, f.derivative(n).coeffs
    )


@st.composite
def determinant_cases(draw):
    n = draw(st.integers(1, 5))
    numerators = st.integers(-60, 60)
    if draw(st.booleans()):  # every point over one shared denominator
        shared = draw(st.integers(1, 30))
        pool = numerators.map(lambda p: Fraction(p, shared))
    else:
        pool = st.builds(Fraction, numerators, st.integers(1, 30))
    points = sorted(draw(st.lists(pool, min_size=n + 1, max_size=n + 1, unique=True)))
    degree = draw(st.integers(n, n + 4))
    coeffs = draw(st.lists(_coefficient, min_size=degree, max_size=degree))
    leading = draw(_coefficient.filter(bool))
    return PointSequence.exact(points), Polynomial((*coeffs, leading))


@settings(max_examples=120, deadline=None)
@given(determinant_cases())
def test_exact_integral_value_equals_the_expanded_route(case):
    x, f = case
    value = exact_integral_value(x, f)
    assert isinstance(value, Fraction)
    assert value == expanded_integral_value(x, f)


def test_exact_integral_value_equals_the_expanded_route_at_n7():
    points = [Fraction(-7, 3), Fraction(-1, 2), 0, Fraction(2, 7), 1, Fraction(9, 5), 3, 5]
    x = PointSequence.exact(points)
    f = Polynomial(tuple(Fraction((-1) ** k * (k + 1), k % 4 + 1) for k in range(12)))
    assert exact_integral_value(x, f) == expanded_integral_value(x, f)


def test_exact_integral_value_does_not_expand_v():
    # the determinant route never asks for the expanded difference product
    symfun._expand_vandermonde.cache_clear()
    x = PointSequence.exact([0, 1, Fraction(5, 2), 3, 4, Fraction(13, 3), 6])
    exact_integral_value(x, monomial(8))
    assert symfun._expand_vandermonde.cache_info().currsize == 0


def test_exact_pipeline_rejects_wrong_inputs():
    with pytest.raises(TypeError):
        check_identity_exact(PointSequence.exact([0, 1]), Exponential(1.0))
    with pytest.raises(ValueError):
        check_identity_exact(PointSequence.floating([0, 1]), monomial(2))


def test_exact_identity_random_cases_multiple_dimensions():
    rng = random.Random(321)
    for n in range(1, 5):
        pts = random_increasing_rationals(rng, n + 1, max_abs=12)
        coeffs = tuple(Fraction(rng.randint(-6, 6)) for _ in range(n + 3)) + (Fraction(2),)
        report = check_identity_exact(pts, Polynomial(coeffs))
        assert report.passed, report


# -- floating pipeline --------------------------------------------------------------


def test_numeric_identity_exponential_n1():
    report = check_identity_numeric(PointSequence.floating([0, 1]), Exponential(1.0), order=16)
    assert report.passed
    assert report.rel_err < 1e-13
    assert report.lhs == pytest.approx(math.e - 1, rel=1e-13)


def test_numeric_identity_matches_volume_case():
    x = PointSequence.floating([0, 1, 2])
    report = check_identity_numeric(x, monomial(2, Fraction(1, 2)), order=10)
    assert report.passed
    assert report.lhs == pytest.approx(1.0, rel=1e-12)


def test_numeric_identity_sine_n3():
    x = PointSequence.floating([0, 1, 2, 4])
    report = check_identity_numeric(x, Sine(1.0), order=24)
    assert report.passed and report.tolerance == 1e-9


def test_numeric_identity_zero_reference_uses_absolute_fallback():
    # constant f: n-th derivative vanishes, both sides are zero
    report = check_identity_numeric(PointSequence.floating([0, 1]), Polynomial((5,)), order=8)
    assert report.passed
    assert report.rhs == 0.0
    assert report.abs_err == report.rel_err


def test_numeric_report_shape():
    report = check_identity_numeric(
        PointSequence.floating([0, 1]), Exponential(1.0), order=12, seed=77
    )
    assert report.name == "integral-vs-divided-difference"
    assert report.seed == 77
    assert report.config["order"] == 12
    assert report.config["pipeline"] == "floating"
    assert "workers" not in report.config


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_rejected(workers):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        check_identity_numeric(
            PointSequence.floating([0, 1, 2]), Exponential(1.0), 8, workers=workers
        )


# -- volume identity ------------------------------------------------------------------


def test_volume_identity_first_dimensions():
    for n in range(1, 5):
        report = check_volume_symbolic(n)
        assert report.passed, report
        assert isinstance(report.lhs, MultiPoly)
        assert report.lhs == report.rhs


def test_volume_closed_form_n2():
    x1, x2, x3 = (tp(v) for v in var_family("x", 3))
    want = (x2 - x1) * (x3 - x1) * (x3 - x2) * Fraction(1, 2)
    assert check_volume_symbolic(2).lhs == want


def test_volume_rejects_bad_dimension():
    with pytest.raises(ValueError):
        check_volume_symbolic(0)
    with pytest.raises(SymbolicLimitError):
        check_volume_symbolic(SYMBOLIC_LIMIT + 1)


# -- divided difference via the integral route ------------------------------------------


def test_via_integral_half_square():
    y = PointSequence.floating([1, 2, 3])
    got = divided_difference_via_integral(y, monomial(2, Fraction(1, 2)), order=12)
    assert got == pytest.approx(0.5, abs=1e-12)


def test_via_integral_one_dimension_exponential():
    y = PointSequence.floating([0, 1])
    got = divided_difference_via_integral(y, Exponential(1.0), order=20)
    assert got == pytest.approx(math.e - 1, rel=1e-13)


def test_via_integral_agrees_with_table():
    y = PointSequence.floating([1, 2, 3])
    f = Exponential(1.0)
    got = divided_difference_via_integral(y, f, order=20)
    assert got == pytest.approx(divided_difference(y, f), rel=1e-10)


def test_via_integral_checks_the_pole_against_y():
    # the floating x put the coordinate-sum range at [1.1e-16, 1.0]
    y = PointSequence.floating([0, 0.3, 1])
    with pytest.raises(PoleError, match=r"pole 0\.0 lies inside the coordinate-sum range \[0\.0, 1\.0\]"):
        divided_difference_via_integral(y, Reciprocal(0.0), order=8)


# -- chain rule and vertex sums ----------------------------------------------------------


def test_chain_rule_trivial_psi():
    report = check_chain_rule(1, MultiPoly.one(), monomial(2))
    assert report.passed


def test_chain_rule_difference_psi():
    t1, t2 = var_family("t", 2)
    report = check_chain_rule(2, tp(t2) - tp(t1), monomial(3))
    assert report.passed
    assert report.name == "product-chain-rule"


def test_chain_rule_with_difference_product_psi():
    report = check_chain_rule(3, vandermonde_poly(3), monomial(4))
    assert report.passed


def test_chain_rule_rejects_transcendental():
    with pytest.raises(TypeError):
        check_chain_rule(2, MultiPoly.one(), Exponential(1.0))


def test_vertex_sum_n1_is_fundamental_theorem():
    t1 = var_family("t", 1)[0]
    a, b = Fraction(-1, 2), Fraction(3)
    report = check_vertex_sum([(a, b)], tp(t1) ** 2)
    assert report.passed
    assert report.lhs == b**2 - a**2


def test_vertex_sum_n2_product():
    t1, t2 = var_family("t", 2)
    report = check_vertex_sum([(Fraction(0), Fraction(1)), (Fraction(1), Fraction(2))], tp(t1) * tp(t2))
    assert report.passed and report.lhs == 1


def test_vertex_sum_accepts_int_bounds():
    t1, t2 = var_family("t", 2)
    report = check_vertex_sum([(0, 1), (-2, 3)], tp(t1) ** 2 * tp(t2) ** 3)
    assert report.passed and report.lhs == 35  # (1 - 0) * (27 + 8)


def test_zero_property_function():
    tvars = tuple(var_family("t", 3))
    assert _has_zero_property(vandermonde_poly(3) * (tp(tvars[0]) + 2), tvars)
    assert not _has_zero_property(tp(tvars[0]) + tp(tvars[1]), tvars)


def test_reduced_vertex_sum_constant_g():
    x = PointSequence.exact([0, 1, 2])
    report = check_reduced_vertex_sum(x, MultiPoly.one())
    assert report.passed
    assert report.lhs == 0 and report.rhs == 0
    assert report.config["zero_property"] is True
    assert report.config["full_sum"] == 0


def test_reduced_vertex_sum_linear_g():
    t1, t2 = var_family("t", 2)
    x = PointSequence.exact([0, 1, 2])
    report = check_reduced_vertex_sum(x, tp(t1) + tp(t2))
    assert report.passed
    # reduced and full sums agree with the box integral
    assert report.rhs == report.config["full_sum"] == report.lhs


def test_reduced_vertex_sum_needs_exact_points():
    with pytest.raises(ValueError):
        check_reduced_vertex_sum(PointSequence.floating([0, 1]), MultiPoly.one())


# -- seeded generators ---------------------------------------------------------------


def test_random_rationals_are_increasing_and_reproducible():
    a = random_increasing_rationals(random.Random(11), 6)
    b = random_increasing_rationals(random.Random(11), 6)
    assert a == b
    assert a.is_exact and len(a) == 6
    assert all(y > x for x, y in zip(a.values, a.values[1:]))


def test_random_floats_respect_range_and_gap():
    pts = random_increasing_floats(random.Random(3), 8, lo=-2.0, hi=3.0, min_gap=0.2)
    assert len(pts) == 8
    assert pts[0] >= -2.0 and pts[-1] <= 3.0
    gaps = [b - a for a, b in zip(pts.values, pts.values[1:])]
    assert min(gaps) >= 0.2 - 1e-12


def test_random_floats_reject_impossible_gap():
    with pytest.raises(ValueError):
        random_increasing_floats(random.Random(0), 30, lo=0.0, hi=1.0, min_gap=0.2)


def test_suite_points_are_deterministic_and_independent_per_n():
    first = exact_suite_points(3, count=5)
    second = exact_suite_points(3, count=5)
    assert first == second
    assert len(first) == 5 and all(p.n == 3 for p in first)
    # a different n draws from its own stream, not a shifted copy
    other = exact_suite_points(4, count=5)
    assert all(p.n == 4 for p in other)

    fa = floating_suite_points(2, count=4)
    fb = floating_suite_points(2, count=4)
    assert fa == fb
    assert all(not p.is_exact and p.n == 2 for p in fa)


def test_floating_suite_stays_in_documented_range():
    for n in range(1, 6):
        for pts in floating_suite_points(n):
            assert pts[0] >= -2.0 and pts[-1] <= 3.0
            gaps = [b - a for a, b in zip(pts.values, pts.values[1:])]
            assert min(gaps) >= 0.2 - 1e-12


# -- lemma suite -----------------------------------------------------------------


def test_lemma_suite_small_run_passes():
    reports = run_lemma_suite(3, cases=4)
    assert reports and suite_passed(reports)
    names = [r.name for r in reports]
    # one instance of every group must be present
    for group in LEMMA_GROUPS:
        assert any(name.startswith(group + "[") for name in names), group


def test_lemma_suite_group_counts():
    reports = run_lemma_suite(3, groups=["esym-derivative", "omega-derivative"], cases=2)
    esym = [r for r in reports if r.name.startswith("esym-derivative")]
    om = [r for r in reports if r.name.startswith("omega-derivative")]
    assert len(esym) == 6  # m=1..3, k=1..m
    assert len(om) == 10  # m=0..3, k=0..m


def test_lemma_suite_unknown_group():
    with pytest.raises(ValueError, match="unknown lemma group"):
        run_lemma_suite(2, groups=["nosuch"])


@pytest.mark.parametrize("n_max", [8, 12, 10**6])
def test_lemma_suite_refuses_n_max_above_seven(n_max):
    # refused before any group runs: V_12 alone would have 479M terms
    with pytest.raises(ValueError, match=f"n_max must be at most 7, got {n_max}"):
        run_lemma_suite(n_max, groups=["pure-vanish"])


def test_lemma_suite_subset_reproduces_full_run_cases():
    full = run_lemma_suite(3, cases=3)
    only = run_lemma_suite(3, groups=["newton"], cases=3)
    from_full = [r for r in full if r.name.startswith("newton[")]
    assert only == from_full


def test_lemma_suite_seed_changes_cases_but_not_verdict():
    a = run_lemma_suite(2, groups=["vertex-sum"], seed=1, cases=3)
    b = run_lemma_suite(2, groups=["vertex-sum"], seed=2, cases=3)
    assert suite_passed(a) and suite_passed(b)
    assert [r.config["bounds"] for r in a] != [r.config["bounds"] for r in b]


def test_sampled_groups_name_their_cases_in_order():
    reports = run_lemma_suite(5, groups=["vertex-sum", "reduced-vertex-sum"], cases=2)
    assert [r.name for r in reports] == [
        f"{group}[n={n},case={j}]"
        for group in ("vertex-sum", "reduced-vertex-sum")
        for n in range(1, 5)
        for j in range(2)
    ]
    assert suite_passed(reports)


def test_pure_derivative_witness_is_the_first_failing_pair(monkeypatch):
    # n = 2, k = 1 checks t1 then t2 in each sample; breaking e_1 from its
    # third call on makes sample 1 at t1 the first failure
    original = identity.elementary_symmetric
    recips = []

    def broken(k, args):
        recips.append(args[0].as_constant())
        out = original(k, args)
        return out + MultiPoly.one() if len(recips) >= 3 else out

    monkeypatch.setattr(identity, "elementary_symmetric", broken)
    (report,) = run_lemma_suite(2, groups=["pure-derivative"], cases=3)
    assert len(recips) == 3  # nothing is sampled after the first failure
    # at t1, dV/dt1 = -1 and the one reciprocal is r = 1/(t1 - t2) = -1/V,
    # so the broken right side is V * (r + 1) = -1 - 1/r
    r = recips[2]
    assert (report.lhs, report.rhs) == (-1, -1 - 1 / r)
    assert not report.passed and report.config == {"samples": 3}


def test_newton_witness_is_the_first_failing_pair(monkeypatch):
    # n = 1, k = 1 applies E_1 (left side) then P_1 (right side) per sample;
    # breaking P_1 from sample 1 on makes sample 1 the first failure
    original = identity.apply_operator
    left = []

    def broken(op, p, tvars):
        out = original(op, p, tvars)
        if isinstance(op, MixedSum):
            left.append(out)
        elif len(left) >= 2:
            out = out + MultiPoly.one()
        return out

    monkeypatch.setattr(identity, "apply_operator", broken)
    (report,) = run_lemma_suite(1, groups=["newton"], cases=4)
    assert len(left) == 2  # nothing is sampled after the first failure
    assert (report.lhs, report.rhs) == (left[1], left[1] + MultiPoly.one())
    assert not report.passed and report.config == {"samples": 4}


# -- reports and serialization ----------------------------------------------------


def test_report_key_order():
    report = check_identity_exact(PointSequence.exact([0, 1]), monomial(2))
    assert list(report.to_dict().keys()) == [
        "name",
        "n",
        "passed",
        "lhs",
        "rhs",
        "abs_err",
        "rel_err",
        "tolerance",
        "seed",
        "config",
    ]


def test_json_value_conversions():
    assert json_value(Fraction(1, 3)) == "1/3"
    assert json_value(Fraction(4)) == "4"
    assert json_value(vandermonde_poly(2)) == "-t1 + t2"
    assert json_value({"a": [Fraction(1, 2), 3]}) == {"a": ["1/2", 3]}
    assert json_value(1.5) == 1.5


def test_reports_serialize_to_json():
    reports = run_lemma_suite(2, cases=2)
    reports.append(check_identity_numeric(PointSequence.floating([0, 1]), Exponential(1.0)))
    for r in reports:
        line = json.dumps(r.to_dict(), separators=(",", ":"))
        assert json.loads(line)["name"] == r.name


def test_float_verdict_zero_guard():
    abs_err, rel_err, passed = _float_verdict(5e-13, 0.0, 1e-9)
    assert abs_err == rel_err == 5e-13 and passed
    abs_err, rel_err, passed = _float_verdict(5e-12, 0.0, 1e-9)
    assert not passed
    abs_err, rel_err, passed = _float_verdict(1.0 + 1e-10, 1.0, 1e-9)
    assert passed and rel_err == pytest.approx(1e-10, rel=1e-3)


def test_exact_report_failure_carries_magnitude():
    report = _report("demo", 1, Fraction(3), Fraction(5))
    assert not report.passed
    assert report.abs_err == report.rel_err == 2.0
    p = tp(var_family("t", 1)[0])
    report = _report("demo", 1, 2 * p, -p)
    assert not report.passed
    assert report.abs_err == 3.0
    # float sides take the floating rule, here its absolute fallback
    # for a reference below ZERO_GUARD
    lhs, rhs = 5e-12, 1e-15
    assert abs(rhs) < ZERO_GUARD
    report = _report("demo", 1, lhs, rhs, tolerance=1e-9)
    verdict = (report.abs_err, report.rel_err, report.passed)
    assert verdict == _float_verdict(lhs, rhs, 1e-9)
    assert not report.passed and report.tolerance == 1e-9


def test_default_seed_in_suite_reports():
    reports = run_lemma_suite(1, groups=["pure-vanish"])
    assert reports[0].seed == DEFAULT_SEED
