"""End-to-end verifiers for the divided-difference integral identity.

The central claim checked here: integrating V(t) * f^(n)(t_1 + ... + t_n)
over the sequential rectangle R(x) gives V(x) times the divided difference
of f at the transformed points y.  Two pipelines verify it, an exact one
(rational points, polynomial f, the box integral as a determinant of
per-axis moment series) and a floating one (Gauss-Legendre cubature vs.
the divided-difference table).
The supporting derivative and vertex-sum identities are certified exactly
by the seeded lemma suite; its registry _LEMMA_SUITES alone spells the
group names, which each suite takes for its reports and its stream.

Every check returns an IdentityReport, built and judged by _report alone:
float sides go through the relative-error rule of _float_verdict, exact
sides (rationals or polynomials) pass only when equal.  Suites generate
cases in a fixed order from a seed, so serialized output is reproducible
byte for byte.  For multi-sample checks the report's lhs/rhs hold a
witness pair: the first failing sample, or the last sample when all pass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from typing import Iterable, Iterator, Sequence

# divided_difference is unused here; perfbench/tracing.py patches it by this name
from .divdiff import divided_difference, divided_difference_side
from .exact import MultiPoly, VarId, _box_integral, _vandermonde_box_integral, var_family
from .funcs import AnalyticFunction, Polynomial
from .points import PointSequence, monotone_vertices, x_from_y
from .quad import DEFAULT_BUDGET, _require_pole_outside, integral_side
from .symfun import (
    SYMBOLIC_LIMIT,
    MixedSum,
    PureSum,
    _expand_vandermonde,
    apply_operator,
    elementary_symmetric,
    enumerate_vertices,
    omega,
    require_symbolic_size,
    vandermonde_poly,
    vandermonde_product,
)

DEFAULT_ORDER = 20
DEFAULT_TOLERANCE = 1e-9
# chosen so every sequence in the default floating suite keeps the
# reciprocal family's pole (shift 10) outside the coordinate-sum range;
# with the pole inside, the integral side does not even exist
DEFAULT_SEED = 2718
# below this magnitude the reference value counts as zero and the verdict
# falls back to an absolute error test
ZERO_GUARD = 1e-14
ABS_FALLBACK = 1e-12


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of one identity check plus the verdict and context."""

    name: str
    n: int
    lhs: object
    rhs: object
    abs_err: float
    rel_err: float
    passed: bool
    tolerance: float
    seed: int | None = None
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready dict with a fixed key order; exact values as strings."""
        return {
            "name": self.name,
            "n": self.n,
            "passed": self.passed,
            "lhs": json_value(self.lhs),
            "rhs": json_value(self.rhs),
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "config": json_value(self.config),
        }


def json_value(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, MultiPoly):
        return v.render()
    if isinstance(v, (list, tuple)):
        return [json_value(u) for u in v]
    if isinstance(v, dict):
        return {k: json_value(u) for k, u in v.items()}
    return v


def _float_verdict(lhs: float, rhs: float, tolerance: float):
    abs_err = abs(lhs - rhs)
    if abs(rhs) < ZERO_GUARD:
        # relative error degenerates near zero; report the absolute error
        # in both fields and test it against the absolute fallback
        return abs_err, abs_err, abs_err <= ABS_FALLBACK
    rel_err = abs_err / abs(rhs)
    return abs_err, rel_err, rel_err <= tolerance


def _report(
    name, n, lhs, rhs, *, tolerance=0.0, seed=None, config=None
) -> IdentityReport:
    """The report of lhs against rhs; the type of rhs picks the rule.

    A float rhs goes through _float_verdict.  Exact sides pass only when
    equal, with errors 0 on pass; on failure both error fields carry the
    same magnitude: a coefficient 1-norm for polynomials, the plain
    difference for rationals.
    """
    if isinstance(rhs, float):
        abs_err, rel_err, passed = _float_verdict(lhs, rhs, tolerance)
    elif isinstance(rhs, MultiPoly):
        diff = lhs - rhs
        passed = diff.is_zero
        abs_err = rel_err = float(sum(map(abs, diff.terms().values())))
    else:
        passed = lhs == rhs
        abs_err = rel_err = 0.0 if passed else abs(float(lhs) - float(rhs))
    return IdentityReport(
        name, n, lhs, rhs, abs_err, rel_err, passed, tolerance, seed, dict(config or {})
    )


def _require_exact_polynomial(f: AnalyticFunction) -> Polynomial:
    # Polynomial coerces its coefficients to Fraction on construction, so
    # the family check alone guarantees exactness
    if not isinstance(f, Polynomial):
        raise TypeError("the exact pipeline needs a polynomial function")
    return f


# -- main identity ------------------------------------------------------------


def check_identity_numeric(
    x: PointSequence,
    f: AnalyticFunction,
    order: int = DEFAULT_ORDER,
    tolerance: float = DEFAULT_TOLERANCE,
    *,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
    seed: int | None = None,
) -> IdentityReport:
    """Floating-point check: cubature over R(x) vs. the table route.

    The cubature runs on the calling thread.  `workers` is accepted for
    existing callers that pass it, such as perfbench's worker with
    workers=1: it must be at least 1, else ValueError, and has no other
    effect, so it never appears in the report.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cubature = integral_side(x, f, order, budget=budget)
    return _report(
        "integral-vs-divided-difference",
        x.n,
        cubature.value,
        float(divided_difference_side(x, f)),
        tolerance=tolerance,
        seed=seed,
        config={
            "pipeline": "floating",
            "order": order,
            "points": list(x.as_floats()),
            "function": f.describe(),
        },
    )


def exact_integral_value(x: PointSequence, f: Polynomial) -> Fraction:
    """Exact integral of V(t) * f^(n)(t_1 + ... + t_n) over R(x).

    Every bound of R(x) is a rational constant, so the integral is a
    determinant of per-axis moment series of the box, combined with the
    coefficients of f^(n) (see _vandermonde_box_integral): n 2^(n-1) - n
    integer series products, and neither V nor V * f^(n)(sum t) is ever
    expanded.  n is still held to SYMBOLIC_LIMIT, the cap of the commands
    that do expand V, so the symbolic commands share one bound.
    """
    if not x.is_exact:
        raise ValueError("the exact pipeline needs rational points")
    f = _require_exact_polynomial(f)
    require_symbolic_size(x.n)
    return _vandermonde_box_integral(x.intervals, f.derivative(x.n).coeffs)


def check_identity_exact(
    x: PointSequence, f: Polynomial, *, seed: int | None = None
) -> IdentityReport:
    """Exact check: the box integral by moments vs. the rational table.

    Integrates V(t) * f^(n)(t_1 + ... + t_n) over R(x) exactly, by
    exact_integral_value, then compares with the product side V(x) f[y]
    of the table route.  The two sides must agree as exact rationals.
    """
    return _report(
        "integral-vs-divided-difference",
        x.n,
        exact_integral_value(x, f),
        divided_difference_side(x, f),
        seed=seed,
        config={
            "pipeline": "exact",
            "points": list(x.values),
            "function": f.describe(),
        },
    )


def check_volume_symbolic(n: int) -> IdentityReport:
    """Fully symbolic volume identity in x_1..x_{n+1}.

    Integrates the expanded V(t) over R(x) with polynomial bounds and
    subtracts V(x)/n!; the difference must be the zero polynomial.
    """
    xvars = var_family("x", n + 1)
    xs = [MultiPoly.variable(v) for v in xvars]
    # the bounds are polynomials, so integrate one axis at a time
    value = vandermonde_poly(n, "t")
    for v, a, b in zip(var_family("t", n), xs, xs[1:]):
        value = value.integrate(v, a, b)
    # V(x) has n + 1 variables; the t-side call above has checked n
    rhs = _expand_vandermonde(n + 1, "x") * Fraction(1, math.factorial(n))
    return _report(
        "vandermonde-volume",
        n,
        value,
        rhs,
        config={"pipeline": "exact", "variables": [v.name for v in xvars]},
    )


def divided_difference_via_integral(
    y: PointSequence,
    f: AnalyticFunction,
    order: int = DEFAULT_ORDER,
    *,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Divided difference at y recovered from the integral route.

    Maps y back to x, integrates V(t) * f^(n) over R(x), divides by V(y).
    """
    yf = y.as_floats()
    # the floating x can round the coordinate-sum range inward, past a
    # pole at an end of [y_1, y_{n+1}]
    _require_pole_outside(f, yf[0], yf[-1])
    x = x_from_y(PointSequence(yf))
    cubature = integral_side(x, f, order, budget=budget)
    return cubature.value / vandermonde_product(yf)


# -- derivative expansion and vertex sums --------------------------------------


def check_chain_rule(
    n: int, psi: MultiPoly, f: Polynomial, *, seed: int | None = None
) -> IdentityReport:
    """Derivative expansion of the product phi = psi * f(t_1 + ... + t_n).

    The full mixed derivative of phi must equal the sum over k of the
    order-k mixed-sum operator applied to psi, times f^(n-k) composed with
    the coordinate sum.  Verified as an exact polynomial identity.
    """
    f = _require_exact_polynomial(f)
    tvars = var_family("t", n)
    s_poly = sum(map(MultiPoly.variable, tvars), MultiPoly.zero())
    phi = psi * f.compose(s_poly)
    lhs = apply_operator(MixedSum(n), phi, tvars)
    rhs = MultiPoly.zero()
    for k in range(n + 1):
        ek_psi = psi if k == 0 else apply_operator(MixedSum(k), psi, tvars)
        rhs = rhs + ek_psi * f.derivative(n - k).compose(s_poly)
    return _report(
        "product-chain-rule",
        n,
        lhs,
        rhs,
        seed=seed,
        config={"function": f.describe(), "psi_terms": len(psi.terms())},
    )


def _has_zero_property(poly: MultiPoly, variables: Sequence[VarId]) -> bool:
    """Exact check that poly vanishes whenever t_i = t_{i+1}."""
    return all(
        poly.substitute(b, MultiPoly.variable(a)).is_zero
        for a, b in zip(variables, variables[1:])
    )


def _alternating_sum(phi: MultiPoly, tvars, signed_vertices) -> Fraction:
    """Sum of phi over (lower_count, vertex) pairs, each term signed
    (-1)^lower_count, the number of axes at their lower bound."""
    total = Fraction(0)
    for lower_count, vertex in signed_vertices:
        sign = -1 if lower_count % 2 else 1
        total += sign * phi.eval(dict(zip(tvars, vertex)))
    return total


def _full_vertex_sum(phi: MultiPoly, tvars, bounds) -> Fraction:
    # flag 0 picks an axis's lower bound
    n = len(bounds)
    return _alternating_sum(
        phi, tvars, ((n - sum(eps), v) for eps, v in enumerate_vertices(bounds))
    )


def check_vertex_sum(
    bounds: Sequence[tuple], phi: MultiPoly, *, seed: int | None = None
) -> IdentityReport:
    """Box integral of the full mixed derivative vs. the alternating
    sum of phi over all 2^n vertices; exact equality required."""
    n = len(bounds)
    tvars = var_family("t", n)
    return _report(
        "mixed-derivative-vertex-sum",
        n,
        _box_integral(apply_operator(MixedSum(n), phi, tvars), tvars, bounds),
        _full_vertex_sum(phi, tvars, bounds),
        seed=seed,
        config={"bounds": [[a, b] for a, b in bounds]},
    )


def check_reduced_vertex_sum(
    x: PointSequence, g: MultiPoly, *, seed: int | None = None
) -> IdentityReport:
    """With phi = V(t) * g, the 2^n alternating vertex sum over R(x)
    collapses to n+1 terms at the monotone vertices.

    Checks three quantities agree exactly: the box integral of the full
    mixed derivative, the reduced n+1 term sum, and the full 2^n sum.
    Also certifies the consecutive-equal zero property of phi.
    """
    if not x.is_exact:
        raise ValueError("the exact pipeline needs rational points")
    n = x.n
    tvars = var_family("t", n)
    phi = vandermonde_poly(n, "t") * g
    zero_property = _has_zero_property(phi, tvars)
    lhs = _box_integral(apply_operator(MixedSum(n), phi, tvars), tvars, x.intervals)
    full = _full_vertex_sum(phi, tvars, x.intervals)
    # monotone vertex i (0-based) takes the lower bound on its first n - i axes
    reduced = _alternating_sum(
        phi, tvars, zip(range(n, -1, -1), monotone_vertices(x))
    )
    report = _report(
        "reduced-vertex-sum",
        n,
        lhs,
        reduced,
        seed=seed,
        config={
            "points": list(x.values),
            "full_sum": full,
            "zero_property": zero_property,
        },
    )
    return replace(
        report, passed=report.passed and zero_property and reduced == full
    )


# -- seeded random generators ---------------------------------------------------


def random_fraction(rng: random.Random, max_abs: int = 100) -> Fraction:
    """Random rational with numerator and denominator bounded by max_abs."""
    return Fraction(rng.randint(-max_abs, max_abs), rng.randint(1, max_abs))


def random_increasing_rationals(
    rng: random.Random, count: int, max_abs: int = 100
) -> PointSequence:
    seen = set()
    while len(seen) < count:
        seen.add(random_fraction(rng, max_abs))
    return PointSequence.exact(sorted(seen))


def random_increasing_floats(
    rng: random.Random,
    count: int,
    lo: float = -2.0,
    hi: float = 3.0,
    min_gap: float = 0.2,
) -> PointSequence:
    """Sorted uniform draws, spread so consecutive gaps exceed min_gap.

    Draws land in [lo, hi - (count-1)*min_gap]; shifting the i-th sorted
    value by i*min_gap restores the full range and adds min_gap to every
    gap, so the minimum gap is guaranteed without rejection sampling.
    """
    shrink = min_gap * (count - 1)
    if hi - lo <= shrink:
        raise ValueError("range too narrow for the requested minimum gap")
    raw = sorted(rng.uniform(lo, hi - shrink) for _ in range(count))
    return PointSequence.floating(
        tuple(raw[i] + i * min_gap for i in range(count))
    )


def random_poly(
    rng: random.Random,
    variables: Sequence[VarId],
    max_degree: int = 3,
    terms: int = 5,
    max_abs: int = 10,
) -> MultiPoly:
    """Random sparse polynomial with per-variable degree at most max_degree."""
    out = MultiPoly.zero()
    for _ in range(terms):
        mono = MultiPoly.one()
        for v in variables:
            e = rng.randint(0, max_degree)
            if e:
                mono = mono * MultiPoly.variable(v) ** e
        out = out + random_fraction(rng, max_abs) * mono
    return out


def random_polynomial_function(
    rng: random.Random, degree: int, max_abs: int = 10
) -> Polynomial:
    coeffs = [random_fraction(rng, max_abs) for _ in range(degree + 1)]
    while coeffs[-1] == 0:
        coeffs[-1] = random_fraction(rng, max_abs)
    return Polynomial(tuple(coeffs))


def _random_bounds(rng: random.Random, n: int, max_abs: int = 20):
    out = []
    for _ in range(n):
        a = random_fraction(rng, max_abs)
        b = random_fraction(rng, max_abs)
        while b == a:
            b = random_fraction(rng, max_abs)
        out.append((min(a, b), max(a, b)))
    return tuple(out)


def _group_rng(seed: int, group: str, n: int) -> random.Random:
    # string seeds hash through sha512 inside random.Random, so streams are
    # stable across processes and independent between groups
    return random.Random(f"{seed}:{group}:{n}")


def exact_suite_points(
    n: int, count: int = 20, seed: int = DEFAULT_SEED
) -> list[PointSequence]:
    """The seeded rational sequences (length n+1) of the exact test suite."""
    rng = _group_rng(seed, "exact-suite", n)
    return [random_increasing_rationals(rng, n + 1) for _ in range(count)]


def floating_suite_points(
    n: int, count: int = 20, seed: int = DEFAULT_SEED
) -> list[PointSequence]:
    """The seeded float sequences (length n+1) of the floating test suite.

    Values lie in [-2, 3] with consecutive gaps above 0.2, drawn from a
    per-n stream so the cases for one n never depend on another.
    """
    rng = _group_rng(seed, "floating-suite", n)
    return [random_increasing_floats(rng, n + 1) for _ in range(count)]


# -- lemma suite ----------------------------------------------------------------

Reports = Iterator[IdentityReport]


def _first_failure(pairs: Iterable[tuple]) -> tuple:
    """The witness of a check over several (lhs, rhs) pairs: the first pair
    that differs, or the last pair when all agree.  Draws no pair after the
    first failure; needs at least one pair."""
    for lhs, rhs in pairs:
        if lhs != rhs:
            break
    return lhs, rhs


def _witness_report(group, n, k, pairs, seed, cases) -> IdentityReport:
    """Report group[n=..,k=..] on the witness of `cases` sampled pairs."""
    lhs, rhs = _first_failure(pairs)
    return _report(
        f"{group}[n={n},k={k}]", n, lhs, rhs, seed=seed, config={"samples": cases}
    )


def _suite_esym(group: str, n_max: int, seed: int, cases: int) -> Reports:
    # d/da e_k(a - t_1, ..., a - t_m) = (m - k + 1) e_{k-1}(same args)
    a = VarId("a", 1)
    for m in range(1, n_max + 1):
        tvars = var_family("t", m)
        args = [MultiPoly.variable(a) - MultiPoly.variable(v) for v in tvars]
        for k in range(1, m + 1):
            lhs = elementary_symmetric(k, args).diff(a)
            rhs = (m - k + 1) * elementary_symmetric(k - 1, args)
            yield _report(f"{group}[m={m},k={k}]", m, lhs, rhs, seed=seed)


def _suite_omega(group: str, n_max: int, seed: int, cases: int) -> Reports:
    # the k-th derivative of the monic root product equals k! e_{m-k}
    a = VarId("a", 1)
    for m in range(0, n_max + 1):
        tvars = var_family("t", m)
        roots = [MultiPoly.variable(v) for v in tvars]
        args = [MultiPoly.variable(a) - r for r in roots]
        w = omega(roots, a)
        for k in range(0, m + 1):
            lhs = w.diff(a, k)
            rhs = math.factorial(k) * elementary_symmetric(m - k, args)
            yield _report(f"{group}[m={m},k={k}]", m, lhs, rhs, seed=seed)


def _suite_pure_derivative(group: str, n_max: int, seed: int, cases: int) -> Reports:
    # the k-th pure derivative of V in t_i equals k! V e_k of the
    # reciprocals 1/(t_i - t_j), checked at random distinct rational points
    for n in range(2, n_max + 1):
        tvars = var_family("t", n)
        v_poly = vandermonde_poly(n, "t")
        rng = _group_rng(seed, group, n)
        for k in range(1, n):
            derivs = [v_poly.diff(t, k) for t in tvars]

            def samples():
                for _ in range(cases):
                    vals = random_increasing_rationals(rng, n, max_abs=30).values
                    assignment = dict(zip(tvars, vals))
                    v_val = vandermonde_product(vals)
                    for i in range(n):
                        recips = [
                            MultiPoly.const(Fraction(1, 1) / (vals[i] - vals[j]))
                            for j in range(n)
                            if j != i
                        ]
                        yield derivs[i].eval(assignment), (
                            math.factorial(k)
                            * v_val
                            * elementary_symmetric(k, recips).as_constant()
                        )

            yield _witness_report(group, n, k, samples(), seed, cases)


def _suite_pure_vanish(group: str, n_max: int, seed: int, cases: int) -> Reports:
    # the n-th pure derivative of V in any single variable is zero
    for n in range(1, n_max + 1):
        tvars = var_family("t", n)
        v_poly = vandermonde_poly(n, "t")
        pairs = ((v_poly.diff(t, n), MultiPoly.zero()) for t in tvars)
        yield _report(f"{group}[n={n}]", n, *_first_failure(pairs), seed=seed)


def _suite_operator_vanish(group: str, n_max: int, seed: int, cases: int, make) -> Reports:
    # the sums of order-k pure (PureSum) or mixed (MixedSum) partial
    # derivatives of V vanish
    for n in range(1, n_max + 1):
        tvars = var_family("t", n)
        v_poly = vandermonde_poly(n, "t")
        for k in range(1, n + 1):
            out = apply_operator(make(k), v_poly, tvars)
            yield _report(
                f"{group}[n={n},k={k}]", n, out, MultiPoly.zero(), seed=seed
            )


def _suite_newton(group: str, n_max: int, seed: int, cases: int) -> Reports:
    # operator form of Newton's identities:
    # k E_k = sum_i (-1)^(i-1) E_{k-i} P_i + (-1)^(k-1) P_k
    for n in range(1, min(n_max, 4) + 1):
        tvars = var_family("t", n)
        rng = _group_rng(seed, group, n)
        for k in range(1, n + 1):

            def samples():
                for _ in range(cases):
                    p = random_poly(rng, tvars)
                    lhs = k * apply_operator(MixedSum(k), p, tvars)
                    rhs = MultiPoly.zero()
                    for i in range(1, k):
                        term = apply_operator(PureSum(i), p, tvars)
                        term = apply_operator(MixedSum(k - i), term, tvars)
                        rhs = rhs + (-1) ** (i - 1) * term
                    rhs = rhs + (-1) ** (k - 1) * apply_operator(PureSum(k), p, tvars)
                    yield lhs, rhs

            yield _witness_report(group, n, k, samples(), seed, cases)


def _suite_chain_rule(group: str, n_max: int, seed: int, cases: int) -> Reports:
    # not a _sampled group: its closing vandermonde case draws from the
    # same stream as the random cases
    for n in range(1, min(n_max, 4) + 1):
        tvars = var_family("t", n)
        rng = _group_rng(seed, group, n)
        for j in range(cases):
            psi = random_poly(rng, tvars)
            f = random_polynomial_function(rng, rng.randint(n, n + 2))
            report = check_chain_rule(n, psi, f, seed=seed)
            yield replace(report, name=f"{group}[n={n},case={j}]")
        f = random_polynomial_function(rng, n + 1)
        report = check_chain_rule(n, vandermonde_poly(n, "t"), f, seed=seed)
        yield replace(report, name=f"{group}[n={n},case=vandermonde]")


def _sampled(group: str, n_max: int, seed: int, cases: int, check) -> Reports:
    """Reports group[n=..,case=j] for n = 1..min(n_max, 4), j < cases; each
    is check(rng, tvars, seed) on a case drawn from the group's n stream."""
    for n in range(1, min(n_max, 4) + 1):
        tvars = var_family("t", n)
        rng = _group_rng(seed, group, n)
        for j in range(cases):
            report = check(rng, tvars, seed)
            yield replace(report, name=f"{group}[n={n},case={j}]")


def _vertex_sum_case(rng: random.Random, tvars, seed: int) -> IdentityReport:
    bounds = _random_bounds(rng, len(tvars))
    return check_vertex_sum(bounds, random_poly(rng, tvars), seed=seed)


def _reduced_vertex_sum_case(rng: random.Random, tvars, seed: int) -> IdentityReport:
    x = random_increasing_rationals(rng, len(tvars) + 1, max_abs=20)
    return check_reduced_vertex_sum(x, random_poly(rng, tvars), seed=seed)


def _require_n_max(n_max: int) -> None:
    # below 1 a suite would check nothing; above the cap V_n is not expanded
    if not 1 <= n_max <= SYMBOLIC_LIMIT:
        bound = "least 1" if n_max < 1 else f"most {SYMBOLIC_LIMIT}"
        raise ValueError(f"n_max must be at {bound}, got {n_max}")


# group name -> suite(group, n_max, seed, cases), in report order
_LEMMA_SUITES = {
    "esym-derivative": _suite_esym,
    "omega-derivative": _suite_omega,
    "pure-derivative": _suite_pure_derivative,
    "pure-vanish": _suite_pure_vanish,
    "power-sum-vanish": partial(_suite_operator_vanish, make=PureSum),
    "mixed-sum-vanish": partial(_suite_operator_vanish, make=MixedSum),
    "newton": _suite_newton,
    "chain-rule": _suite_chain_rule,
    "vertex-sum": partial(_sampled, check=_vertex_sum_case),
    "reduced-vertex-sum": partial(_sampled, check=_reduced_vertex_sum_case),
}
LEMMA_GROUPS = tuple(_LEMMA_SUITES)


def run_lemma_suite(
    n_max: int = 5,
    *,
    groups: Sequence[str] | None = None,
    seed: int = DEFAULT_SEED,
    cases: int = 10,
) -> list[IdentityReport]:
    """Run the exact lemma suite and return reports in a fixed case order.

    Each group draws from its own seeded stream, so restricting to a
    subset of groups reproduces exactly the cases the full run would have
    generated for them.  n_max and cases must be at least 1, and groups
    must name at least one group: with fewer, the suite would check
    nothing and still pass.  n_max is at most SYMBOLIC_LIMIT, as the
    suites expand V_n, which has n! terms.
    """
    _require_n_max(n_max)
    if cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")
    chosen = LEMMA_GROUPS if groups is None else tuple(groups)
    unknown = [g for g in chosen if g not in LEMMA_GROUPS]
    if unknown or not chosen:
        what = "no lemma group selected"
        if unknown:
            what = f"unknown lemma group(s) {', '.join(unknown)}"
        raise ValueError(f"{what}; expected a subset of {', '.join(LEMMA_GROUPS)}")
    out: list[IdentityReport] = []
    for group, suite in _LEMMA_SUITES.items():
        if group in chosen:
            out.extend(suite(group, n_max, seed, cases))
    return out


def suite_passed(reports: Sequence[IdentityReport]) -> bool:
    return all(r.passed for r in reports)
