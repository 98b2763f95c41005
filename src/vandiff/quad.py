"""Tensor-product Gauss-Legendre cubature on sequential rectangles.

A box is given by its intervals, one (lower, upper) pair per axis, as
`PointSequence.intervals` returns them for R(x).

Non-adaptive by design: the integrands are smooth on a box, the rule
converges spectrally, and a fixed rule keeps output bit-reproducible.
The node grid is cut into slabs, one per node of the leading axes.  An
integrand has two stages: it is called once per integration with the
trailing axes as broadcast views, so no node coordinate is gathered or
copied and whatever depends on those axes alone is computed once; the
slab function it returns is called once per slab with the leading-axis
coordinates.  `integral_side` uses the first stage to prepare the n-th
derivative's translate over the trailing-axis sums (`on_grid`), so a
slab only shifts it by the sum of its leading coordinates.  Each slab is
reduced with numpy's deterministic pairwise sum and the slab totals are
combined with math.fsum, so the result is identical for any worker count.
An evaluation budget guards against infeasible order/dimension
combinations instead of silently truncating.

numpy is imported by `integrate_over_rectangle` when it runs, so that
importing this module, as every import of the package does, leaves it
unloaded; the Gauss-Legendre rule itself is plain Python.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from .funcs import AnalyticFunction, PoleError
from .points import PointSequence, sum_bounds
from .symfun import vandermonde_product

MAX_ORDER = 64
MAX_DIMENSION = 8
DEFAULT_BUDGET = 10**8
_NEWTON_TOL = 1e-15
_CHUNK = 1 << 16  # most nodes in one slab, which bounds an integrand call's memory


class BudgetExceededError(RuntimeError):
    """The node grid would exceed the evaluation budget."""


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and weights on [-1, 1]."""

    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    order: int


@dataclass(frozen=True)
class CubatureResult:
    value: float
    function_evaluations: int


@lru_cache(maxsize=None)
def gauss_legendre(order: int) -> QuadratureRule:
    """Nodes and weights by Newton iteration on the Legendre recurrence.

    Roots are refined to 1e-15 and mirrored about 0, so the rule is exactly
    symmetric; weights are 2 / ((1 - z^2) P'(z)^2).
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {order}")

    def legendre(z: float) -> tuple[float, float]:
        """P_order(z) and its derivative, by the three-term recurrence."""
        p0, p1 = 1.0, z
        for j in range(2, order + 1):
            p0, p1 = p1, ((2 * j - 1) * z * p1 - (j - 1) * p0) / j
        return p1, order * (z * p1 - p0) / (z * z - 1.0)

    nodes = [0.0] * order
    weights = [0.0] * order
    half = (order + 1) // 2
    for k in range(half):
        # descending positive roots; standard cosine initial guess
        z = math.cos(math.pi * (k + 0.75) / (order + 0.5))
        for _ in range(100):
            p, dp = legendre(z)
            step = p / dp
            z -= step
            if abs(step) <= _NEWTON_TOL:
                break
        if order % 2 == 1 and k == half - 1:
            z = 0.0  # middle root is exact by symmetry
        dp = legendre(z)[1]
        w = 2.0 / ((1.0 - z * z) * dp * dp)
        nodes[order - 1 - k] = z
        nodes[k] = -z
        weights[order - 1 - k] = w
        weights[k] = w
    return QuadratureRule(tuple(nodes), tuple(weights), order)


def integrate_over_rectangle(
    intervals: Sequence[tuple],
    integrand: Callable,
    order: int,
    *,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> CubatureResult:
    """Tensor-product rule over the box, deterministic for any workers.

    `intervals` holds one (a, b) pair of bounds per axis, so its length is
    the dimension n; each bound is converted to float.  The grid is
    integrated one slab at a time.  The trailing m axes, m the largest
    with order**m <= _CHUNK, span a slab; the k = n - m leading axes pick
    it.  The integrand has two stages.  It is called once per call of
    this function, with one broadcast view per trailing axis j of shape
    (1,)*j + (order,) + (1,)*(m-1-j), and returns a slab function.  That
    is called once per slab with one float per leading axis, and its
    result must broadcast to the slab's grid (order,)*m, so a lower-rank
    value, such as a plain function of one axis, is allowed.  The slab
    weight grid is likewise formed once.  An overflow in the weights, in
    either stage of the integrand, in a slab's total or in their sum
    raises FloatingPointError.  At most min(workers, number of slabs)
    threads sum the slabs; workers below 1 raise ValueError.
    """
    import numpy as np

    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    rule = gauss_legendre(order)
    n = len(intervals)
    total = order**n
    if total > budget:
        raise BudgetExceededError(
            f"{order}^{n} = {total} node evaluations exceed the budget {budget}"
        )
    base_nodes = np.asarray(rule.nodes)
    base_weights = np.asarray(rule.weights)
    axis_nodes = []
    axis_weights = []
    for a, b in intervals:
        a, b = float(a), float(b)
        half = 0.5 * (b - a)
        axis_nodes.append(0.5 * (a + b) + half * base_nodes)
        axis_weights.append(half * base_weights)
    m = n
    while order**m > _CHUNK:
        m -= 1
    k = n - m
    lead_nodes = [a.tolist() for a in axis_nodes[:k]]
    lead_weights = [w.tolist() for w in axis_weights[:k]]

    def view(axis: int) -> tuple[int, ...]:
        return (1,) * (axis - k) + (order,) + (1,) * (n - 1 - axis)

    trailing = [axis_nodes[i].reshape(view(i)) for i in range(k, n)]

    def slab_sum(index: tuple[int, ...]) -> float:
        lead = [lead_nodes[i][j] for i, j in enumerate(index)]
        w = math.prod(lead_weights[i][j] for i, j in enumerate(index))
        return w * float(np.sum(slab_weights * slab_integrand(*lead)))

    def worker_slab_sum(index: tuple[int, ...]) -> float:
        # errstate is per thread, so a worker sets it for each slab it sums
        with np.errstate(over="raise"):
            return slab_sum(index)

    slabs = itertools.product(range(order), repeat=k)  # lexicographic order
    workers = min(workers, order**k)  # no thread without a slab to sum
    with np.errstate(over="raise"):
        slab_weights = axis_weights[k].reshape(view(k))
        for i in range(k + 1, n):
            slab_weights = slab_weights * axis_weights[i].reshape(view(i))
        slab_integrand = integrand(*trailing)
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                partials = list(pool.map(worker_slab_sum, slabs))
        else:
            partials = [slab_sum(s) for s in slabs]
    # a slab total times its leading weights is a Python float, which
    # overflows to inf without raising
    if not all(map(math.isfinite, partials)):
        raise FloatingPointError("a slab total overflows the float range")
    # fsum is exactly rounded, so combining fixed slab totals cannot
    # depend on how slabs were assigned to workers
    try:
        return CubatureResult(math.fsum(partials), total)
    except OverflowError:
        raise FloatingPointError("the slab totals overflow the float range") from None


def _require_pole_outside(f: AnalyticFunction, lo: float, hi: float) -> None:
    """Raise PoleError when the pole of f lies in [lo, hi], the range of
    the coordinate sum."""
    pole = f.pole()
    if pole is not None and lo <= pole <= hi:
        raise PoleError(f"pole {pole} lies inside the coordinate-sum range [{lo}, {hi}]")


def integral_side(
    x: PointSequence,
    f: AnalyticFunction,
    order: int,
    *,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> CubatureResult:
    """Integral side of the main identity: the pairwise-difference product
    times the n-th derivative of f at the coordinate sum, over R(x).

    The difference product is evaluated at each node in product form, not
    via the expanded polynomial.  Once per call, `vandermonde_product`
    gives the differences among the trailing axes and their coordinate sum
    is formed, and with leading axes so is `fn.on_grid` of that sum, the
    translate of f^(n); per slab, the differences that involve a leading
    axis are vectors along one trailing axis each, their outer product is
    the only other grid the difference product needs, and f^(n) is the
    translate at the sum of the leading coordinates.  Without leading
    axes the one slab evaluates f^(n) at the sum directly.
    """
    n = x.n
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the supported maximum {MAX_DIMENSION}")
    xf = PointSequence(x.as_floats())
    fn = f.derivative(n)
    if fn.pole() is not None:
        _require_pole_outside(fn, *sum_bounds(xf))

    def integrand(*trailing):
        diffs = vandermonde_product(trailing)
        total = trailing[0]
        for t in trailing[1:]:
            total = total + t

        if len(trailing) == n:
            return lambda: diffs * fn(total)
        at = fn.on_grid(total)  # f^(n)(s + total) for a slab's lead sum s

        def slab(*lead):
            # prod_i (u_j - l_i) for each trailing axis u_j, leading axes first
            factors = []
            for u in trailing:
                g = u - lead[0]
                for t in lead[1:]:
                    g *= u - t
                factors.append(g)
            factors[0] *= vandermonde_product(lead)
            grid = factors[0]
            for g in factors[1:]:
                grid = grid * g
            grid *= diffs
            return grid * at(sum(lead))

        return slab

    try:
        return integrate_over_rectangle(
            xf.intervals, integrand, order, workers=workers, budget=budget
        )
    except FloatingPointError:
        raise OverflowError(
            f"the cubature for {f.describe()} overflows the float range"
        ) from None
