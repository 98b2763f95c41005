"""Tensor-product Gauss-Legendre cubature on sequential rectangles.

Non-adaptive by design: the integrands are smooth on a box, the rule
converges spectrally, and a fixed rule keeps output bit-reproducible.
The node grid is traversed in lexicographic (C) order in fixed-size
contiguous chunks; each chunk is reduced with numpy's deterministic
pairwise sum and the chunk totals are combined with math.fsum, so the
result is identical for any worker count.  An evaluation budget guards
against infeasible order/dimension combinations instead of silently
truncating.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .funcs import AnalyticFunction, PoleError
from .points import PointSequence, SequentialRectangle, sum_bounds

MAX_ORDER = 64
MAX_DIMENSION = 8
DEFAULT_BUDGET = 10**8
_NEWTON_TOL = 1e-15
_CHUNK = 1 << 16


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
    nodes = [0.0] * order
    weights = [0.0] * order
    half = (order + 1) // 2
    for k in range(half):
        # descending positive roots; standard cosine initial guess
        z = math.cos(math.pi * (k + 0.75) / (order + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, z
            for j in range(2, order + 1):
                p0, p1 = p1, ((2 * j - 1) * z * p1 - (j - 1) * p0) / j
            if order == 1:
                p1, dp = z, 1.0
            else:
                dp = order * (z * p1 - p0) / (z * z - 1.0)
            step = p1 / dp
            z -= step
            if abs(step) <= _NEWTON_TOL:
                break
        if order % 2 == 1 and k == half - 1:
            z = 0.0  # middle root is exact by symmetry
        p0, p1 = 1.0, z
        for j in range(2, order + 1):
            p0, p1 = p1, ((2 * j - 1) * z * p1 - (j - 1) * p0) / j
        dp = 1.0 if order == 1 else order * (z * p1 - p0) / (z * z - 1.0)
        w = 2.0 / ((1.0 - z * z) * dp * dp)
        nodes[order - 1 - k] = z
        nodes[k] = -z
        weights[order - 1 - k] = w
        weights[k] = w
    return QuadratureRule(tuple(nodes), tuple(weights), order)


def integrate_over_rectangle(
    rect: SequentialRectangle,
    integrand: Callable,
    order: int,
    *,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> CubatureResult:
    """Tensor-product rule over the rectangle, deterministic for any workers.

    The integrand is called with one numpy array per axis (vectorized over
    grid chunks) and must broadcast elementwise.
    """
    rule = gauss_legendre(order)
    intervals = rect.intervals
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
    shape = (order,) * n

    def chunk_sum(start: int) -> float:
        idx = np.arange(start, min(start + _CHUNK, total))
        multi = np.unravel_index(idx, shape)  # lexicographic grid order
        coords = [axis_nodes[i][multi[i]] for i in range(n)]
        w = axis_weights[0][multi[0]]
        for i in range(1, n):
            w = w * axis_weights[i][multi[i]]
        return float(np.sum(w * integrand(*coords)))

    starts = range(0, total, _CHUNK)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(chunk_sum, starts))
    else:
        partials = [chunk_sum(s) for s in starts]
    # fsum is exactly rounded, so combining fixed chunk totals cannot
    # depend on how chunks were assigned to workers
    return CubatureResult(math.fsum(partials), total)


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

    The difference product is evaluated as a running product of the
    n(n-1)/2 pairwise differences at each node, not via the expanded
    polynomial.
    """
    n = x.n
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the supported maximum {MAX_DIMENSION}")
    xf = PointSequence(x.as_floats())
    fn = f.derivative(n)
    pole = fn.pole()
    if pole is not None:
        lo, hi = sum_bounds(xf)
        if lo <= pole <= hi:
            raise PoleError(
                f"pole {pole} lies inside the coordinate-sum range [{lo}, {hi}]"
            )

    def integrand(*ts):
        s = ts[0]
        for t in ts[1:]:
            s = s + t
        v = 1.0
        for i in range(n):
            for j in range(i + 1, n):
                v = v * (ts[j] - ts[i])
        return v * fn(s)

    return integrate_over_rectangle(
        SequentialRectangle(xf), integrand, order, workers=workers, budget=budget
    )
