"""Tensor-product Gauss-Legendre cubature on sequential rectangles.

A box is given by its intervals, one (lower, upper) pair per axis, as
`PointSequence.intervals` returns them for R(x).

Non-adaptive by design: the integrands are smooth on a box, the rule
converges spectrally, and a fixed rule keeps output bit-reproducible.
The node grid is cut into slabs, one per node of the leading axes, and
the slabs into fixed blocks of `order`, which differ only in the last
leading axis.  An integrand has two stages: it is called once per
integration with the slab's weight grid and the trailing axes as
broadcast views, so whatever depends on those axes alone is computed
once; the block function it returns is called once per block with the
block's leading coordinates and returns one weighted total per slab.
`integral_side` uses the first stage to form the kernel K0 = weights *
V(trailing nodes), and a block only contracts it, along each trailing
axis, with the vectors of differences between that axis and the slab's
leading coordinates.  Where f^(n) splits into separable terms (`split`),
the kernels K0 * G_r are fixed and a whole block is contracted in a few
einsum passes; otherwise each slab forms K0 * f^(n) and contracts it on
its own.  einsum runs its own loops, so no BLAS call enters the result.
The blocks are summed one after another, in lexicographic order, and
the slab totals are combined with math.fsum, which is exactly rounded.
An evaluation budget guards against infeasible order/dimension
combinations instead of silently truncating.

numpy is imported by the functions that handle arrays when they run,
so that importing this module, as every import of the package does,
leaves it unloaded; the Gauss-Legendre rule itself is plain Python.
"""

from __future__ import annotations

import itertools
import math
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
    budget: int = DEFAULT_BUDGET,
) -> CubatureResult:
    """Tensor-product rule over the box, bit-reproducible.

    `intervals` holds one (a, b) pair of bounds per axis, so its length is
    the dimension n; each bound is converted to float.  The grid is
    integrated one block of slabs at a time.  The trailing m axes, m the
    largest with order**m <= _CHUNK, span a slab; the k = n - m leading
    axes pick it, and a block is the `order` slabs that differ only in
    the last leading axis (without leading axes, the one slab).  The
    integrand has two stages.  It is called once per call of this
    function with the slab's weight grid, of shape (order,)*m, then one
    broadcast view per trailing axis j, of shape
    (1,)*j + (order,) + (1,)*(m-1-j), and returns a block function.  That
    is called once per block with one array per leading axis, holding the
    block's coordinates on that axis, and returns one weighted trailing
    total per slab of the block: the sum over the slab's nodes of the
    weight grid times the integrand.  Each total times its slab's leading
    weights is one partial sum.  An overflow in the weights, in either
    stage of the integrand, in a partial sum or in their sum raises
    FloatingPointError.  The blocks are summed in lexicographic order on
    the calling thread.
    """
    import numpy as np

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
    lead_nodes = axis_nodes[:k]
    lead_weights = [w.tolist() for w in axis_weights[:k]]

    def view(axis: int) -> tuple[int, ...]:
        return (1,) * (axis - k) + (order,) + (1,) * (n - 1 - axis)

    trailing = [axis_nodes[i].reshape(view(i)) for i in range(k, n)]

    spread = max(k - 1, 0)  # the leading axes that a block does not span
    partials = []
    with np.errstate(over="raise"):
        slab_weights = axis_weights[k].reshape(view(k))
        for i in range(k + 1, n):
            slab_weights = slab_weights * axis_weights[i].reshape(view(i))
        block_integrand = integrand(slab_weights, *trailing)
        # index picks a node on each leading axis but the last, which the
        # block spans; lexicographic order
        for index in itertools.product(range(order), repeat=spread):
            lead = [np.full(order, lead_nodes[i][j]) for i, j in enumerate(index)]
            fixed = [lead_weights[i][j] for i, j in enumerate(index)]
            if k:
                lead.append(lead_nodes[-1])
                weights = [math.prod(fixed + [w]) for w in lead_weights[-1]]
            else:
                weights = [1.0]
            totals = block_integrand(*lead)
            partials += [w * float(t) for w, t in zip(weights, totals, strict=True)]
    # a total times its leading weights is a Python float, which
    # overflows to inf without raising
    if not all(map(math.isfinite, partials)):
        raise FloatingPointError("a slab total overflows the float range")
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
    budget: int = DEFAULT_BUDGET,
) -> CubatureResult:
    """Integral side of the main identity: the pairwise-difference product
    times the n-th derivative of f at the coordinate sum, over R(x).

    The difference product is evaluated in product form, not via the
    expanded polynomial: with leading coordinates l_i and trailing ones
    u_j it is V(l) * prod_{i,j} (u_j - l_i) * V(u).  Once per call the
    trailing coordinate sum T is formed, and without leading axes the one
    slab sums the weights times V(u) * f^(n)(T).  With leading axes the
    kernel K0 = weights * V(u) is formed once, and a slab's total is
    V(l) times K0 * f^(n)(s + T), s the slab's leading sum, contracted
    along each trailing axis j with h_j[q] = prod_i (u_jq - l_i); the grid
    of their outer product is never built.  Where f^(n) splits, that is
    the sum over its terms of phi_r(s) times K0 * G_r contracted, with the
    split centred at the midpoint of the leading sums, so the fixed
    kernels K0 * G_r meet a whole block's vectors at once; otherwise
    K0 * f^(n)(s + T) is formed and contracted one slab at a time.
    """
    n = x.n
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the supported maximum {MAX_DIMENSION}")
    xf = PointSequence(x.as_floats())
    fn = f.derivative(n)
    if fn.pole() is not None:
        _require_pole_outside(fn, *sum_bounds(xf))
    intervals = xf.intervals

    def integrand(weights, *trailing):
        import numpy as np

        diffs = vandermonde_product(trailing)
        total = trailing[0]
        for t in trailing[1:]:
            total = total + t
        if len(trailing) == n:
            # summed here, so the block function holds no grid: freed with
            # it, the grids let malloc trim the heap top after every call,
            # and the next call faulted those pages back in
            whole = np.sum(weights * (diffs * fn(total)))
            return lambda: (whole,)

        kernel = weights * diffs
        axes = [u.ravel() for u in trailing]
        # the midpoint of the range of the leading sums
        centre = sum(0.5 * (a + b) for a, b in intervals[: n - len(trailing)])
        terms = [(phi, kernel * grid) for phi, grid in fn.split(total, centre)]

        def block(*lead):
            # h[z, q] = prod_i (u_q - l_i) over slab z's leading coordinates l
            factors = []
            for u in axes:
                h = u - lead[0][:, None]
                for t in lead[1:]:
                    h *= u - t[:, None]
                factors.append(h)
            sums = sum(lead)
            if terms:
                totals = sum(phi(sums) * _contract(g, factors) for phi, g in terms)
            else:
                totals = np.array([
                    _contract(kernel * fn(s + total), [h[z : z + 1] for h in factors])[0]
                    for z, s in enumerate(sums)
                ])
            return vandermonde_product(lead) * totals

        return block

    try:
        return integrate_over_rectangle(intervals, integrand, order, budget=budget)
    except FloatingPointError:
        raise OverflowError(
            f"the cubature for {f.describe()} overflows the float range"
        ) from None


def _contract(grid, factors):
    """sum over q of grid[q_1, ..., q_m] * prod_j factors[j][z, q_j], one
    total per row z.  einsum without `optimize` runs its own loops and no
    BLAS call, so the bits do not depend on a BLAS thread count."""
    import numpy as np

    acc = np.einsum("zq,q...->z...", factors[0], grid)
    for h in factors[1:]:
        acc = np.einsum("zq,zq...->z...", h, acc)
    return acc
