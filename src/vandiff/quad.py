"""Tensor-product Gauss-Legendre cubature of the integral side of the
identity: V(t) * f^(n)(t_1 + ... + t_n) over the sequential rectangle
R(x), whose axes are the intervals `PointSequence.intervals` returns.

Non-adaptive by design: the integrand is smooth on the box, the rule
converges spectrally, and a fixed rule keeps output bit-reproducible.
The node grid is cut into slabs: the trailing m axes, m the largest with
order**m <= _CHUNK, span a slab, and the k = n - m leading axes pick it.
The slabs fall into fixed blocks of `order`, which differ only in the
last leading axis (without leading axes, the one slab).  V is evaluated
in product form, not via the expanded polynomial: with leading
coordinates l_i and trailing ones u_j it is V(l) * prod_{i,j} (u_j - l_i)
* V(u).  Once per call the slab's weight grid, V(u), the trailing
coordinate sum T and the kernel K0 = weights * V(u) are formed; without
leading axes the one slab sums the weights times V(u) * f^(n)(T).  With
leading axes a slab's total is V(l) times K0 * f^(n)(s + T), s the
slab's leading sum, contracted along each trailing axis j with
h_j[q] = prod_i (u_jq - l_i); the grid of their outer product is never
built.  Where f^(n) splits into separable terms phi_r(s) * G_r(T)
(`split`, centred at the midpoint of the leading sums), the kernels
K0 * G_r are fixed and a whole block is contracted in a few einsum
passes; otherwise f^(n) gives, once per call, a weighted translate
(`AnalyticFunction.weighted_translate`) that forms K0 * f^(n) at a
slab's sums, for a reciprocal by one reciprocal and squarings into
buffers that every slab reuses, and each slab contracts it on its own.
einsum runs its own loops, so no BLAS call enters the result.  The
blocks are summed one after another, in lexicographic order; a slab's
total times its leading weights is one partial sum, and the partials are
combined with math.fsum, which is exactly rounded.  An evaluation budget
guards against infeasible order/dimension combinations instead of
silently truncating.

numpy is imported by the functions that handle arrays when they run,
so that importing this module, as every import of the package does,
leaves it unloaded; the Gauss-Legendre rule itself is plain Python.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .funcs import AnalyticFunction, PoleError
from .points import PointSequence, sum_bounds
from .symfun import vandermonde_product

MAX_ORDER = 64
MAX_DIMENSION = 8
DEFAULT_BUDGET = 10**8
_NEWTON_TOL = 1e-15
_CHUNK = 1 << 16  # most nodes in one slab, and so in any grid a call forms


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
    times the n-th derivative of f at the coordinate sum, over R(x), by
    the order-`order` tensor rule in the slabs and blocks described in
    the module docstring.

    Raises ValueError past MAX_DIMENSION or for an order outside
    1..MAX_ORDER, PoleError when the pole of f^(n) lies in the range of
    the coordinate sum, BudgetExceededError when order**n exceeds
    `budget`, and OverflowError naming f when the weights, a slab total
    or their sum overflow the float range.
    """
    n = x.n
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the supported maximum {MAX_DIMENSION}")
    xf = PointSequence(x.as_floats())
    fn = f.derivative(n)
    if fn.pole() is not None:
        _require_pole_outside(fn, *sum_bounds(xf))
    import numpy as np

    rule = gauss_legendre(order)
    evaluations = order**n
    if evaluations > budget:
        raise BudgetExceededError(
            f"{order}^{n} = {evaluations} node evaluations exceed the budget {budget}"
        )
    base_nodes = np.asarray(rule.nodes)
    base_weights = np.asarray(rule.weights)
    nodes = []
    weights = []
    for a, b in xf.intervals:
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * base_nodes)
        weights.append(half * base_weights)
    m = n
    while order**m > _CHUNK:
        m -= 1
    k = n - m

    def view(axis: int) -> tuple[int, ...]:
        return (1,) * (axis - k) + (order,) + (1,) * (n - 1 - axis)

    trailing = [nodes[i].reshape(view(i)) for i in range(k, n)]
    # the midpoint of the range of the leading sums
    centre = sum(0.5 * (a + b) for a, b in xf.intervals[:k])
    try:
        with np.errstate(over="raise"):
            slab_weights = weights[k].reshape(view(k))
            for i in range(k + 1, n):
                slab_weights = slab_weights * weights[i].reshape(view(i))
            partials = _partials(
                fn, slab_weights, trailing, nodes[:k], [w.tolist() for w in weights[:k]], centre
            )
        # a slab total times its leading weights is a Python float, which
        # overflows to inf without raising
        if not all(map(math.isfinite, partials)):
            raise FloatingPointError
        try:
            value = math.fsum(partials)
        except OverflowError:  # finite partials whose sum overflows
            raise FloatingPointError from None
    except FloatingPointError:
        raise OverflowError(
            f"the cubature for {f.describe()} overflows the float range"
        ) from None
    return CubatureResult(value, evaluations)


def _partials(fn, weights, trailing, lead_nodes, lead_weights, centre) -> list[float]:
    """One partial sum per slab, in lexicographic order: the slab's
    leading weights times the sum over its nodes of `weights` times
    V(t) * fn(t_1 + ... + t_n).  V(u), T and the kernels live in this
    frame, so they are freed before the slab weights: the order in which
    the temporaries are freed decides whether malloc trims the heap top
    and the next call faults those pages back in."""
    import numpy as np

    diffs = vandermonde_product(trailing)
    total = trailing[0]
    for t in trailing[1:]:
        total = total + t
    if not lead_nodes:
        return [float(np.sum(weights * (diffs * fn(total))))]

    kernel = weights * diffs
    axes = [u.ravel() for u in trailing]
    terms = [(phi, kernel * grid) for phi, grid in fn.split(total, centre)]
    at = None if terms else fn.weighted_translate(kernel, total)
    last_nodes, last_weights = lead_nodes[-1], lead_weights[-1]
    order = len(last_weights)
    partials = []
    # index picks a node on each leading axis but the last, which the
    # block spans; lexicographic order
    for index in itertools.product(range(order), repeat=len(lead_nodes) - 1):
        lead = [np.full(order, lead_nodes[i][j]) for i, j in enumerate(index)]
        lead.append(last_nodes)
        fixed = [lead_weights[i][j] for i, j in enumerate(index)]
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
            totals = []
            for z, s in enumerate(sums):
                acc = at(s)
                for h in factors:
                    acc = np.einsum("q,q...->...", h[z], acc)
                totals.append(acc)
            totals = np.array(totals)
        totals = vandermonde_product(lead) * totals
        partials += [
            math.prod(fixed + [w]) * float(t)
            for w, t in zip(last_weights, totals, strict=True)
        ]
    return partials


def _contract(grid, factors):
    """sum over q of grid[q_1, ..., q_m] * prod_j factors[j][z, q_j], one
    total per row z.  einsum without `optimize` runs its own loops and no
    BLAS call, so the bits do not depend on a BLAS thread count."""
    import numpy as np

    acc = np.einsum("zq,q...->z...", factors[0], grid)
    for h in factors[1:]:
        acc = np.einsum("zq,zq...->z...", h, acc)
    return acc
