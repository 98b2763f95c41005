"""Special polynomials and differential operators over the exact core.

Provides the elementary symmetric polynomials e_k, the monic product
omega(t) = (t-r_1)...(t-r_m), the expanded pairwise-difference product
V(t_1,...,t_n) = prod_{i<j} (t_j - t_i), the operators

    P_k = sum_i  d^k/dt_i^k          (pure k-th partials)
    E_k = sum over k-subsets of distinct first partials

and vertex enumeration of axis-aligned rectangles.

The expanded difference product has n! monomials, so fully symbolic work
is capped (default n <= 6); numeric pipelines evaluate the product form
directly instead and have no such cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Sequence, Union

from .exact import MultiPoly, VarId, var_family

DEFAULT_SYMBOLIC_LIMIT = 6


class SymbolicLimitError(ValueError):
    """Requested expansion would exceed the configured symbolic size cap."""


def elementary_symmetric(k: int, args: Sequence[MultiPoly]) -> MultiPoly:
    """The k-th elementary symmetric polynomial of the given arguments.

    e_0 = 1; e_k for k in 1..m sums all k-fold products of distinct
    arguments.  Computed by the standard one-pass recurrence rather than
    by enumerating the C(m, k) subsets.
    """
    m = len(args)
    if k < 0 or k > m:
        raise ValueError(f"elementary symmetric index k={k} outside 0..{m}")
    # e[j] after processing i args = e_j of those args
    e = [MultiPoly.one()] + [MultiPoly.zero()] * k
    for a in args:
        for j in range(min(k, m), 0, -1):
            e[j] = e[j] + a * e[j - 1]
    return e[k]


def omega(roots: Sequence[MultiPoly], t: VarId) -> MultiPoly:
    """The monic product (t - r_1)(t - r_2)...(t - r_m); 1 for no roots."""
    tp = MultiPoly.variable(t)
    for r in roots:
        if t in r.variables():
            raise ValueError(f"root contains the product variable {t.name}")
    result = MultiPoly.one()
    for r in roots:
        result = result * (tp - r)
    return result


@lru_cache(maxsize=None)
def vandermonde_poly(n: int, family: str = "t", limit: int | None = None) -> MultiPoly:
    """The expanded pairwise-difference product on n family variables.

    Degree n(n-1)/2 with n! monomials; n=1 gives the empty product 1.
    Rejects n above the symbolic cap (default 6) unless a larger limit is
    passed explicitly.  Cached: the result is immutable, and suites
    request the same expansion many times.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    cap = DEFAULT_SYMBOLIC_LIMIT if limit is None else limit
    if n > cap:
        raise SymbolicLimitError(
            f"expanded difference product for n={n} exceeds the symbolic cap {cap}"
        )
    ts = [MultiPoly.variable(v) for v in var_family(family, n)]
    result = MultiPoly.one()
    for i in range(n):
        for j in range(i + 1, n):
            result = result * (ts[j] - ts[i])
    return result


def vandermonde_product(values: Sequence) -> Union[Fraction, float]:
    """prod_{i<j} (v_j - v_i) evaluated directly, no expansion, no cap.

    Exact on Fractions, floating on floats; returns 1 for a single value.
    """
    acc = None
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            # an unnamed difference lets numpy multiply into it in place
            acc = values[j] - values[i] if acc is None else acc * (values[j] - values[i])
    if acc is None:
        return Fraction(1) if values and isinstance(values[0], Fraction) else 1.0
    return acc


@dataclass(frozen=True)
class PureSum:
    """P_k: the sum of k-th pure partial derivatives over all variables."""

    k: int


@dataclass(frozen=True)
class MixedSum:
    """E_k: the sum of first-order mixed partials over all k-subsets."""

    k: int


OperatorKind = Union[PureSum, MixedSum]


def apply_operator(op: OperatorKind, p: MultiPoly, variables: Sequence[VarId]) -> MultiPoly:
    """Apply P_k or E_k to p with respect to an ordered variable list."""
    n = len(variables)
    if not 1 <= op.k <= n:
        raise ValueError(f"operator order k={op.k} outside 1..{n}")
    result = MultiPoly.zero()
    if isinstance(op, PureSum):
        for v in variables:
            result = result + p.diff(v, op.k)
    else:
        for subset in combinations(variables, op.k):
            q = p
            for v in subset:
                q = q.diff(v)
            result = result + q
    return result


def enumerate_vertices(bounds: Sequence[tuple]) -> list[tuple[tuple[int, ...], tuple]]:
    """All 2^n (flags, vertex) pairs of the rectangle, in binary-counter order.

    Flag i picks the lower (0) or upper (1) bound of axis i; the first flag
    is the least significant bit, so vertices come out in a fixed order.
    """
    n = len(bounds)
    if n < 1:
        raise ValueError("rectangle needs at least one axis")
    out = []
    for code in range(1 << n):
        eps = tuple((code >> i) & 1 for i in range(n))
        point = tuple(bounds[i][eps[i]] for i in range(n))
        out.append((eps, point))
    return out
