"""Special polynomials and differential operators over the exact core.

Provides the elementary symmetric polynomials e_k, the monic product
omega(t) = (t-r_1)...(t-r_m), the expanded pairwise-difference product
V(t_1,...,t_n) = prod_{i<j} (t_j - t_i), the operators

    P_k = sum_i  d^k/dt_i^k          (pure k-th partials)
    E_k = sum over k-subsets of distinct first partials

and vertex enumeration of axis-aligned rectangles.

The expanded difference product has n! monomials, so fully symbolic work
is capped at n <= SYMBOLIC_LIMIT (7), checked by require_symbolic_size;
the exact integral side never expands it but keeps the same cap.  Numeric
pipelines evaluate the product form directly instead and have no such cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Sequence, Union

from .exact import _MASK, MultiPoly, VarId, _offset, var_family

SYMBOLIC_LIMIT = 7


class SymbolicLimitError(ValueError):
    """Requested expansion would exceed the symbolic size cap."""


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
    result = MultiPoly.one()
    for r in roots:
        if t in r.variables():
            raise ValueError(f"root contains the product variable {t.name}")
        result = result * (tp - r)
    return result


def vandermonde_poly(n: int, family: str = "t") -> MultiPoly:
    """The expanded pairwise-difference product on n family variables.

    Degree n(n-1)/2 with n! monomials; n=1 gives the empty product 1.
    Rejects n above SYMBOLIC_LIMIT.  Cached once per (n, family), however
    the call is spelled: the result is immutable, and suites request the
    same expansion many times.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    require_symbolic_size(n)
    return _expand_vandermonde(n, family)


def require_symbolic_size(n: int) -> None:
    """Raise SymbolicLimitError for a dimension n above SYMBOLIC_LIMIT.

    The one home of the cap and its message, for the commands that expand
    V and for the exact integral side, which does not but keeps their bound.
    """
    if n > SYMBOLIC_LIMIT:
        raise SymbolicLimitError(
            f"expanded difference product for n={n} exceeds the symbolic cap {SYMBOLIC_LIMIT}"
        )


@lru_cache(maxsize=None)
def _expand_vandermonde(n: int, family: str) -> MultiPoly:
    # Leibniz formula for V = det[t_i^(j-1)]: each permutation p gives its
    # own monomial prod_i t_i^p(i), signed by the parity of its inversions
    offsets = [_offset(v) for v in var_family(family, n)]
    terms = {}
    for perm in permutations(range(n)):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        terms[sum(e << off for off, e in zip(offsets, perm))] = -1 if inversions & 1 else 1
    return MultiPoly._raw(terms, 1, n - 1)


def vandermonde_product(values: Sequence) -> Union[Fraction, float]:
    """prod_{i<j} (v_j - v_i) evaluated directly, no expansion, no cap.

    Exact on Fractions, floating on floats, and elementwise on numpy
    arrays that broadcast together, such as the cubature's per-axis node
    views; returns 1 for a single value.
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
    """Apply P_k or E_k to p with respect to a list of distinct variables.

    P_k sums diff(v, k) over the variables.  E_k is one pass over p's
    terms: for every k-subset of a term's variables that are in the list,
    the coefficient is multiplied by their exponents and each of those
    exponents is lowered by one.
    """
    n = len(variables)
    if not 1 <= op.k <= n:
        raise ValueError(f"operator order k={op.k} outside 1..{n}")
    wanted = set(variables)
    if len(wanted) != n:
        raise ValueError("operator variables must be distinct")
    if isinstance(op, PureSum):
        result = MultiPoly.zero()
        for v in variables:
            result = result + p.diff(v, op.k)
        return result
    return _mixed_partials(op.k, p, wanted)


def _mixed_partials(k: int, p: MultiPoly, wanted: set[VarId]) -> MultiPoly:
    """The sum of d^k/dt_S p over every k-subset S of `wanted`: each term
    of p gives, per k-subset of its wanted variables, its numerator times
    their exponents, with each of their fields lowered by one."""
    fields = [(off, 1 << off) for off in map(_offset, wanted)]
    out = {}
    get = out.get
    for m, c in p._terms.items():
        hits = [(step, e) for off, step in fields if (e := (m >> off) & _MASK)]
        for chosen in combinations(hits, k):
            lowered, factor = m, c
            for step, e in chosen:
                lowered -= step
                factor *= e
            out[lowered] = get(lowered, 0) + factor
    return MultiPoly._raw(out, p._den, p._bound)


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
