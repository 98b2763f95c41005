"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a finite map from monomials to nonzero Fraction
coefficients.  A monomial is a tuple of (variable, exponent) pairs with
positive exponents, sorted by variable, so that every polynomial has
exactly one stored representation:

    2*t1*t2 - x1^2   ->   {((t1,1),(t2,1)): 2, ((x1,2),): -1}

The zero polynomial is the empty map.  Coefficients are always exact
rationals (fractions.Fraction); floats are rejected so that identity
checks can demand the literal zero polynomial rather than a small
residual.

Terms enter only through zero/one/const/variable and the ring and
calculus operations.  One accumulator, `_collect`, merges equal monomials
and drops every term that cancels to 0; that invariant is what makes
`is_zero` a proof that an identity holds.

The hot loops run on integers.  `eval` puts the point and the
coefficients over one denominator each, sums integer numerators per total
degree in one pass over the terms, and builds one Fraction at the end;
`diff(v, k)` is one pass that multiplies each coefficient by the falling
factorial e(e-1)...(e-k+1) and lowers v's exponent in place.

Variables are (family, index) pairs ordered family-first, so the
t-family sorts before the x-family and rendered output is deterministic:
terms are emitted in graded-lexicographic order (total degree first,
then exponent vectors with the earliest variable most significant).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Union

CoeffLike = Union[int, Fraction]


class VarId(NamedTuple):
    """A symbolic variable: family letter plus ordinal index (t1, x3, ...)."""

    family: str
    index: int

    @property
    def name(self) -> str:
        return f"{self.family}{self.index}"


def var_family(family: str, count: int) -> list[VarId]:
    """The variables family1 .. family<count>, in index order."""
    return [VarId(family, i) for i in range(1, count + 1)]


# Monomial: ((var, exp), ...) sorted by var, all exps > 0; () is the unit.
Monomial = tuple[tuple[VarId, int], ...]
Terms = dict[Monomial, Fraction]


class MissingVariableError(ValueError):
    """Raised when evaluation lacks a value for one or more variables."""

    def __init__(self, missing: Iterable[VarId]):
        self.missing = tuple(sorted(missing))
        names = ", ".join(v.name for v in self.missing)
        super().__init__(f"no value assigned for variable(s): {names}")


def _coeff(value: CoeffLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact coefficient required (int or Fraction), got {type(value).__name__}")


def _over_one_denominator(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """Integers k_i and one d >= 1 with values[i] == k_i / d."""
    values = list(values)
    d = math.lcm(*(q.denominator for q in values))
    return [q.numerator * (d // q.denominator) for q in values], d


def _collect(pairs: Iterable[tuple[Monomial, Fraction]], into: Terms | None = None) -> Terms:
    """Sum the coefficients of equal monomials into `into` (a new dict by
    default), dropping every monomial whose sum is 0; returns the dict."""
    out = {} if into is None else into
    for mono, c in pairs:
        if mono in out:
            c = out[mono] + c
            if not c:
                del out[mono]
                continue
        if c:
            out[mono] = c
    return out


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out: list[tuple[VarId, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _split(mono: Monomial, v: VarId) -> tuple[int, Monomial]:
    """v's exponent in mono (0 if absent), and mono without v."""
    for i, (w, e) in enumerate(mono):
        if w == v:
            return e, mono[:i] + mono[i + 1 :]
    return 0, mono


class MultiPoly:
    """Immutable sparse multivariate polynomial with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self) -> None:
        self._terms: Terms = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls) -> MultiPoly:
        return cls()

    @classmethod
    def one(cls) -> MultiPoly:
        return cls.const(1)

    @classmethod
    def const(cls, value: CoeffLike) -> MultiPoly:
        c = _coeff(value)
        return cls._raw({(): c} if c else {})

    @classmethod
    def variable(cls, v: VarId) -> MultiPoly:
        return cls._raw({((v, 1),): Fraction(1)})

    @classmethod
    def _raw(cls, terms: Terms) -> MultiPoly:
        # the one way stored terms enter: canonical, no zero coefficient
        p = cls.__new__(cls)
        p._terms = terms
        return p

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Terms:
        return dict(self._terms)

    def variables(self) -> tuple[VarId, ...]:
        seen = {v for mono in self._terms for v, _ in mono}
        return tuple(sorted(seen))

    def total_degree(self) -> int:
        """Maximum total degree over all terms; 0 for the zero polynomial."""
        return max((sum(e for _, e in mono) for mono in self._terms), default=0)

    def degree_in(self, v: VarId) -> int:
        return max((_split(mono, v)[0] for mono in self._terms), default=0)

    def as_constant(self) -> Fraction:
        """The value of a constant polynomial; error if variables remain."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1 and () in self._terms:
            return self._terms[()]
        names = ", ".join(v.name for v in self.variables())
        raise ValueError(f"polynomial is not constant; contains: {names}")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.const(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable dict inside

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations ----------------------------------------------------

    def _as_poly(self, value) -> MultiPoly:
        if isinstance(value, MultiPoly):
            return value
        return MultiPoly.const(value)

    def __add__(self, other) -> MultiPoly:
        other = self._as_poly(other)
        return MultiPoly._raw(_collect(other._terms.items(), dict(self._terms)))

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return MultiPoly._raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> MultiPoly:
        return self + (-self._as_poly(other))

    def __rsub__(self, other) -> MultiPoly:
        return self._as_poly(other) + (-self)

    def __mul__(self, other) -> MultiPoly:
        other = self._as_poly(other)
        return MultiPoly._raw(
            _collect(
                (_mono_mul(ma, mb), ca * cb)
                for ma, ca in self._terms.items()
                for mb, cb in other._terms.items()
            )
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> MultiPoly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial power requires a non-negative integer")
        result = MultiPoly.one()
        for _ in range(exponent):
            result = result * self
        return result

    # -- calculus ------------------------------------------------------------
    # diff and antiderivative keep distinct monomials distinct: no merging

    def diff(self, v: VarId, order: int = 1) -> MultiPoly:
        """Exact partial derivative with respect to v, iterated `order` times.

        One pass: a term with v^e, e >= order, becomes e!/(e-order)! times
        the term with v^(e-order); every other term drops out.
        """
        if order < 0:
            raise ValueError("derivative order must be non-negative")
        if not order:
            return self
        out: Terms = {}
        for mono, c in self._terms.items():
            for i, (w, e) in enumerate(mono):
                if w == v:
                    if e >= order:
                        kept = ((v, e - order),) if e > order else ()
                        out[mono[:i] + kept + mono[i + 1 :]] = c * math.perm(e, order)
                    break
        return MultiPoly._raw(out)

    def antiderivative(self, v: VarId) -> MultiPoly:
        """Antiderivative in v with zero constant of integration."""
        out: Terms = {}
        for mono, c in self._terms.items():
            e, rest = _split(mono, v)
            out[_mono_mul(rest, ((v, e + 1),))] = c / (e + 1)
        return MultiPoly._raw(out)

    def integrate(self, v: VarId, lower, upper) -> MultiPoly:
        """Definite integral in v between two bounds not involving v.

        Bounds may be polynomials, Fractions, or ints; the result is the
        antiderivative evaluated (by substitution) at upper minus lower.
        """
        lower = self._as_poly(lower)
        upper = self._as_poly(upper)
        for bound in (lower, upper):
            if v in bound.variables():
                raise ValueError(f"integration bound contains the variable {v.name}")
        anti = self.antiderivative(v)
        return anti.substitute(v, upper) - anti.substitute(v, lower)

    # -- substitution / evaluation -------------------------------------------

    def substitute(self, v: VarId, replacement) -> MultiPoly:
        """Exact substitution of a polynomial (or constant) for v."""
        replacement = self._as_poly(replacement)
        max_e = self.degree_in(v)
        if max_e == 0:
            return self
        powers = [MultiPoly.one()]
        for _ in range(max_e):
            powers.append(powers[-1] * replacement)
        return MultiPoly._raw(
            _collect(
                (_mono_mul(rest, pm), c * pc)
                for mono, c in self._terms.items()
                for e, rest in (_split(mono, v),)
                for pm, pc in powers[e]._terms.items()
            )
        )

    def eval(self, assignment: Mapping[VarId, CoeffLike]) -> Fraction:
        """Exact value at a rational point covering every variable.

        One integer pass: the used variables' values are numerators over
        one denominator d, and the coefficients over another.  Each term
        adds its integer numerator to the sum S_deg of its total degree;
        the value is sum_deg S_deg * d^(top - deg) over c_den * d^top.
        """
        values = {v: _coeff(c) for v, c in assignment.items()}
        top: dict[VarId, int] = {}  # used variable -> its largest exponent
        for mono in self._terms:
            for v, e in mono:
                if e > top.get(v, 0):
                    top[v] = e
        missing = [v for v in top if v not in values]
        if missing:
            raise MissingVariableError(missing)
        nums, d = _over_one_denominator(values[v] for v in top)
        powers = {}  # v -> [1, k, k^2, ..] with values[v] == k / d
        for (v, e), k in zip(top.items(), nums):
            row = [1]
            for _ in range(e):
                row.append(row[-1] * k)
            powers[v] = row
        coeffs, c_den = _over_one_denominator(self._terms.values())
        sums = [0] * (sum(top.values()) + 1)
        for mono, c in zip(self._terms, coeffs):
            deg = 0
            for v, e in mono:
                c *= powers[v][e]
                deg += e
            sums[deg] += c
        total = 0
        for s in sums:  # Horner in d, lowest degree first
            total = total * d + s
        return Fraction(total, c_den * d ** (len(sums) - 1))

    # -- rendering -------------------------------------------------------------

    def render(self) -> str:
        """Deterministic text form: graded-lex term order, p/q coefficients."""
        if not self._terms:
            return "0"
        universe = self.variables()
        pos = {v: i for i, v in enumerate(universe)}

        def expvec(mono: Monomial) -> tuple[int, ...]:
            vec = [0] * len(universe)
            for v, e in mono:
                vec[pos[v]] = e
            return tuple(vec)

        ordered = sorted(
            self._terms.items(),
            key=lambda item: (sum(e for _, e in item[0]), expvec(item[0])),
            reverse=True,
        )
        pieces: list[str] = []
        for i, (mono, c) in enumerate(ordered):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            factors = [v.name if e == 1 else f"{v.name}^{e}" for v, e in mono]
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if i == 0:
                pieces.append(body if sign == "+" else f"-{body}")
            else:
                pieces.append(f" {sign} {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self.render()})"

    __str__ = render
