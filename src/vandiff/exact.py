"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is stored as integer numerators over one shared positive
denominator.  Each monomial is one Python int holding a fixed-width
exponent field per variable: a variable's field sits at a bit offset it
is given on first use, so multiplying two monomials is integer addition
and a derivative or substitution reads or shifts a single field.  With
t1, t2 and x1 at offsets 0, 8 and 16,

    2*t1*t2 - x1^2/3   ->   {0x000101: 6, 0x020000: -1} over 3

Every stored polynomial is canonical: no numerator is 0, and the
numerators and the denominator share no common factor (one math.gcd
keeps it so), with the zero polynomial the empty map over 1.  Equal
polynomials are therefore stored identically, so `==` and `is_zero` are
exact proofs that an identity holds.  Coefficients are always exact
rationals; floats are rejected so that identity checks can demand the
literal zero polynomial rather than a small residual.  An exponent that
would not fit its field raises ValueError, never carrying into the next
variable's field.

`terms()` is the decoded view: monomials as tuples of (variable,
exponent) pairs with positive exponents, sorted by variable, mapped to
Fraction coefficients.  The offsets follow the order in which variables
are first used, which no output depends on.

Variables are (family, index) pairs ordered family-first, so the
t-family sorts before the x-family and rendered output is deterministic:
terms are emitted in graded-lexicographic order (total degree first,
then exponent vectors with the earliest variable most significant).

The box integrals at the end integrate over a rectangle with rational
bounds in integer arithmetic, one denominator per axis: _box_integral a
polynomial times g(t_1 + ... + t_n), and _vandermonde_box_integral the
difference product V(t) times it, as a determinant, without expanding V.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

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


# Decoded monomial: ((var, exp), ...) sorted by var, all exps > 0; () is the unit.
Monomial = tuple[tuple[VarId, int], ...]
Terms = dict[Monomial, Fraction]

# bits per exponent field, and the largest exponent a field holds; one
# byte per field lets eval read a term's exponents as the bytes of its key
_WIDTH = 8
_MASK = (1 << _WIDTH) - 1

# variable -> bit offset of its exponent field, given on first use; slot i
# of _SLOTS holds the variable at offset i * _WIDTH
_OFFSETS: dict[VarId, int] = {}
_SLOTS: list[VarId] = []


def _offset(v: VarId) -> int:
    """The bit offset of v's exponent field, registering v on first use."""
    off = _OFFSETS.get(v)
    if off is None:
        # list.append is atomic, so concurrent first uses never share a slot
        _SLOTS.append(v)
        off = _OFFSETS.setdefault(v, _SLOTS.index(v) * _WIDTH)
    return off


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


def _checked_bound(quick: int, base: int, products: Iterable[tuple[int, MultiPoly]]) -> int:
    """An upper bound on the exponents of every monomial m * q, for the
    (packed monomial m, polynomial q) pairs in `products`: `quick`, an
    upper bound, when it fits a field.  Otherwise the pairs are checked
    one by one, and `base` bounds the fields of m that q lacks; a sum that
    would not fit its field raises ValueError naming the variable.
    """
    if quick <= _MASK:
        return quick
    bound = base
    for m, q in products:
        for v, off, top in q._layout():
            e = ((m >> off) & _MASK) + top
            if e > _MASK:
                raise ValueError(f"the exponent of {v.name} would exceed {_MASK}")
            bound = max(bound, e)
    return bound


class MultiPoly:
    """Immutable sparse multivariate polynomial with rational coefficients."""

    # _terms: packed monomial -> nonzero integer numerator; _den: the shared
    # denominator; _bound: no exponent exceeds it; _plan: see _layout
    __slots__ = ("_terms", "_den", "_bound", "_plan")

    def __init__(self) -> None:
        self._terms: dict[int, int] = {}
        self._den = 1
        self._bound = 0
        self._plan: tuple[tuple[VarId, int, int], ...] | None = None

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
        return cls._raw({0: c.numerator} if c else {}, c.denominator, 0)

    @classmethod
    def variable(cls, v: VarId) -> MultiPoly:
        return cls._raw({1 << _offset(v): 1}, 1, 1)

    @classmethod
    def _raw(cls, terms: dict[int, int], den: int, bound: int) -> MultiPoly:
        # the one way stored terms enter: drops zero numerators and divides
        # out the common factor of the numerators and the denominator
        if 0 in terms.values():
            terms = {m: c for m, c in terms.items() if c}
        if den != 1:
            g = math.gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {m: c // g for m, c in terms.items()}
        p = cls.__new__(cls)
        p._terms = terms
        p._den = den
        p._bound = bound if terms else 0
        p._plan = None
        return p

    # -- inspection --------------------------------------------------------

    def _layout(self) -> tuple[tuple[VarId, int, int], ...]:
        """(variable, bit offset, largest exponent) for each variable in
        use, in variable order; worked out once per polynomial."""
        if self._plan is None:
            terms = self._terms
            support = 0
            for m in terms:
                support |= m
            plan = []
            slot = 0
            while support:
                if support & _MASK:
                    off = slot * _WIDTH
                    top = max((m >> off) & _MASK for m in terms)
                    plan.append((_SLOTS[slot], off, top))
                support >>= _WIDTH
                slot += 1
            plan.sort()
            self._plan = tuple(plan)
        return self._plan

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Terms:
        """The decoded view: sorted (variable, exponent) tuples -> Fraction."""
        plan = self._layout()
        den = self._den
        return {
            tuple((v, e) for v, off, _ in plan if (e := (m >> off) & _MASK)): Fraction(c, den)
            for m, c in self._terms.items()
        }

    def variables(self) -> tuple[VarId, ...]:
        return tuple(v for v, _, _ in self._layout())

    def degree_in(self, v: VarId) -> int:
        off = _OFFSETS.get(v)
        if off is None:
            return 0
        return max(((m >> off) & _MASK for m in self._terms), default=0)

    def _integer_terms(self, variables: Sequence[VarId]) -> tuple[list[list[int]], Iterable[int], int]:
        """Each term's exponents of `variables` (in that order; other
        variables are not read), each term's numerator, and the shared
        denominator."""
        offsets = [_offset(v) for v in variables]
        exponents = [[(m >> off) & _MASK for off in offsets] for m in self._terms]
        return exponents, self._terms.values(), self._den

    def as_constant(self) -> Fraction:
        """The value of a constant polynomial; error if variables remain."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1 and 0 in self._terms:
            return Fraction(self._terms[0], self._den)
        names = ", ".join(v.name for v in self.variables())
        raise ValueError(f"polynomial is not constant; contains: {names}")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            return self._den == other._den and self._terms == other._terms
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
        # copy the larger map, add the smaller one into it
        a, b = (self, other) if len(self._terms) >= len(other._terms) else (other, self)
        den = math.lcm(a._den, b._den)
        scale = den // a._den
        out = dict(a._terms) if scale == 1 else {m: c * scale for m, c in a._terms.items()}
        get = out.get
        scale = den // b._den
        for m, c in b._terms.items():
            out[m] = get(m, 0) + c * scale
        return MultiPoly._raw(out, den, max(a._bound, b._bound))

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return MultiPoly._raw({m: -c for m, c in self._terms.items()}, self._den, self._bound)

    def __sub__(self, other) -> MultiPoly:
        return self + (-self._as_poly(other))

    def __rsub__(self, other) -> MultiPoly:
        return self._as_poly(other) + (-self)

    def __mul__(self, other) -> MultiPoly:
        other = self._as_poly(other)
        bound = _checked_bound(
            self._bound + other._bound, self._bound, ((m, other) for m in self._terms)
        )
        # the outer loop runs over the smaller map
        a, b = (self, other) if len(self._terms) <= len(other._terms) else (other, self)
        if len(a._terms) == 1:
            # a single term shifts b's monomials, which stay distinct
            [(ma, ca)] = a._terms.items()
            out = {m + ma: c * ca for m, c in b._terms.items()}
        else:
            out = {}
            get = out.get
            right = b._terms.items()
            for ma, ca in a._terms.items():
                for mb, cb in right:
                    m = ma + mb
                    out[m] = get(m, 0) + ca * cb
        return MultiPoly._raw(out, a._den * b._den, bound)

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
        off = _OFFSETS.get(v)
        if off is None:
            return MultiPoly()
        lower = order << off
        out = {}
        for m, c in self._terms.items():
            e = (m >> off) & _MASK
            if e >= order:
                out[m - lower] = c * math.perm(e, order)
        return MultiPoly._raw(out, self._den, self._bound)

    def antiderivative(self, v: VarId) -> MultiPoly:
        """Antiderivative in v with zero constant of integration."""
        if not self._terms:
            return self
        off = _offset(v)
        exps = {(m >> off) & _MASK for m in self._terms}
        top = max(exps)
        if top == _MASK:
            raise ValueError(f"the exponent of {v.name} would exceed {_MASK}")
        # c / (e + 1) == c * (scale / (e + 1)) / scale, in integers
        scale = math.lcm(*(e + 1 for e in exps))
        step = 1 << off
        out = {
            m + step: c * (scale // (((m >> off) & _MASK) + 1))
            for m, c in self._terms.items()
        }
        return MultiPoly._raw(out, self._den * scale, max(self._bound, top + 1))

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
        """Exact substitution of a polynomial (or constant) for v.

        Each term with v^e, v's field cleared, is multiplied by the e-th
        power of the replacement; the powers are put over one denominator
        first, so the pass is integer multiply-add.
        """
        replacement = self._as_poly(replacement)
        max_e = self.degree_in(v)
        if max_e == 0:
            return self
        powers = [MultiPoly.one()]
        for _ in range(max_e):
            powers.append(powers[-1] * replacement)
        off = _OFFSETS[v]
        clear = ~(_MASK << off)  # keeps every field but v's
        bound = _checked_bound(
            self._bound + powers[-1]._bound,
            self._bound,
            ((m & clear, powers[(m >> off) & _MASK]) for m in self._terms),
        )
        den = math.lcm(*(p._den for p in powers))
        scaled = [[(m, c * (den // p._den)) for m, c in p._terms.items()] for p in powers]
        out = {}
        get = out.get
        for m, c in self._terms.items():
            rest = m & clear
            for pm, pc in scaled[(m >> off) & _MASK]:
                k = rest + pm
                out[k] = get(k, 0) + c * pc
        return MultiPoly._raw(out, self._den * den, bound)

    def eval(self, assignment: Mapping[VarId, CoeffLike]) -> Fraction:
        """Exact value at a rational point covering every variable.

        One integer pass: the used variables' values are numerators k over
        one denominator d, and a variable with largest exponent `top`
        contributes k^e * d^(top - e) for exponent e, so every term is over
        the same d^(sum of tops).  A term's exponents are the bytes of its
        packed monomial.
        """
        values = {v: _coeff(c) for v, c in assignment.items()}
        plan = self._layout()
        missing = [v for v, _, _ in plan if v not in values]
        if missing:
            raise MissingVariableError(missing)
        nums, d = _over_one_denominator(values[v] for v, _, _ in plan)
        rows = [
            (off // _WIDTH, [k**e * d ** (top - e) for e in range(top + 1)])
            for (_, off, top), k in zip(plan, nums)
        ]
        size = max((byte + 1 for byte, _ in rows), default=0)
        total = 0
        for m, c in self._terms.items():
            fields = m.to_bytes(size, "little")
            for byte, row in rows:
                c *= row[fields[byte]]
            total += c
        return Fraction(total, self._den * d ** sum(top for _, _, top in plan))

    # -- rendering -------------------------------------------------------------

    def render(self) -> str:
        """Deterministic text form: graded-lex term order, p/q coefficients."""
        if not self._terms:
            return "0"
        plan = self._layout()
        slots = [off // _WIDTH for _, off, _ in plan]
        # texts[j][e] is variable j to the power e, as a factor
        texts = [
            ["", v.name] + [f"{v.name}^{e}" for e in range(2, top + 1)] for v, _, top in plan
        ]
        # with the variables' fields in variable order, unused fields (all 0)
        # included, a monomial's bytes are already its exponent vector
        in_order = slots == sorted(slots)
        size = max(slots, default=-1) + 1

        def graded_lex(m: int) -> int:
            # total degree above the exponents, the first variable's highest
            fields = m.to_bytes(size, "little")
            if not in_order:
                fields = bytes([fields[i] for i in slots])
            return (sum(fields) << (8 * len(fields))) | int.from_bytes(fields, "big")

        den = self._den
        pieces: list[str] = []
        for m in sorted(self._terms, key=graded_lex, reverse=True):
            c = self._terms[m]
            fields = m.to_bytes(size, "little")
            factors = [text[fields[i]] for i, text in zip(slots, texts) if fields[i]]
            g = math.gcd(c, den)
            num, q = abs(c) // g, den // g
            mag = str(num) if q == 1 else f"{num}/{q}"
            if not factors:
                body = mag
            elif num == 1 and q == 1:
                body = "*".join(factors)
            else:
                body = mag + "*" + "*".join(factors)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f" {'-' if c < 0 else '+'} {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self.render()})"

    __str__ = render


# -- box integrals ------------------------------------------------------------


def _moment_table(a, b, rows: int, top: int) -> tuple[list[list[int]], int]:
    """Integers T[e][q] and one d >= 1 with T[e][q] / d = m(e + q) / q!
    for e < rows and q < top, where m(e) = (b^(e+1) - a^(e+1)) / (e+1) is
    the e-th moment of the axis (a, b).

    With a = A/L and b = B/L over one L, and R = rows + top - 1 the
    largest power, m(r - 1) / q! = (B^r - A^r) L^(R-r) (R! / (r q!)) over
    L^R R!, and r q! divides R! because q < r.  So every entry is an
    integer product, and no Fraction is built.
    """
    a, b = _coeff(a), _coeff(b)
    den = math.lcm(a.denominator, b.denominator)
    lo, hi = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
    last = rows + top - 1
    scale = math.factorial(last)
    # span[r] = (B^r - A^r) L^(R-r) for r = 1..R, built from the top power down
    span, lo_r, hi_r, den_r = [0] * (last + 1), 1, 1, den**last
    for r in range(1, last + 1):
        lo_r, hi_r, den_r = lo_r * lo, hi_r * hi, den_r // den
        span[r] = (hi_r - lo_r) * den_r
    facts = [math.factorial(q) for q in range(top)]
    table = [
        [span[e + q + 1] * (scale // ((e + q + 1) * facts[q])) for q in range(top)]
        for e in range(rows)
    ]
    return table, den**last * scale


def _series_mul_add(out: list[int], acc: list[int], row: list[int]) -> list[int]:
    """Add the product of the series acc and row in z to out, truncated
    to the length of out, and return out."""
    top = len(out)
    for j, r in enumerate(row):
        for k in range(top - j):
            out[k + j] += acc[k] * r
    return out


def _box_integral(p: MultiPoly, tvars: Sequence[VarId], bounds, g=(1,)) -> Fraction:
    """Exact integral of p(t) * g(t_1 + ... + t_n) over the box whose axis
    i runs over the constant bounds (a_i, b_i) of variable tvars[i].

    g holds the coefficients g_0, g_1, ..., g_K of a polynomial in one
    variable, lowest first; an empty g is the zero polynomial.  Monomials
    integrate axis by axis, and the multinomial theorem gives

        int t^alpha (t_1 + ... + t_n)^k dt = k! [z^k] prod_i A_i(alpha_i; z),
        A_i(e; z) = sum_{j<=K} m_i(e + j) z^j / j!,
        m_i(e) = (b_i^(e+1) - a_i^(e+1)) / (e + 1),

    so one pass over the terms of p multiplies truncated series.  p's
    integer numerators are used as stored, and each axis table
    (_moment_table) and the coefficients of g are scaled to integers over
    one denominator each: the pass is integer multiply-add, and one
    Fraction is built at the end.
    """
    g = [_coeff(c) for c in g]
    if not g or p.is_zero:
        return Fraction(0)
    if not bounds:
        raise ValueError("box needs at least one axis")
    for v in p.variables():
        if v not in tvars:
            raise ValueError(f"{v.name} is not an integration variable")
    exponents, coeffs, denominator = p._integer_terms(tvars)
    weights, den = _over_one_denominator(
        [c * math.factorial(k) for k, c in enumerate(g)]
    )
    denominator *= den
    tables = []  # tables[i][e] = A_i(e; z), coefficients of z^0 .. z^K
    for i, (a, b) in enumerate(bounds):
        table, den = _moment_table(a, b, max(exps[i] for exps in exponents) + 1, len(g))
        tables.append(table)
        denominator *= den
    first, later = tables[0], tables[1:]
    total = 0
    for exps, c in zip(exponents, coeffs):
        acc = first[exps[0]]
        for table, e in zip(later, exps[1:]):
            acc = _series_mul_add([0] * len(g), acc, table[e])
        total += c * sum(w * s for w, s in zip(weights, acc))
    return Fraction(total, denominator)


def _vandermonde_box_integral(bounds, g) -> Fraction:
    """_box_integral(vandermonde_poly(n), ..., bounds, g) without expanding
    V, for n = len(bounds) axes.

    Row i of V(t) = det[t_i^(j-1)] depends on t_i alone, and so does the
    factor exp(z t_i) of exp(z (t_1 + ... + t_n)).  Multilinearity in the
    rows (Andreief's identity) then makes the integral of V(t) (sum t)^k
    equal to k! [z^k] det A(z), where A_ij(z) = A_i(j - 1; z) is the moment series
    of _box_integral.  The determinant is a Laplace expansion along the
    rows, memoised on column subsets S of the rows taken so far:

        D(S + {j}) += (-1)^#{s in S : s > j} A_|S|(j) D(S),

    which is n 2^(n-1) - n truncated series products in all, against the
    (n - 1) n! of a pass over the n! terms of the expanded V.
    """
    g = [_coeff(c) for c in g]
    if not g:
        return Fraction(0)
    weights, denominator = _over_one_denominator(
        [c * math.factorial(k) for k, c in enumerate(g)]
    )
    n, top = len(bounds), len(g)
    tables = []  # tables[i][j] = A_ij(z), coefficients of z^0 .. z^K
    for a, b in bounds:
        table, den = _moment_table(a, b, n, top)
        tables.append(table)
        denominator *= den
    # dets[S]: the series of the minor on the first |S| rows and the columns
    # in the bit set S
    dets = {1 << j: row for j, row in enumerate(tables[0])}
    for table in tables[1:]:
        signed = (table, [[-v for v in row] for row in table])
        grown = {}
        for cols, acc in dets.items():
            for j in range(n):
                if not cols >> j & 1:
                    out = grown.setdefault(cols | 1 << j, [0] * top)
                    _series_mul_add(out, acc, signed[(cols >> j).bit_count() & 1][j])
        dets = grown
    (series,) = dets.values()
    return Fraction(sum(w * s for w, s in zip(weights, series)), denominator)
