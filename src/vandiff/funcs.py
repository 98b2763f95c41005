"""Test-function families with closed-form derivatives of every order.

Four families cover the verification suites: exact rational polynomials
(which bridge into the symbolic pipeline), exponentials, sinusoids, and
shifted reciprocals (which stress quadrature when the pole sits near the
integration region).  Differentiation stays inside each family, so the
n-th derivative needed by the integral route is always available in
closed form -- no numerical differentiation anywhere.  Cubature asks a
function once per call to split its translate over the grid T of
trailing-axis sums into separable terms phi_r(s) * G_r(T) (`split`): an
exponential has one, centred so that each factor stays within about the
range of the translate itself, and a sinusoid two, by angle addition.
The grids G_r are fixed for the call, so a block of slabs costs no pass
of f over the grid; a polynomial or reciprocal has no split, and each
slab evaluates it at s + T.

Every family takes a scalar (float, Fraction, numpy scalar) or a numpy
array, and a polynomial a MultiPoly too.  Only the cubature takes the
array branches: it alone loads numpy, as nothing is an array before
numpy is, and it raises their overflow itself, naming f.  A scalar that
overflows raises OverflowError naming f here.

CLI grammar: "poly:c0,c1,..." | "exp:rate" | "sin:freq,phase" | "recip:shift".
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .exact import MultiPoly


class PoleError(ValueError):
    """Evaluation or integration at/across a reciprocal's pole."""


class AnalyticFunction:
    """Base interface: callable, closed-form derivatives, optional pole,
    and an optional split of the translate over a fixed grid into
    separable terms."""

    def derivative(self, k: int = 1) -> "AnalyticFunction":
        raise NotImplementedError

    def __call__(self, x):
        raise NotImplementedError

    def split(self, total, centre: float) -> tuple:
        """The translate over the array `total` as separable terms: pairs
        (phi, grid) with the sum of phi(s) * grid equal to self(s + total),
        up to rounding, for an array s of shifts about `centre`.  A family
        whose translate does not separate has none."""
        return ()

    def pole(self) -> float | None:
        return None

    def describe(self) -> str:
        raise NotImplementedError


def _check_order(k: int) -> None:
    if k < 0:
        raise ValueError("derivative order must be non-negative")


@dataclass(frozen=True)
class Polynomial(AnalyticFunction):
    """sum_i coeffs[i] * x^i with exact rational coefficients, lowest first."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = tuple(Fraction(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def derivative(self, k: int = 1) -> "Polynomial":
        _check_order(k)
        cs = self.coeffs
        for _ in range(k):
            cs = tuple(cs[i] * i for i in range(1, len(cs)))
        return Polynomial(cs)

    def __call__(self, x):
        if isinstance(x, (int, Fraction, MultiPoly)):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        try:
            cs = [float(c) for c in reversed(self.coeffs)]
        except OverflowError:
            raise OverflowError(
                f"{self.describe()} has a coefficient beyond float range"
            ) from None
        np = _numpy_if_array(x)
        acc = 0.0 if np is None else np.zeros_like(x, dtype=float)
        for c in cs:
            acc = acc * x + c
        # a scalar Horner step overflows to inf without an exception
        if np is None and not math.isfinite(acc):
            raise OverflowError(_overflow(self))
        return acc

    def compose(self, inner: MultiPoly) -> MultiPoly:
        """Exact composition self(inner) by Horner in the polynomial ring."""
        return self(inner) if self.coeffs else MultiPoly.zero()

    def describe(self) -> str:
        return "poly:" + ",".join(map(_coefficient, self.coeffs)) if self.coeffs else "poly:0"


@dataclass(frozen=True)
class Exponential(AnalyticFunction):
    """amplitude * exp(rate * x); differentiation rescales the amplitude."""

    rate: float
    amplitude: float = 1.0

    def derivative(self, k: int = 1) -> "Exponential":
        _check_order(k)
        return Exponential(self.rate, self.amplitude * _derivative_factor(self, self.rate, k))

    def __call__(self, x):
        np = _numpy_if_array(x)
        if np is not None:
            return _scaled(self.amplitude, np.exp(_scaled(self.rate, x)))
        try:
            # math.exp(inf) is inf, and a float product overflows silently
            power = self.rate * float(x)
            value = self.amplitude * math.exp(power)
            if not (math.isfinite(power) and math.isfinite(value)):
                raise OverflowError
            return value
        except OverflowError:
            raise OverflowError(_overflow(self)) from None

    def split(self, total, centre: float) -> tuple:
        """amplitude * exp(rate * (s + T)) = exp(rate * (s - c)) * self(T + c)
        with c the centre: one term.  With c amid the shifts, neither
        factor reaches much past the range of the translate itself."""
        np = _numpy_if_array(total)
        return ((lambda s: np.exp(_scaled(self.rate, s - centre)), self(total + centre)),)

    def describe(self) -> str:
        base = f"exp:{_num(self.rate)}"
        return base if self.amplitude == 1.0 else f"{_num(self.amplitude)}*{base}"


@dataclass(frozen=True)
class Sine(AnalyticFunction):
    """amplitude * sin(frequency * x + phase); derivatives shift the phase."""

    frequency: float
    phase: float = 0.0
    amplitude: float = 1.0

    def derivative(self, k: int = 1) -> "Sine":
        _check_order(k)
        return Sine(
            self.frequency,
            self.phase + k * (math.pi / 2),
            self.amplitude * _derivative_factor(self, self.frequency, k),
        )

    def __call__(self, x):
        np = _numpy_if_array(x)
        if np is not None:
            return _scaled(self.amplitude, np.sin(_scaled(self.frequency, x) + self.phase))
        angle = self.frequency * float(x) + self.phase
        if not math.isfinite(angle):  # math.sin(inf) raises a bare ValueError
            raise OverflowError(_overflow(self))
        return self.amplitude * math.sin(angle)

    def split(self, total, centre: float) -> tuple:
        """sin(w(s + T) + p) = sin(wT + p) cos(ws) + cos(wT + p) sin(ws):
        the two grids in T are formed here, and a shift costs cos and sin
        of ws.  Both factors are bounded, so the centre is not used.  A
        non-finite ws raises FloatingPointError naming self."""
        np = _numpy_if_array(total)
        angle = _scaled(self.frequency, total) + self.phase
        a = _scaled(self.amplitude, np.sin(angle))
        b = _scaled(self.amplitude, np.cos(angle))

        def turn(s):
            with np.errstate(over="ignore"):
                ws = _scaled(self.frequency, s)
            if not np.isfinite(ws).all():
                raise FloatingPointError(_overflow(self))
            return ws

        return (lambda s: np.cos(turn(s)), a), (lambda s: np.sin(turn(s)), b)

    def describe(self) -> str:
        base = f"sin:{_num(self.frequency)},{_num(self.phase)}"
        return base if self.amplitude == 1.0 else f"{_num(self.amplitude)}*{base}"


@dataclass(frozen=True)
class Reciprocal(AnalyticFunction):
    """scale / (x - shift)^power; the pole at shift must stay outside use."""

    shift: float
    power: int = 1
    scale: float = 1.0

    def derivative(self, k: int = 1) -> "Reciprocal":
        _check_order(k)
        scale = self.scale
        power = self.power
        for _ in range(k):
            scale *= -power
            power += 1
        return Reciprocal(self.shift, power, scale)

    def __call__(self, x):
        np = _numpy_if_array(x)
        if np is not None:
            base = x - self.shift
            if not base.all():  # a zero, of either sign
                raise PoleError(f"evaluation at the pole {self.shift}")
            # numpy's pow is some 30x slower on negative bases, so this
            # raises |base| and puts the sign back for odd powers
            mag = np.abs(base) ** (-self.power)
            return self.scale * (np.copysign(mag, base) if self.power % 2 else mag)
        base = float(x) - self.shift
        if base == 0.0:
            raise PoleError(f"evaluation at the pole {self.shift}")
        # the power raises OverflowError, but an underflow to 0.0 or a
        # quotient beyond float range passes without an exception
        try:
            value = self.scale / base**self.power
            if not math.isfinite(value):
                raise OverflowError
        except (OverflowError, ZeroDivisionError):
            raise OverflowError(_overflow(self)) from None
        return value

    def pole(self) -> float:
        return self.shift

    def describe(self) -> str:
        base = f"recip:{_num(self.shift)}"
        if self.power != 1 or self.scale != 1.0:
            return f"{_num(self.scale)}*(x-{_num(self.shift)})^-{self.power}"
        return base


def _derivative_factor(f: AnalyticFunction, base: float, k: int) -> float:
    """base**k, the factor the k-th derivative of f gains, or a named error."""
    try:
        return base**k
    except OverflowError:
        raise OverflowError(
            f"derivative {k} of {f.describe()} overflows the float range"
        ) from None


def _numpy_if_array(x):
    """numpy if x is one of its arrays, else None; numpy is not loaded to
    find out, since nothing can be an array before it is."""
    np = sys.modules.get("numpy")
    return np if np is not None and isinstance(x, np.ndarray) else None


def _overflow(f: AnalyticFunction) -> str:
    return f"{f.describe()} overflows the float range"


def _scaled(factor: float, a):
    # x * 1.0 == x bit for bit, so a unit factor costs no pass over the grid
    return a if factor == 1.0 else factor * a


def _coefficient(c: Fraction) -> str:
    # an integer from 1e16 up prints as <digits>e<zeros> where that is
    # shorter (3 zeros or more), as _num does for floats; Fraction parses
    # it back exactly
    text = str(c)
    digits = text.rstrip("0")
    zeros = len(text) - len(digits)
    if zeros > 2 and c.denominator == 1 and abs(c) >= 10**16:
        return f"{digits}e{zeros}"
    return text


def _num(v: float) -> str:
    # repr turns to exponent form at 1e16, where int() would print every digit
    v = float(v)
    return str(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)


def parse_function(text: str) -> AnalyticFunction:
    """Parse the CLI function grammar; raises ValueError on bad input."""
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"expected family:args, got {text!r}")
    try:
        if head == "poly":
            return Polynomial(tuple(Fraction(tok.strip()) for tok in rest.split(",")))
        if head == "exp":
            return Exponential(float(Fraction(rest.strip())))
        if head == "sin":
            parts = [tok.strip() for tok in rest.split(",")]
            if len(parts) == 1:
                parts.append("0")
            if len(parts) != 2:
                raise ValueError("sin takes freq[,phase]")
            return Sine(float(Fraction(parts[0])), float(Fraction(parts[1])))
        if head == "recip":
            return Reciprocal(float(Fraction(rest.strip())))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"cannot parse function {text!r}: {exc}") from exc
    raise ValueError(f"unknown function family {head!r} (poly, exp, sin, recip)")
