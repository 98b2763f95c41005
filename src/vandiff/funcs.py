"""Test-function families with closed-form derivatives of every order.

Four families cover the verification suites: exact rational polynomials
(which bridge into the symbolic pipeline), exponentials, sinusoids, and
shifted reciprocals (which stress quadrature when the pole sits near the
integration region).  Differentiation stays inside each family, so the
n-th derivative needed by the integral route is always available in
closed form -- no numerical differentiation anywhere.

CLI grammar: "poly:c0,c1,..." | "exp:rate" | "sin:freq,phase" | "recip:shift".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import MultiPoly


class PoleError(ValueError):
    """Evaluation or integration at/across a reciprocal's pole."""


class AnalyticFunction:
    """Base interface: callable, closed-form derivatives, optional pole."""

    def derivative(self, k: int = 1) -> "AnalyticFunction":
        raise NotImplementedError

    def __call__(self, x):
        raise NotImplementedError

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
        if isinstance(x, np.ndarray):
            acc = np.zeros_like(x, dtype=float)
            for c in reversed(self.coeffs):
                acc = acc * x + float(c)
            return acc
        exact = isinstance(x, (int, Fraction))
        acc = Fraction(0) if exact else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + (c if exact else float(c))
        return acc

    def compose(self, inner: MultiPoly) -> MultiPoly:
        """Exact composition self(inner) by Horner in the polynomial ring."""
        acc = MultiPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def describe(self) -> str:
        return "poly:" + ",".join(str(c) for c in self.coeffs) if self.coeffs else "poly:0"


@dataclass(frozen=True)
class Exponential(AnalyticFunction):
    """amplitude * exp(rate * x); differentiation rescales the amplitude."""

    rate: float
    amplitude: float = 1.0

    def derivative(self, k: int = 1) -> "Exponential":
        _check_order(k)
        return Exponential(self.rate, self.amplitude * self.rate**k)

    def __call__(self, x):
        # errstate is per thread, so it is set here, where cubature
        # workers evaluate the array
        try:
            if isinstance(x, np.ndarray):
                with np.errstate(over="raise"):
                    return self.amplitude * np.exp(self.rate * x)
            return self.amplitude * math.exp(self.rate * float(x))
        except (OverflowError, FloatingPointError):
            raise OverflowError(f"{self.describe()} overflows the float range") from None

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
            self.amplitude * self.frequency**k,
        )

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            return self.amplitude * np.sin(self.frequency * x + self.phase)
        return self.amplitude * math.sin(self.frequency * float(x) + self.phase)

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
        if isinstance(x, np.ndarray):
            base = x - self.shift
            if np.any(base == 0.0):
                raise PoleError(f"evaluation at the pole {self.shift}")
            return self.scale * base ** (-self.power)
        base = float(x) - self.shift
        if base == 0.0:
            raise PoleError(f"evaluation at the pole {self.shift}")
        return self.scale / base**self.power

    def pole(self) -> float:
        return self.shift

    def describe(self) -> str:
        base = f"recip:{_num(self.shift)}"
        if self.power != 1 or self.scale != 1.0:
            return f"{_num(self.scale)}*(x-{_num(self.shift)})^-{self.power}"
        return base


def _num(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


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
