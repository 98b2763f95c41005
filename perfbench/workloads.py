"""Seeded inputs and case classes of the three benchmark workloads.

Stdlib only.  The timed worker imports this module to build the inputs it
hands to vandiff, and the parent imports it to rebuild the very same inputs
for its oracles, so neither side needs the other's copy.

A workload is a fixed list of case classes.  One pass runs every class
``count`` times, each time on fresh inputs drawn from ``(seed, workload,
pass, class, repeat)``.  The stream is keyed by a string, which
``random.Random`` hashes through SHA-512, so the draws are stable across
processes and Python versions.  Pass 0 is the untimed warm-up; no input
repeats within a run, except the corollary's, which has no random input.

Cheap classes run several times per pass, so that their medians rest on as
many samples as the expensive ones without lengthening the pass much; a
pass runs the classes round-robin, one repeat of every class at a time.
These repeats only gather samples.  What a class weighs in ``suite_s`` is
its ``weight``: the number of its cases in the suite that ``suite_s``
stands for.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("float-identity", "exact-identity", "lemma-cli")

ORDER = 20
TOLERANCE = 1e-9
FLOAT_FUNCTIONS = {"exp": "exp:1", "sin": "sin:1,0", "recip": "recip:10"}
POLE = 10.0
# The pole of recip:10 keeps at least this distance from [y_1, y_{n+1}],
# the range of the coordinate sum over R(x).  Inside that range the
# integral does not exist; right at its edge the order-20 rule has not
# converged, and the verdict would hinge on the seed.
POLE_MARGIN = 1.0
# Draws whose reciprocal-product sum for f[y] cancels by more than this
# factor (sum of |terms| over |sum|) are drawn again.  Beyond it the table
# route, which the verdict takes as its reference, loses enough digits to
# fail the 1e-9 check on some seeds while the cubature is right (see the
# README); below it the table route stays within ~1e-11.
MAX_CANCELLATION = 1e5
_F = {"exp": math.exp, "sin": math.sin, "recip": lambda z: 1.0 / (z - POLE)}
FLOAT_LO, FLOAT_HI, FLOAT_GAP = -2.0, 3.0, 0.2

LEMMA_GROUPS = (
    "esym-derivative",
    "omega-derivative",
    "pure-derivative",
    "pure-vanish",
    "power-sum-vanish",
    "mixed-sum-vanish",
    "newton",
    "chain-rule",
    "vertex-sum",
    "reduced-vertex-sum",
)
LEMMA_SIZES = (3, 6)
# classes of at most this size make up easy_case_ms
EASY_MAX_N = 3
# runs per pass by n (--n-max for lemma-cli): the cheap classes repeat
FLOAT_COUNTS = {1: 8, 2: 8, 3: 8, 4: 4, 5: 1}
EXACT_COUNTS = {1: 4, 2: 4, 3: 4, 4: 2, 5: 1}
LEMMA_COUNTS = {3: 6, 6: 1}
# Cases per class in the suite that suite_s stands for.  The acceptance
# suite's floating (criterion 2) and exact (criterion 1) checks run 20 point
# sets for every n, each with every function family or every degree, so
# each class there has 20 cases.  lemma-cli stands for one run of each of
# its commands.
SUITE_SETS = 20


@dataclass(frozen=True)
class CaseClass:
    """One kind of operation; a pass runs it `count` times."""

    key: str
    n: int
    count: int  # runs per pass
    weight: int  # cases in the suite that suite_s stands for
    family: str = ""  # float-identity: exp, sin or recip
    degree: int = 0  # exact-identity: polynomial degree
    group: str = ""  # lemma-cli: lemma group, or "corollary"


def case_classes(workload: str) -> list[CaseClass]:
    if workload == "float-identity":
        return [
            CaseClass(f"n{n}.{family}", n, FLOAT_COUNTS[n], SUITE_SETS, family=family)
            for n in range(1, 6)
            for family in FLOAT_FUNCTIONS
        ]
    if workload == "exact-identity":
        return [
            CaseClass(f"n{n}.d{d}", n, EXACT_COUNTS[n], SUITE_SETS, degree=d)
            for n in range(1, 6)
            for d in range(n, n + 5)
        ]
    if workload == "lemma-cli":
        return [
            CaseClass(f"{group}.n{size}", size, LEMMA_COUNTS[size], 1, group=group)
            for size in LEMMA_SIZES
            for group in LEMMA_GROUPS
        ] + [
            CaseClass(f"corollary.n{size}", size, 1, 1, group="corollary")
            for size in LEMMA_SIZES
        ]
    raise ValueError(f"unknown workload {workload!r}")


def schedule(classes: list[CaseClass]) -> list[tuple[CaseClass, int]]:
    """One pass: (class, repeat) pairs, round-robin over the classes."""
    rounds = max(c.count for c in classes)
    return [(c, r) for r in range(rounds) for c in classes if r < c.count]


def cancellation(x, family: str) -> float:
    """Sum of |terms| over |sum| in the reciprocal-product sum of f[y]."""
    total = math.fsum(x)
    ys = [total - v for v in reversed(x)]
    terms = []
    for i, yi in enumerate(ys):
        denom = 1.0
        for j, yj in enumerate(ys):
            if j != i:
                denom *= yi - yj
        terms.append(_F[family](yi) / denom)
    return math.fsum(abs(t) for t in terms) / abs(math.fsum(terms))


def float_points(rng: random.Random, n: int, family: str) -> tuple[float, ...]:
    """n+1 increasing floats in [-2, 3], consecutive gaps above 0.2.

    Sorted uniform draws in a shrunk range, the i-th shifted by i*0.2.  A
    draw is repeated while, for recip, POLE lies within POLE_MARGIN of
    [y_1, y_{n+1}] = [sum x - x_{n+1}, sum x - x_1], or while the
    reciprocal-product sum cancels by more than MAX_CANCELLATION.
    """
    while True:
        raw = sorted(
            rng.uniform(FLOAT_LO, FLOAT_HI - FLOAT_GAP * n) for _ in range(n + 1)
        )
        x = tuple(raw[i] + i * FLOAT_GAP for i in range(n + 1))
        if any(b - a <= FLOAT_GAP for a, b in zip(x, x[1:])):
            continue
        total = sum(x)
        lo, hi = total - x[-1], total - x[0]
        if family == "recip" and lo - POLE_MARGIN <= POLE <= hi + POLE_MARGIN:
            continue
        if cancellation(x, family) <= MAX_CANCELLATION:
            return x


def _nonzero_fraction(rng: random.Random, max_abs: int) -> Fraction:
    # zero numerators would thin out the polynomials and make the work
    # per class depend on the seed
    while True:
        p = rng.randint(-max_abs, max_abs)
        if p:
            return Fraction(p, rng.randint(1, max_abs))


def exact_input(rng: random.Random, n: int, degree: int):
    """n+1 increasing rationals (|p|, q <= 100) and degree+1 nonzero
    rational coefficients (|p|, q <= 10), lowest first."""
    points: set[Fraction] = set()
    while len(points) < n + 1:
        points.add(Fraction(rng.randint(-100, 100), rng.randint(1, 100)))
    coeffs = tuple(_nonzero_fraction(rng, 10) for _ in range(degree + 1))
    return tuple(sorted(points)), coeffs


def lemma_argv(rng: random.Random, cls: CaseClass) -> list[str]:
    if cls.group == "corollary":
        # no random input: this command repeats on every pass
        return ["corollary", "--n-max", str(cls.n)]
    seed = rng.randrange(1, 2**31)
    return [
        "verify-lemmas",
        "--only",
        cls.group,
        "--seed",
        str(seed),
        "--n-max",
        str(cls.n),
    ]


def case_input(workload: str, cls: CaseClass, seed: int, pass_index: int, repeat: int):
    """The plain-data input of one case: points, (points, coefficients)
    or a CLI argument list."""
    rng = random.Random(f"{seed}:{workload}:{pass_index}:{cls.key}:{repeat}")
    if workload == "float-identity":
        return float_points(rng, cls.n, cls.family)
    if workload == "exact-identity":
        return exact_input(rng, cls.n, cls.degree)
    return lemma_argv(rng, cls)
