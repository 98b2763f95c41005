"""Checks of vandiff's outputs against computations made apart from it.

Nothing here imports vandiff.  Each check takes a case's plain input (as
``workloads.case_input`` builds it) and the output the worker recorded, and
returns None when the output is right or a one-line reason when it is not.

* float-identity: a 40-digit mpmath value of V(x) * f[y], the divided
  difference taken by the reciprocal-product sum; lhs and rhs must both lie
  within the paper's 1e-9 relative of it.
* exact-identity: the same sum in plain ``Fraction`` arithmetic, which must
  equal both exact sides.
* lemma-cli: exit code 0; every stdout line is JSON with NaN and Infinity
  rejected and says ``passed``; the report names are the ones the suite's
  definition implies; corollary sides for n <= 3 equal sympy's own integral
  of V over R(x).

``self_test`` feeds each check perturbed copies of a real output and
reports every perturbation the check failed to reject.
"""

from __future__ import annotations

import json
from fractions import Fraction

import workloads

CASES = 10  # the CLI's default --cases: samples per random lemma case


# -- float-identity -----------------------------------------------------------


def float_reference(x, family: str):
    """V(x) * f[y] at 40 digits, with y_i = sum(x) - x_{n+2-i}."""
    import mpmath

    with mpmath.workdps(40):
        xs = [mpmath.mpf(v) for v in x]  # the binary values, exactly
        total = mpmath.fsum(xs)
        ys = [total - v for v in reversed(xs)]
        f = {
            "exp": mpmath.exp,
            "sin": mpmath.sin,
            "recip": lambda z: 1 / (z - workloads.POLE),
        }[family]
        v = mpmath.mpf(1)
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                v *= xs[j] - xs[i]
        dd = mpmath.mpf(0)
        for i, yi in enumerate(ys):
            denom = mpmath.mpf(1)
            for j, yj in enumerate(ys):
                if j != i:
                    denom *= yi - yj
            dd += f(yi) / denom
        return v * dd


def check_float(x, family: str, output: dict):
    import mpmath

    ref = float_reference(x, family)
    for side in ("lhs", "rhs"):
        value = output[side]
        if not isinstance(value, float):
            return f"{side} is {value!r}, not a float"
        rel = abs((mpmath.mpf(value) - ref) / ref)
        if not rel <= workloads.TOLERANCE:
            return f"{side}={value!r} is {mpmath.nstr(rel, 3)} relative from {mpmath.nstr(ref, 17)}"
    return None


# -- exact-identity -------------------------------------------------------------


def exact_reference(points, coeffs) -> Fraction:
    """V(x) * f[y] in Fraction arithmetic, f by Horner on its coefficients."""

    def f(z):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    total = sum(points, Fraction(0))
    ys = [total - v for v in reversed(points)]
    v = Fraction(1)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            v *= points[j] - points[i]
    dd = Fraction(0)
    for i, yi in enumerate(ys):
        denom = Fraction(1)
        for j, yj in enumerate(ys):
            if j != i:
                denom *= yi - yj
        dd += f(yi) / denom
    return v * dd


def check_exact(case_input, output: dict):
    ref = exact_reference(*case_input)
    for side in ("lhs", "rhs"):
        try:
            value = Fraction(output[side])
        except (TypeError, ValueError) as exc:
            return f"{side}={output[side]!r} is not a rational: {exc}"
        if value != ref:
            return f"{side}={value} differs from {ref}"
    return None


# -- lemma-cli ----------------------------------------------------------------------


def expected_names(group: str, n_max: int) -> list[str]:
    """Report names, in order, that the lemma suite's definition implies."""
    small = range(1, min(n_max, 4) + 1)
    if group == "esym-derivative":
        return [f"{group}[m={m},k={k}]" for m in range(1, n_max + 1) for k in range(1, m + 1)]
    if group == "omega-derivative":
        return [f"{group}[m={m},k={k}]" for m in range(n_max + 1) for k in range(m + 1)]
    if group == "pure-derivative":
        return [f"{group}[n={n},k={k}]" for n in range(2, n_max + 1) for k in range(1, n)]
    if group == "pure-vanish":
        return [f"{group}[n={n}]" for n in range(1, n_max + 1)]
    if group in ("power-sum-vanish", "mixed-sum-vanish"):
        return [f"{group}[n={n},k={k}]" for n in range(1, n_max + 1) for k in range(1, n + 1)]
    if group == "newton":
        return [f"{group}[n={n},k={k}]" for n in small for k in range(1, n + 1)]
    if group == "chain-rule":
        return [
            f"{group}[n={n},case={c}]" for n in small for c in [*range(CASES), "vandermonde"]
        ]
    if group in ("vertex-sum", "reduced-vertex-sum"):
        return [f"{group}[n={n},case={c}]" for n in small for c in range(CASES)]
    if group == "corollary":
        return ["vandermonde-volume"] * n_max
    raise ValueError(f"unknown lemma group {group!r}")


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in JSON output")


class VolumeOracle:
    """sympy's iterated integral of V(t) over R(x), expanded, per n."""

    def __init__(self):
        self._refs = {}
        self._verified: set[tuple[int, str]] = set()

    def reference(self, n: int):
        if n not in self._refs:
            import sympy

            t = sympy.symbols(f"t1:{n + 1}")
            x = sympy.symbols(f"x1:{n + 2}")
            v = sympy.Integer(1)
            for i in range(n):
                for j in range(i + 1, n):
                    v *= t[j] - t[i]
            for i in range(n):
                v = sympy.integrate(v, (t[i], x[i], x[i + 1]))
            self._refs[n] = sympy.expand(v)
        return self._refs[n]

    def check(self, n: int, text: str):
        # corollary output repeats on every pass; sympy checks each text once
        if (n, text) in self._verified:
            return None
        import sympy

        parsed = sympy.sympify(text.replace("^", "**"))
        if sympy.expand(parsed - self.reference(n)) != 0:
            return f"n={n}: {text} is not sympy's integral of V over R(x)"
        self._verified.add((n, text))
        return None


def check_lemma(argv: list[str], output: dict, volume: VolumeOracle):
    if output["code"] != 0:
        return f"exit code {output['code']}"
    group = "corollary" if argv[0] == "corollary" else argv[argv.index("--only") + 1]
    n_max = int(argv[argv.index("--n-max") + 1])
    records = []
    for line in output["stdout"].splitlines():
        try:
            records.append(json.loads(line, parse_constant=_reject_constant))
        except ValueError as exc:
            return f"stdout line is not strict JSON ({exc}): {line[:80]}"
    names = [r.get("name") for r in records]
    if names != expected_names(group, n_max):
        return f"{group} --n-max {n_max}: {len(names)} reports {names[:3]}..., not the suite's"
    for r in records:
        if r.get("passed") is not True:
            return f"{r.get('name')}: passed is {r.get('passed')!r}"
        if r.get("abs_err") != 0 or r.get("lhs") != r.get("rhs"):
            return f"{r['name']}: exact sides differ"
        if group == "corollary":
            if r.get("n") > 3:
                continue
            problem = volume.check(r["n"], r["lhs"])
            if problem:
                return problem
        elif r.get("seed") != int(argv[argv.index("--seed") + 1]):
            return f"{r['name']}: seed {r.get('seed')!r} is not the one passed"
    return None


# -- dispatch and self-test -----------------------------------------------------------


class Checker:
    """Checks every recorded case of one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.volume = VolumeOracle() if workload == "lemma-cli" else None

    def check(self, cls, case_input, output: dict):
        if self.workload == "float-identity":
            return check_float(case_input, cls.family, output)
        if self.workload == "exact-identity":
            return check_exact(case_input, output)
        return check_lemma(case_input, output, self.volume)


def perturbations(workload: str, output: dict) -> list[tuple[str, dict]]:
    """Wrong copies of a right output, which the workload's check must reject."""
    if workload == "float-identity":
        return [
            ("lhs * (1 + 1e-6)", dict(output, lhs=output["lhs"] * (1 + 1e-6))),
            ("rhs * (1 + 1e-6)", dict(output, rhs=output["rhs"] * (1 + 1e-6))),
        ]
    if workload == "exact-identity":
        off = Fraction(1, 10**6)
        return [
            ("lhs + 1/10^6", dict(output, lhs=str(Fraction(output["lhs"]) + off))),
            ("rhs + 1/10^6", dict(output, rhs=str(Fraction(output["rhs"]) + off))),
        ]
    first, _, rest = output["stdout"].partition("\n")
    out = [
        ("passed flipped", first.replace('"passed":true', '"passed":false', 1)),
        ("abs_err NaN", first.replace('"abs_err":0.0', '"abs_err":NaN', 1)),
        ("first report dropped", None),
    ]
    if '"vandermonde-volume"' in first:
        # both sides become -x1 + x3, which is not the integral over [x1, x2]
        out.append(("corollary sides changed", first.replace("x2", "x3")))
    return [
        (label, dict(output, stdout=rest if line is None else line + "\n" + rest))
        for label, line in out
    ]


def self_test(checker: Checker, cls, case_input, output: dict) -> list[str]:
    """Problems found: a right output rejected, or a perturbed one accepted."""
    problems = []
    reason = checker.check(cls, case_input, output)
    if reason is not None:
        problems.append(f"self-test: the unperturbed {cls.key} output is rejected: {reason}")
    for label, wrong in perturbations(checker.workload, output):
        if checker.check(cls, case_input, wrong) is None:
            problems.append(f"self-test: {cls.key} with {label} is accepted")
    return problems
