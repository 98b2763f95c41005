"""Command-line front end.

Commands
--------
divdiff        divided difference of f at given points (table route, or the
               integral route with --via-integral; --check compares both)
integral       the rectangle integral of V(t) * f^(n)(coordinate sum)
theorem1       verify the integral against V(x) times the divided difference
corollary      fully symbolic volume identity for n = 1..n_max
verify-lemmas  the exact lemma suite (alias: lemmas)
transform      the point transform y from x, or x from y with --inverse

Output goes to stdout, one JSON object per line by default (also csv or
text); diagnostics go to stderr, one line each.  Exit codes: 0 all checks
passed, 1 a verification failed, 2 usage, parse, or infeasible-input
errors, such as a symbolic dimension n above 7.

A command that takes --order, --tolerance, --budget or --seed takes its
default from VANDIFF_ORDER, VANDIFF_TOLERANCE, VANDIFF_BUDGET or
VANDIFF_SEED when that is set, and an explicit flag beats it; a command
without the option never reads the variable.  Worker count never
influences output bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import warnings

from .divdiff import ConditioningWarning, divided_difference
from .funcs import parse_function
from .identity import (
    DEFAULT_ORDER,
    DEFAULT_SEED,
    DEFAULT_TOLERANCE,
    LEMMA_GROUPS,
    _float_verdict,
    _require_n_max,
    check_identity_exact,
    check_identity_numeric,
    check_volume_symbolic,
    divided_difference_via_integral,
    exact_integral_value,
    json_value,
    run_lemma_suite,
    suite_passed,
)
from .points import parse_points, x_from_y, y_from_x
from .quad import BudgetExceededError, DEFAULT_BUDGET, integral_side
from .symfun import vandermonde_product

def budget(text: str) -> int:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("budget must be finite")
    return int(value)


def tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError("tolerance must be finite and non-negative")
    return value


# option -> (environment variable, parser, default) for each option whose
# default the environment may override
_ENV_OPTIONS = {
    "order": ("VANDIFF_ORDER", int, DEFAULT_ORDER),
    "tolerance": ("VANDIFF_TOLERANCE", tolerance, DEFAULT_TOLERANCE),
    "budget": ("VANDIFF_BUDGET", budget, DEFAULT_BUDGET),
    "seed": ("VANDIFF_SEED", int, DEFAULT_SEED),
}


def _fill_from_environment(args) -> None:
    """Give each option of the chosen command that the command line left
    unset the value of its environment variable, or else its default.  A
    set variable must parse even when the flag is given."""
    for dest, (name, cast, value) in _ENV_OPTIONS.items():
        if not hasattr(args, dest):
            continue
        raw = os.environ.get(name)
        if raw is not None:
            try:
                value = cast(raw)
            except ValueError:
                raise ValueError(
                    f"environment variable {name} has invalid value {raw!r}"
                ) from None
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vandiff",
        description="Evaluate and cross-verify divided differences and "
        "their rectangle-integral representation.",
    )
    # option groups, each declared once; a command takes those it reads
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=("json", "csv", "text"),
        default="json",
        help="output format (default json, one object per line)",
    )
    cubature = argparse.ArgumentParser(add_help=False)
    cubature.add_argument("--order", type=int, help="quadrature nodes per axis")
    cubature.add_argument(
        "--budget", type=budget, help="maximum total quadrature evaluations"
    )
    cubature.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel workers for cubature, at least 1 (never changes output)",
    )
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument(
        "--tolerance", type=tolerance, help="relative tolerance for floating checks"
    )
    integrand = argparse.ArgumentParser(add_help=False)
    integrand.add_argument("--x", required=True, help="comma-separated points x")
    integrand.add_argument("--function", required=True, help="e.g. poly:0,0,1 or exp:1")
    integrand.add_argument(
        "--symbolic",
        action="store_true",
        help="exact pipeline (rational x, polynomial f)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "divdiff",
        parents=[fmt, cubature, tol],
        help="divided difference at the given points",
    )
    p.add_argument("--points", required=True, help="comma-separated points")
    p.add_argument("--function", required=True, help="e.g. poly:0,0,1 or exp:1")
    p.add_argument(
        "--via-integral",
        action="store_true",
        help="use the rectangle-integral route instead of the table",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="run both routes and verify they agree",
    )
    p.set_defaults(func=cmd_divdiff)

    p = sub.add_parser(
        "integral",
        parents=[fmt, cubature, integrand],
        help="integral of V(t) * f^(n)(t_1+...+t_n) over R(x)",
    )
    p.set_defaults(func=cmd_integral)

    p = sub.add_parser(
        "theorem1",
        parents=[fmt, cubature, tol, integrand],
        help="verify the integral equals V(x) times the divided difference",
    )
    p.set_defaults(func=cmd_theorem1)

    p = sub.add_parser(
        "corollary",
        parents=[fmt],
        help="symbolic volume identity for each n up to --n-max",
    )
    p.add_argument("--n-max", type=int, default=5)
    p.set_defaults(func=cmd_corollary)

    p = sub.add_parser(
        "verify-lemmas",
        aliases=["lemmas"],
        parents=[fmt],
        help="run the exact lemma suite",
    )
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument(
        "--only",
        default=None,
        help="comma-separated subset of groups: " + ", ".join(LEMMA_GROUPS),
    )
    p.add_argument("--seed", type=int)
    p.add_argument("--cases", type=int, default=10, help="samples per random case")
    p.set_defaults(func=cmd_verify_lemmas)

    p = sub.add_parser(
        "transform",
        parents=[fmt, tol],
        help="the sum-complement point transform and its inverse",
    )
    p.add_argument("--x", default=None)
    p.add_argument("--y", default=None)
    p.add_argument("--inverse", action="store_true", help="map y back to x")
    p.add_argument(
        "--symbolic",
        action="store_true",
        help="treat inputs as exact rationals",
    )
    p.set_defaults(func=cmd_transform)

    return parser


# -- output ---------------------------------------------------------------------


def _encode(v) -> str:
    # JSON-encode everything but bare strings, so csv and text cells spell
    # booleans and null as the json format does.  NaN and Infinity are not
    # JSON: a non-finite value raises ValueError, which main turns into exit 2
    return v if isinstance(v, str) else json.dumps(
        v, separators=(",", ":"), allow_nan=False
    )


def _emit(records: list[dict], fmt: str) -> None:
    """Render every record first and write only then, so a record that
    cannot be rendered leaves stdout empty."""
    records = [json_value(rec) for rec in records]
    if fmt == "json":
        text = "".join(_encode(rec) + "\n" for rec in records)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if records:
            keys = list(records[0])
            writer.writerow(keys)
            writer.writerows([_encode(rec.get(k)) for k in keys] for rec in records)
        text = buf.getvalue()
    else:
        text = "".join(
            "  ".join(f"{k}={_encode(v)}" for k, v in rec.items()) + "\n"
            for rec in records
        )
    sys.stdout.write(text)


# -- command handlers -------------------------------------------------------------


def cmd_divdiff(args) -> int:
    points = parse_points(args.points)
    f = parse_function(args.function)
    table_value = float(divided_difference(points, f))
    record = {
        "name": "divided-difference",
        "points": list(points.values),
        "function": f.describe(),
    }
    passed = True
    if args.check or args.via_integral:
        via = divided_difference_via_integral(
            points, f, args.order, workers=args.workers, budget=args.budget
        )
    if args.check:
        abs_err, rel_err, passed = _float_verdict(via, table_value, args.tolerance)
        record.update(
            name="divided-difference-route-check",
            table=table_value,
            integral=via,
            abs_err=abs_err,
            rel_err=rel_err,
            tolerance=args.tolerance,
            passed=passed,
        )
    elif args.via_integral:
        record.update(route="integral", order=args.order, value=via)
    else:
        record.update(route="table", value=table_value)
    _emit([record], args.format)
    return 0 if passed else 1


def cmd_integral(args) -> int:
    x = parse_points(args.x, exact=args.symbolic)
    f = parse_function(args.function)
    record = {
        "name": "integral-side",
        "n": x.n,
        "pipeline": "exact" if args.symbolic else "floating",
        "points": list(x.values),
        "function": f.describe(),
    }
    if args.symbolic:
        record["value"] = exact_integral_value(x, f)
    else:
        result = integral_side(
            x, f, args.order, workers=args.workers, budget=args.budget
        )
        record.update(
            order=args.order,
            evaluations=result.function_evaluations,
            value=result.value,
        )
    _emit([record], args.format)
    return 0


def cmd_theorem1(args) -> int:
    # validate points first so their message wins over function errors
    x = parse_points(args.x, exact=args.symbolic)
    f = parse_function(args.function)
    if args.symbolic:
        report = check_identity_exact(x, f)
    else:
        report = check_identity_numeric(
            x,
            f,
            args.order,
            args.tolerance,
            workers=args.workers,
            budget=args.budget,
        )
    _emit([report.to_dict()], args.format)
    return 0 if report.passed else 1


def cmd_corollary(args) -> int:
    _require_n_max(args.n_max)
    reports = [check_volume_symbolic(n) for n in range(1, args.n_max + 1)]
    _emit([r.to_dict() for r in reports], args.format)
    return 0 if suite_passed(reports) else 1


def cmd_verify_lemmas(args) -> int:
    groups = None
    if args.only is not None:
        groups = tuple(g.strip() for g in args.only.split(",") if g.strip())
    reports = run_lemma_suite(
        args.n_max, groups=groups, seed=args.seed, cases=args.cases
    )
    _emit([r.to_dict() for r in reports], args.format)
    return 0 if suite_passed(reports) else 1


def cmd_transform(args) -> int:
    if args.inverse:
        direction, text, missing = "inverse", args.y, "--inverse needs --y"
    else:
        direction, text, missing = "forward", args.x, "forward transform needs --x"
    if text is None:
        raise ValueError(missing)
    source = parse_points(text, exact=args.symbolic)
    x_seq, y_seq = (
        (x_from_y(source), source) if args.inverse else (source, y_from_x(source))
    )
    vx = vandermonde_product(x_seq.values)
    vy = vandermonde_product(y_seq.values)
    if x_seq.is_exact:
        equal = vx == vy
    else:
        equal = math.isclose(vx, vy, rel_tol=args.tolerance, abs_tol=1e-12)
    record = {
        "name": "transform",
        "direction": direction,
        "n": source.n,
        "x": list(x_seq.values),
        "y": list(y_seq.values),
        "vandermonde_x": vx,
        "vandermonde_y": vy,
        "equal": equal,
    }
    _emit([record], args.format)
    return 0 if equal else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    show = warnings.showwarning

    def one_line(message, category, *rest):
        if not issubclass(category, ConditioningWarning):
            return show(message, category, *rest)
        print(f"warning: {message}", file=sys.stderr)

    try:
        with warnings.catch_warnings():
            warnings.showwarning = one_line
            _fill_from_environment(args)
            if getattr(args, "workers", 1) < 1:
                raise ValueError(f"--workers must be at least 1, got {args.workers}")
            return args.func(args)
    except (ValueError, TypeError, OverflowError, BudgetExceededError) as exc:
        # covers parse errors, non-increasing points, symbolic caps, poles
        # inside the domain, infeasible order/dimension requests, values
        # beyond float range, and non-finite output
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
