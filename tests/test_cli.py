"""Black-box CLI tests through `python -m vandiff`, and a count of the
options each command's parser takes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from vandiff import cli
from vandiff.cli import build_parser, main
from vandiff.identity import LEMMA_GROUPS

BASE = [sys.executable, "-m", "vandiff"]


def run_cli(*argv, env_extra=None, binary=False, timeout=None):
    env = dict(os.environ)
    env.pop("VANDIFF_ORDER", None)
    env.pop("VANDIFF_TOLERANCE", None)
    env.pop("VANDIFF_SEED", None)
    env.pop("VANDIFF_BUDGET", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        BASE + list(argv),
        capture_output=True,
        text=not binary,
        env=env,
        timeout=timeout,
    )


def json_lines(proc):
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


# -- divdiff ------------------------------------------------------------------------


def test_divdiff_square_at_123():
    proc = run_cli("divdiff", "--points", "1,2,3", "--function", "poly:0,0,1")
    assert proc.returncode == 0, proc.stderr
    (rec,) = json_lines(proc)
    assert rec["name"] == "divided-difference"
    assert rec["route"] == "table"
    assert rec["value"] == 1.0


def test_divdiff_exponential():
    proc = run_cli("divdiff", "--points", "0,1", "--function", "exp:1")
    (rec,) = json_lines(proc)
    assert rec["value"] == pytest.approx(math.e - 1, rel=1e-14)


def test_divdiff_constant_vanishes():
    proc = run_cli("divdiff", "--points", "0,1,2,5", "--function", "poly:5")
    (rec,) = json_lines(proc)
    assert rec["value"] == 0.0


def test_exp_overflow_names_the_function():
    # a child process, so numpy's warning text would reach stderr here
    proc = run_cli("integral", "--x", "0,1,2", "--function", "exp:800")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: the cubature for exp:800 overflows the float range\n"


@pytest.mark.parametrize("points", ["175,176,177,178,179", "139,140,141,142,143,144"])
def test_exp_overflow_past_the_split_edge_names_the_function(points):
    # one unit past the points where the centred split of exp:1 is still
    # finite at n = 4 and 5 (tests/test_quad.py)
    proc = run_cli("integral", "--x", points, "--function", "exp:1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: the cubature for exp:1 overflows the float range\n"


@pytest.mark.parametrize(
    "argv, name",
    [
        # math.sin(inf) raised a bare ValueError
        (["divdiff", "--points", "0,1,2", "--function", "sin:1e308,0"], "sin:1e+308,0"),
        (["divdiff", "--points", "0,1,2", "--function", "sin:1e308,0", "--check"], "sin:1e+308,0"),
        # the integral route is the only one that runs, and it overflows
        # on the derivative, not on f
        pytest.param(
            ["divdiff", "--points", "0,1,2", "--function", "sin:1e308,0", "--via-integral"],
            "derivative 2 of sin:1e+308,0",
            id="argv2-sin:1e+308,0",
        ),
        (
            ["divdiff", "--points", "0,1,2", "--function", "sin:1e308,0", "--format", "csv"],
            "sin:1e+308,0",
        ),
        # math.exp(inf) is inf, which reached the JSON encoder
        (["divdiff", "--points", "0,2", "--function", "exp:1e308"], "exp:1e+308"),
        # so was 1 / -1e-310, and 1 / 5e-324
        (["divdiff", "--points", "0,1,2", "--function", "recip:1e-310"], "recip:1e-310"),
        (["divdiff", "--points", "0,1,2", "--function", "recip:5e-324"], "recip:5e-324"),
        # so was a float Horner step of a polynomial
        (["divdiff", "--points", "0,1e200", "--function", "poly:0,0,1"], "poly:0,0,1"),
        (
            ["divdiff", "--points", "1,2,3", "--function", "poly:0,0,1e308"],
            "poly:0,0,1e308",
        ),
    ],
)
def test_scalar_overflow_names_the_function(argv, name):
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {name} overflows the float range\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["divdiff", "--points", "0,1e-7,1", "--function", "exp:1"],
        ["theorem1", "--x", "0,1e-7,1", "--function", "exp:1"],
    ],
)
def test_clustering_warning_is_one_stderr_line(argv):
    proc = run_cli(*argv)
    assert proc.returncode in (0, 1)
    assert len(json_lines(proc)) == 1
    (line,) = proc.stderr.splitlines()
    assert line.startswith("warning: minimum point gap 1")
    assert line.endswith(" is below 1e-06 of the span 1.0")


def run_main_merged(*argv):
    """cli.main in-process with stdout and stderr in one buffer, so the
    order of the record and the note shows."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = main(list(argv))
    return code, buf.getvalue().splitlines()


NOTE = "warning: minimum point gap 1e-07 is below 1e-06 of the span 1.0"


@pytest.mark.parametrize(
    "argv",
    [
        ["divdiff", "--points=0,1e-7,1", "--function=exp:1"],
        ["divdiff", "--points=0,1e-7,1", "--function=exp:1", "--check"],
        ["divdiff", "--points=0,1e-7,1", "--function=exp:1", "--check", "--via-integral"],
        ["divdiff", "--points=0,1e-7,1", "--function=exp:1", "--format=csv"],
        # the note quotes x, whose gaps are those of y in reverse order
        ["theorem1", "--x=0,1e-7,1", "--function=exp:1"],
    ],
)
def test_clustering_note_follows_the_record(monkeypatch, argv):
    for name in ("VANDIFF_ORDER", "VANDIFF_TOLERANCE", "VANDIFF_SEED", "VANDIFF_BUDGET"):
        monkeypatch.delenv(name, raising=False)
    code, lines = run_main_merged(*argv)
    assert code in (0, 1)
    assert lines[-1] == NOTE
    assert lines[:-1] and not any(line.startswith("warning") for line in lines[:-1])


@pytest.mark.parametrize(
    "argv",
    [
        ["divdiff", "--points=0,1e-7,1", "--function=exp:1", "--via-integral"],
        ["integral", "--x=0,1e-7,1", "--function=exp:1"],
        ["integral", "--symbolic", "--x=0,1/10000000,1", "--function=poly:0,0,1"],
        ["theorem1", "--symbolic", "--x=0,1/10000000,1", "--function=poly:0,0,1"],
        ["transform", "--x=0,1e-7,1"],
        ["transform", "--inverse", "--y=0,1e-7,1"],
        ["divdiff", "--points=0,0.5,1", "--function=exp:1", "--check"],
        ["theorem1", "--x=0,0.5,1", "--function=exp:1"],
    ],
)
def test_no_clustering_note(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 0 and proc.stdout
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        # the table ran on clustered points, but a failing run prints only
        # its error
        (
            ["divdiff", "--points=0,1e-9,1", "--function=recip:0.5", "--check"],
            "pole 0.5 lies inside the coordinate-sum range [0.0, 1.0]",
        ),
        # x mapped back from increasing y round together
        (
            ["divdiff", "--points=0,1e-9,1e150", "--function=poly:0,0,1", "--check"],
            "the transformed points x coincide in floating point for y = 0.0,1e-09,1e+150",
        ),
        (
            ["divdiff", "--points=0,1e-9,1e150", "--function=poly:0,0,1", "--via-integral"],
            "the transformed points x coincide in floating point for y = 0.0,1e-09,1e+150",
        ),
        (
            ["transform", "--inverse", "--y", "0,1,1e17"],
            "the transformed points x coincide in floating point for y = 0.0,1.0,1e+17",
        ),
        # --via-integral runs only the integral route, so its errors come
        # from there
        (
            ["divdiff", "--points=0,1,2", "--function=recip:1e-310", "--via-integral"],
            "pole 1e-310 lies inside the coordinate-sum range [0.0, 2.0]",
        ),
        # the x mapped back from y put the coordinate-sum range at
        # [1.1e-16, 1.0], past the pole at y_1
        (
            ["divdiff", "--points=0,0.3,1", "--function=recip:0", "--via-integral"],
            "pole 0.0 lies inside the coordinate-sum range [0.0, 1.0]",
        ),
        # math.fsum's own text named no input; the integral route sums y
        (
            ["transform", "--x", "1e308,1.5e308"],
            "the sum of x = 1e+308,1.5e+308 is beyond float range",
        ),
        (
            ["transform", "--inverse", "--y", "1e308,1.5e308"],
            "the sum of y = 1e+308,1.5e+308 is beyond float range",
        ),
        (
            ["integral", "--x", "1e308,1.5e308", "--function", "recip:0"],
            "the sum of x = 1e+308,1.5e+308 is beyond float range",
        ),
        (
            ["divdiff", "--points", "1e308,1.5e308", "--function", "poly:0,1", "--check"],
            "the sum of y = 1e+308,1.5e+308 is beyond float range",
        ),
        # n * y_i overflows although the sum of y is 0
        (
            ["transform", "--inverse", "--y=-1e308,0,1e308"],
            "the transformed points x of y = -1e+308,0.0,1e+308 are beyond float range",
        ),
        # y_3 = 2.5e308
        (
            ["transform", "--x=-1e308,1e308,1.5e308"],
            "the transformed points y of x = -1e+308,1e+308,1.5e+308 are beyond float range",
        ),
        # every point is finite, and V(x) is not
        (
            ["transform", "--x=-1e308,0,1e308"],
            "the difference product of x = -1e+308,0.0,1e+308 is beyond float range",
        ),
    ],
)
def test_failing_run_prints_only_its_error(argv, message):
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def test_other_warnings_pass_through_main(monkeypatch):
    def command_warning(category):
        def command(args):
            warnings.warn("not about clustering", category)
            return 0

        return command

    monkeypatch.setattr(cli, "cmd_transform", command_warning(UserWarning))
    with pytest.warns(UserWarning, match="not about clustering"):
        assert main(["transform", "--x", "0,1"]) == 0
    # the test configuration turns RuntimeWarning into an error
    monkeypatch.setattr(cli, "cmd_transform", command_warning(RuntimeWarning))
    with pytest.raises(RuntimeWarning):
        main(["transform", "--x", "0,1"])


def test_divdiff_via_integral_route():
    proc = run_cli(
        "divdiff", "--points", "1,2,3", "--function", "poly:0,0,1", "--via-integral"
    )
    assert proc.returncode == 0
    (rec,) = json_lines(proc)
    assert rec["route"] == "integral"
    assert rec["value"] == pytest.approx(1.0, abs=1e-12)


def test_divdiff_check_compares_routes():
    proc = run_cli("divdiff", "--points", "1,2,3", "--function", "exp:1", "--check")
    assert proc.returncode == 0, proc.stderr
    (rec,) = json_lines(proc)
    assert rec["name"] == "divided-difference-route-check"
    assert rec["passed"] is True
    assert rec["rel_err"] <= rec["tolerance"]


def test_divdiff_check_uses_library_verdict():
    # the table value is about -6.5e-34, below the zero guard, so the
    # verdict tests the absolute error (2.8e-11 at order 8) against 1e-12
    proc = run_cli(
        "divdiff",
        "--points=0,3.141592653589793,9.42477796076938",
        "--function",
        "sin:1",
        "--check",
        "--order",
        "8",
    )
    assert proc.returncode == 1, proc.stderr
    (rec,) = json_lines(proc)
    assert rec["passed"] is False
    assert abs(rec["table"]) < 1e-14
    assert rec["rel_err"] == rec["abs_err"] > 1e-12


def test_divdiff_repeated_points_exit_2():
    proc = run_cli("divdiff", "--points", "1,1,3", "--function", "exp:1")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


# -- theorem1 -----------------------------------------------------------------------


def test_theorem1_symbolic_half_square():
    proc = run_cli(
        "theorem1", "--x", "0,1,2", "--function", "poly:0,0,1/2", "--symbolic"
    )
    assert proc.returncode == 0, proc.stderr
    (rec,) = json_lines(proc)
    assert rec["passed"] is True
    assert rec["lhs"] == "1" and rec["rhs"] == "1"
    assert rec["config"]["pipeline"] == "exact"


def test_theorem1_symbolic_at_the_symbolic_cap():
    # n = 7 is the largest exact case the symbolic cap allows
    argv = ["--x", "0,1/2,1,3/2,2,5/2,3,7/2", "--function", "poly:1,2,3,4,5,6,7,8,9,10"]
    proc = run_cli("theorem1", "--symbolic", *argv)
    assert proc.returncode == 0, proc.stderr
    (rec,) = json_lines(proc)
    assert rec["n"] == 7 and rec["passed"] is True
    assert rec["lhs"] == rec["rhs"] == "105182398125/4096"
    proc = run_cli("integral", "--symbolic", *argv)
    assert proc.returncode == 0, proc.stderr
    assert json_lines(proc)[0]["value"] == "105182398125/4096"


def test_theorem1_floating_exponential():
    proc = run_cli(
        "theorem1", "--x", "0,1,2", "--function", "exp:1", "--order", "24"
    )
    assert proc.returncode == 0, proc.stderr
    (rec,) = json_lines(proc)
    assert rec["passed"] is True
    assert rec["rel_err"] < 1e-10
    assert rec["lhs"] == pytest.approx(rec["rhs"], rel=1e-10)


def test_theorem1_non_increasing_points_exit_2():
    proc = run_cli("theorem1", "--x", "0,1,1", "--function", "exp:1")
    assert proc.returncode == 2
    assert "points must be strictly increasing" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv, x",
    [
        (["theorem1", "--x", "0,1,1e17", "--function", "poly:1,2,3"], "0.0,1.0,1e+17"),
        (["transform", "--x", "0,1,1e308"], "0.0,1.0,1e+308"),
    ],
)
def test_points_whose_transform_collapses_exit_2(argv, x):
    # the typed x increase; y_2 and y_3 round to the same float
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: the transformed points y coincide in floating point for x = {x}\n"
    )


def test_theorem1_symbolic_rejects_transcendental():
    proc = run_cli("theorem1", "--x", "0,1", "--function", "exp:1", "--symbolic")
    assert proc.returncode == 2
    assert "polynomial" in proc.stderr


def test_theorem1_budget_exhaustion_exit_2():
    proc = run_cli(
        "theorem1", "--x", "0,1,2,3", "--function", "exp:1", "--budget", "10"
    )
    assert proc.returncode == 2
    assert "budget" in proc.stderr


def test_theorem1_pole_inside_domain_exit_2():
    proc = run_cli("theorem1", "--x", "0,1,2", "--function", "recip:2")
    assert proc.returncode == 2
    assert "pole" in proc.stderr


# -- integral ------------------------------------------------------------------------


def test_integral_symbolic_value():
    proc = run_cli(
        "integral", "--x", "0,1", "--function", "poly:0,0,1/2", "--symbolic"
    )
    assert proc.returncode == 0
    (rec,) = json_lines(proc)
    assert rec["pipeline"] == "exact"
    assert rec["value"] == "1/2"


def test_integral_symbolic_is_zero_below_degree_n():
    proc = run_cli("integral", "--x", "0,1,2", "--function", "poly:1,2", "--symbolic")
    assert proc.returncode == 0, proc.stderr
    assert '"value":"0"' in proc.stdout


def test_integral_floating_reports_grid():
    proc = run_cli(
        "integral", "--x", "0,1,2", "--function", "exp:1", "--order", "12"
    )
    (rec,) = json_lines(proc)
    assert rec["pipeline"] == "floating"
    assert rec["order"] == 12
    assert rec["evaluations"] == 144


def test_integral_symbolic_rejects_transcendental():
    proc = run_cli("integral", "--x", "0,1", "--function", "sin:1", "--symbolic")
    assert proc.returncode == 2


# -- corollary and lemmas ---------------------------------------------------------------


def test_corollary_runs_all_dimensions():
    proc = run_cli("corollary", "--n-max", "3")
    assert proc.returncode == 0
    recs = json_lines(proc)
    assert [r["n"] for r in recs] == [1, 2, 3]
    assert all(r["passed"] for r in recs)
    assert all(r["name"] == "vandermonde-volume" for r in recs)


def test_corollary_rejects_bad_n_max():
    proc = run_cli("corollary", "--n-max", "0")
    assert proc.returncode == 2


def test_verify_lemmas_small():
    proc = run_cli("verify-lemmas", "--n-max", "1", "--cases", "2")
    assert proc.returncode == 0, proc.stderr
    recs = json_lines(proc)
    assert recs and all(r["passed"] for r in recs)


def test_lemmas_alias_matches_verify_lemmas():
    a = run_cli("verify-lemmas", "--n-max", "2", "--cases", "2", binary=True)
    b = run_cli("lemmas", "--n-max", "2", "--cases", "2", binary=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_verify_lemmas_only_subset():
    proc = run_cli("verify-lemmas", "--n-max", "3", "--only", "newton", "--cases", "3")
    assert proc.returncode == 0
    recs = json_lines(proc)
    assert recs and all(r["name"].startswith("newton[") for r in recs)


def test_verify_lemmas_unknown_group_exit_2():
    proc = run_cli("verify-lemmas", "--only", "nosuch")
    assert proc.returncode == 2
    assert "unknown lemma group" in proc.stderr


NO_GROUP = "no lemma group selected; expected a subset of " + ", ".join(
    LEMMA_GROUPS
)


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--cases", "0", "--only", "pure-derivative,newton", "--n-max", "3"],
            "cases must be at least 1, got 0",
        ),
        (["--cases", "-2", "--only", "chain-rule"], "cases must be at least 1, got -2"),
        (["--n-max", "0"], "n_max must be at least 1, got 0"),
        (["--n-max", "-3"], "n_max must be at least 1, got -3"),
        (["--only", ""], NO_GROUP),
        (["--only", ","], NO_GROUP),
    ],
)
def test_verify_lemmas_rejects_counts_below_one(argv, message):
    # with no n, no sample or no group, the suite would check nothing and
    # still pass
    proc = run_cli("verify-lemmas", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


def test_verify_lemmas_n_max_above_seven_exit_2_at_once():
    # V_n has n! terms and the suites expand it past the symbolic cap, so
    # a larger n_max is refused before any work, not left to run
    proc = subprocess.run(
        BASE + ["verify-lemmas", "--n-max", "8"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: n_max must be at most 7, got 8\n"


NINE_POINTS = ["--symbolic", "--x", "0,1,2,3,4,5,6,7,8", "--function", "poly:0,1"]
PAST_THE_CAP = "expanded difference product for n=8 exceeds the symbolic cap 7"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["corollary", "--n-max", "8"], "n_max must be at most 7, got 8"),
        (["corollary", "--n-max", "0"], "n_max must be at least 1, got 0"),
        (["theorem1", *NINE_POINTS], PAST_THE_CAP),
        (["integral", *NINE_POINTS], PAST_THE_CAP),
    ],
)
def test_symbolic_commands_refuse_n_past_the_cap_at_once(argv, message):
    # the same cap of 7 as verify-lemmas, checked before any expansion
    proc = run_cli(*argv, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


def test_verify_lemmas_n_max_seven_is_accepted():
    proc = run_cli("verify-lemmas", "--n-max", "7", "--only", "pure-vanish")
    assert proc.returncode == 0, proc.stderr
    recs = json_lines(proc)
    assert [r["name"] for r in recs] == [f"pure-vanish[n={n}]" for n in range(1, 8)]
    assert all(r["passed"] for r in recs)


# -- transform -----------------------------------------------------------------------


def test_transform_forward():
    proc = run_cli("transform", "--x", "0,1,2", "--symbolic")
    assert proc.returncode == 0
    (rec,) = json_lines(proc)
    assert rec["direction"] == "forward"
    assert rec["y"] == ["1", "2", "3"]
    assert rec["vandermonde_x"] == rec["vandermonde_y"] == "2"
    assert rec["equal"] is True


def test_transform_inverse():
    proc = run_cli("transform", "--inverse", "--y", "1,2,3", "--symbolic")
    (rec,) = json_lines(proc)
    assert rec["direction"] == "inverse"
    assert rec["x"] == ["0", "1", "2"]


def test_transform_floating_round_trip():
    # negative leading values need the = form, as usual with argparse
    fwd = run_cli("transform", "--x=-0.5,0.25,1.75")
    (rec,) = json_lines(fwd)
    assert rec["equal"] is True
    back = run_cli("transform", "--inverse", "--y=" + ",".join(map(str, rec["y"])))
    (rec2,) = json_lines(back)
    for a, b in zip(rec2["x"], (-0.5, 0.25, 1.75)):
        assert a == pytest.approx(b, abs=1e-12)


def test_transform_missing_input_exit_2():
    proc = run_cli("transform", "--inverse")
    assert proc.returncode == 2
    assert "--y" in proc.stderr
    proc = run_cli("transform")
    assert proc.returncode == 2


# -- output formats ---------------------------------------------------------------------


def test_csv_format():
    proc = run_cli(
        "theorem1", "--x", "0,1", "--function", "exp:1", "--format", "csv"
    )
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("name,n,passed,lhs,rhs,")
    assert lines[1].startswith("integral-vs-divided-difference,1,true,")


def test_text_format():
    proc = run_cli(
        "transform", "--x", "0,1,2", "--symbolic", "--format", "text"
    )
    line = proc.stdout.strip()
    assert line.startswith("name=transform")
    assert "direction=forward" in line
    assert 'y=["1","2","3"]' in line


def test_every_json_line_parses():
    proc = run_cli("verify-lemmas", "--n-max", "2", "--cases", "2")
    for line in proc.stdout.splitlines():
        rec = json.loads(line)
        assert set(rec) == {
            "name",
            "n",
            "passed",
            "lhs",
            "rhs",
            "abs_err",
            "rel_err",
            "tolerance",
            "seed",
            "config",
        }


# -- environment overrides ----------------------------------------------------------------


def test_env_order_override():
    proc = run_cli(
        "theorem1",
        "--x",
        "0,1",
        "--function",
        "exp:1",
        env_extra={"VANDIFF_ORDER": "4"},
    )
    (rec,) = json_lines(proc)
    assert rec["config"]["order"] == 4


def test_env_invalid_value_exit_2():
    proc = run_cli(
        "theorem1",
        "--x",
        "0,1",
        "--function",
        "exp:1",
        env_extra={"VANDIFF_ORDER": "abc"},
    )
    assert proc.returncode == 2
    assert "VANDIFF_ORDER" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [("corollary", "--n-max", "1"), ("verify-lemmas", "--n-max", "1", "--cases", "1")],
)
def test_env_order_is_not_read_by_commands_without_order(argv):
    proc = run_cli(*argv, env_extra={"VANDIFF_ORDER": "abc"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_flag_beats_environment():
    proc = run_cli(
        "theorem1",
        "--x",
        "0,1",
        "--function",
        "exp:1",
        "--order",
        "6",
        env_extra={"VANDIFF_ORDER": "4"},
    )
    (rec,) = json_lines(proc)
    assert rec["config"]["order"] == 6


# -- determinism ------------------------------------------------------------------------


def test_repeated_runs_are_byte_identical():
    argv = ("theorem1", "--x", "0,0.5,1.7,2.4", "--function", "sin:1,0")
    a = run_cli(*argv, binary=True)
    b = run_cli(*argv, binary=True)
    assert a.stdout == b.stdout


def test_worker_count_never_changes_bytes():
    base = ("theorem1", "--x", "0,0.5,1.7,2.4", "--function", "sin:1,0")
    ref = run_cli(*base, "--workers", "1", binary=True)
    for w in ("4", "7"):
        got = run_cli(*base, "--workers", w, binary=True)
        assert got.stdout == ref.stdout


@pytest.mark.parametrize("function", ["exp:1", "sin:1,0", "recip:10"])
def test_worker_count_never_changes_bytes_across_slabs(monkeypatch, function):
    # six points make n = 5, which order 20 cuts into 400 slabs in 20
    # blocks; five make n = 4, one block.  --workers starts no thread, and
    # no value of it may move a byte
    for name in ("VANDIFF_ORDER", "VANDIFF_TOLERANCE", "VANDIFF_SEED", "VANDIFF_BUDGET"):
        monkeypatch.delenv(name, raising=False)
    n5, n4 = "--x=-1.5,-0.7,0.1,0.8,1.6,2.4", "--x=-1.5,-0.7,0.1,0.8,1.6"
    single = {}
    for points in (n5, n4):
        outputs = []
        for workers in ("1", "2", "3"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["theorem1", points, "--function", function, "--workers", workers])
            assert code == 0
            outputs.append(out.getvalue())
        assert outputs == [outputs[0]] * 3
        single[points] = outputs[0].encode()
    # the cubature makes no BLAS call, so BLAS's thread count cannot move a byte
    for threads in ("1", "2"):
        proc = run_cli(
            "theorem1", n5, "--function", function,
            env_extra={"OPENBLAS_NUM_THREADS": threads}, binary=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == single[n5]


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_exit_2(workers):
    proc = run_cli("theorem1", "--x", "0,1,2", "--function", "exp:1", "--workers", workers)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: --workers must be at least 1, got {workers}\n"


# -- usage ------------------------------------------------------------------------------


def test_missing_subcommand_exit_2():
    proc = run_cli()
    assert proc.returncode == 2


def test_unknown_subcommand_exit_2():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


# each command's options, counted without --help
OPTIONS = {
    "divdiff": 9,
    "integral": 7,
    "theorem1": 8,
    "corollary": 2,
    "verify-lemmas": 5,
    "transform": 6,
}


def test_each_command_takes_only_the_options_it_reads():
    (commands,) = [
        a.choices for a in build_parser()._actions if a.dest == "command"
    ]
    counts = {
        name: sum(
            bool(a.option_strings) and a.dest != "help"
            for a in commands[name]._actions
        )
        for name in OPTIONS
    }
    assert counts == OPTIONS
    assert sum(counts.values()) == 37
    assert commands["lemmas"] is commands["verify-lemmas"]


# arguments that make each command run, and the flags it no longer takes
RUNNABLE = {
    "integral": ("--x", "0,1,2", "--function", "exp:1"),
    "corollary": ("--n-max", "1"),
    "verify-lemmas": ("--n-max", "1"),
    "transform": ("--x", "0,1,2"),
}
REMOVED_FLAGS = [
    ("integral", "--tolerance"),
    *(
        (command, flag)
        for command in ("corollary", "verify-lemmas")
        for flag in ("--order", "--tolerance", "--budget", "--workers")
    ),
    ("transform", "--order"),
    ("transform", "--budget"),
    ("transform", "--workers"),
]


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
def test_command_rejects_options_it_does_not_read(command, flag):
    proc = run_cli(command, *RUNNABLE[command], flag, "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"unrecognized arguments: {flag} 1" in proc.stderr


# -- import cost ------------------------------------------------------------------------

# Run in a child, since this process loaded numpy with the test modules.
# Every command but the floating cubature leaves numpy unloaded; the
# floating theorem1 at the end shows that the check can see it load.  No
# command, the cubature included, loads a thread pool (concurrent.futures).
_NUMPY_ON_FIRST_USE = """
import contextlib, io, sys
import vandiff
from vandiff import cli

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv

for argv in [
    ["corollary", "--n-max", "3"],
    ["verify-lemmas", "--n-max", "3"],
    ["theorem1", "--symbolic", "--x", "0,1/2,2", "--function", "poly:1,2,3,4"],
    ["integral", "--symbolic", "--x", "0,1/2,2", "--function", "poly:1,2,3,4"],
    ["transform", "--x", "0,0.5,2"],
    ["transform", "--inverse", "--symbolic", "--y", "1,2,3"],
    *(["divdiff", "--points", "0,0.5,2", "--function", f]
      for f in ("poly:1,2,3,4", "exp:1", "sin:1.5,0.5", "recip:10")),
]:
    run(argv)
    assert "numpy" not in sys.modules, argv
    assert "concurrent.futures" not in sys.modules, argv
run(["theorem1", "--x", "0,0.5,2", "--function", "exp:1"])
assert "numpy" in sys.modules
assert "concurrent.futures" not in sys.modules
"""


def test_only_the_cubature_loads_numpy():
    env = {k: v for k, v in os.environ.items() if not k.startswith("VANDIFF_")}
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_ON_FIRST_USE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
