"""Black-box CLI tests through `python -m vandiff`."""

import json
import math
import os
import subprocess
import sys

import pytest

BASE = [sys.executable, "-m", "vandiff"]


def run_cli(*argv, env_extra=None, binary=False):
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
    (line,) = proc.stderr.splitlines()
    assert "exp:800" in line


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


# -- usage ------------------------------------------------------------------------------


def test_missing_subcommand_exit_2():
    proc = run_cli()
    assert proc.returncode == 2


def test_unknown_subcommand_exit_2():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2
