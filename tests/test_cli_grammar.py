"""Property test: every command line the grammar admits ends cleanly.

Drives `cli.main` in-process over the argument grammar, valid and invalid
values alike, and checks that each run exits 0, 1 or 2, prints no
traceback, writes at most one stderr line (the error line when it exits
2), and writes only strict JSON (no NaN or Infinity).  Sizes stay
small (n <= 3, order <= 8) so the whole test takes a few seconds.
"""

import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from vandiff import cli
from vandiff.identity import LEMMA_GROUPS

ENV_NAMES = ("VANDIFF_ORDER", "VANDIFF_TOLERANCE", "VANDIFF_SEED", "VANDIFF_BUDGET")

_INCREASING = st.lists(
    st.integers(-3, 6), min_size=2, max_size=4, unique=True
).map(lambda v: ",".join(map(str, sorted(v))))
_TOKENS = st.lists(
    st.one_of(
        st.integers(-3, 6).map(str),
        st.sampled_from(["1/3", "0.5", "-2.5", "1e400", "nan", "inf", "", "x"]),
    ),
    min_size=1,
    max_size=4,
).map(",".join)
# clustered points, whose gap is below 1e-6 of the span; with the large
# span their transforms collapse in floating point
_CLUSTERED = st.sampled_from(["0,1e-9,1", "0,1e-9,1e150"])
# increasing lists three times as often as arbitrary tokens
POINTS = st.sampled_from([_INCREASING] * 3 + [_TOKENS, _CLUSTERED]).flatmap(lambda s: s)

FUNCTIONS = st.one_of(
    st.lists(
        st.sampled_from(["0", "1", "-2", "1/2", "1e400"]), min_size=1, max_size=4
    ).map(lambda cs: "poly:" + ",".join(cs)),
    st.sampled_from(
        [
            "exp:1",
            "exp:-2",
            "exp:800",
            "exp:1e400",
            "exp:1e200",
            "sin:1",
            "sin:1e200",
            "sin:3.14159265358979,0",
            "sin:1,2,3",
            "recip:10",
            "recip:2",
            "recip:-0.5",
            "nope:1",
            "exp",
        ]
    ),
)


def _mostly(valid, invalid):
    # valid values three times as often, so that most drawn command lines
    # get past parsing and run a computation
    return st.sampled_from(valid * 3 + invalid)


ORDERS = _mostly(["1", "4", "8"], ["0", "-1", "99"])
TOLERANCES = _mostly(["1e-9", "0", "1e-300"], ["nan", "inf", "-1", "abc"])
BUDGETS = _mostly(["100", "1e8", "1e3"], ["inf", "-inf", "nan", "-5", "abc"])
SEEDS = _mostly(["0", "2718", "-3"], ["abc"])
COMMANDS = [
    "divdiff",
    "integral",
    "theorem1",
    "corollary",
    "verify-lemmas",
    "lemmas",
    "transform",
]
# the commands that take --order, --budget and --workers, and --tolerance
CUBATURE_COMMANDS = ("divdiff", "integral", "theorem1")
TOLERANCE_COMMANDS = ("divdiff", "theorem1", "transform")


def _flag(name, values):
    # an optional --name=value pair
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


def _switch(name):
    return st.sampled_from([[], [f"--{name}"]])


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    if command == "divdiff":
        argv += [f"--points={draw(POINTS)}", f"--function={draw(FUNCTIONS)}"]
        argv += draw(_switch("via-integral")) + draw(_switch("check"))
    elif command in ("integral", "theorem1"):
        argv += [f"--x={draw(POINTS)}", f"--function={draw(FUNCTIONS)}"]
        argv += draw(_switch("symbolic"))
    elif command == "corollary":
        argv += draw(_flag("n-max", st.integers(-1, 3)))
    elif command == "transform":
        argv += draw(_flag("x", POINTS)) + draw(_flag("y", POINTS))
        argv += draw(_switch("inverse")) + draw(_switch("symbolic"))
    else:
        argv += [f"--n-max={draw(st.integers(-1, 3))}"]
        argv += [f"--cases={draw(st.integers(0, 2))}"]
        groups = st.lists(
            st.sampled_from(LEMMA_GROUPS + ("nosuch",)), min_size=1, max_size=3
        ).map(",".join)
        argv += draw(_flag("only", groups))
        argv += draw(_flag("seed", SEEDS))
    argv += draw(_flag("format", st.sampled_from(["json", "csv", "text"])))
    if command in CUBATURE_COMMANDS:
        argv += draw(_flag("order", ORDERS))
        argv += draw(_flag("budget", BUDGETS))
        argv += draw(_flag("workers", st.sampled_from(["1", "2"])))
    if command in TOLERANCE_COMMANDS:
        argv += draw(_flag("tolerance", TOLERANCES))
    env = draw(
        st.fixed_dictionaries(
            {},
            optional={
                "VANDIFF_ORDER": ORDERS,
                "VANDIFF_TOLERANCE": TOLERANCES,
                "VANDIFF_SEED": SEEDS,
                "VANDIFF_BUDGET": BUDGETS,
            },
        )
    )
    return argv, env


def run_main(argv, env):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        for name in ENV_NAMES:
            os.environ.pop(name, None)
        os.environ.update(env)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


# non-finite, negative or out-of-range numbers where the CLI reads one
EDGE_INPUTS = [
    (["divdiff", "--points=1,2,3", "--function=exp:1", "--budget=inf"], {}),
    (["divdiff", "--points=1,2,3", "--function=exp:1"], {"VANDIFF_BUDGET": "inf"}),
    (["divdiff", "--points=1,2,3", "--function=exp:1", "--check", "--tolerance=nan"], {}),
    (["divdiff", "--points=1,2,3", "--function=exp:1", "--check", "--tolerance=inf"], {}),
    (["divdiff", "--points=1,2,3", "--function=exp:1", "--check", "--tolerance=-1"], {}),
    (["divdiff", "--points=1,2,3", "--function=exp:1", "--check"], {"VANDIFF_TOLERANCE": "nan"}),
    (["divdiff", "--points=1,2,1e400", "--function=exp:1"], {}),
    (["theorem1", "--x=0,1,2", "--function=exp:800"], {}),
    (["integral", "--x=0,1,2", "--function=exp:800"], {}),
    (["integral", "--x=0,1,2", "--function=exp:800", "--format=csv"], {}),
    (["integral", "--x=0,1,2", "--function=exp:800", "--format=text"], {}),
    (["theorem1", "--x=0,1,2", "--function=exp:1", "--workers=0"], {}),
    (["integral", "--x=0,1,2", "--function=exp:1", "--workers=0"], {}),
]


@settings(max_examples=120)
@given(command_lines())
# clustered points, which the draws reach about once per run: the table
# route and its note, and the collapse of the transformed points
@example((["divdiff", "--points=0,1e-9,1", "--function=exp:1"], {}))
@example((["divdiff", "--points=0,1e-9,1", "--function=exp:1", "--check"], {}))
@example((["theorem1", "--x=0,1e-9,1", "--function=exp:1"], {}))
@example((["divdiff", "--points=0,1e-9,1e150", "--function=poly:0,0,1", "--check"], {}))
def test_every_command_line_ends_cleanly(case):
    argv, env = case
    code, out, err = run_main(argv, env)
    assert code in (0, 1, 2), (argv, env, code, err)
    assert "Traceback" not in err
    # argparse's usage errors print their usage text first and are exempt
    if not err.startswith("usage: "):
        lines = err.splitlines()
        assert len(lines) <= 1, (argv, env, err)
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, env, err)
    if any(a.startswith("--format=") and a != "--format=json" for a in argv):
        assert "NaN" not in out and "Infinity" not in out
    else:
        for line in out.splitlines():
            json.loads(line, parse_constant=_reject_constant)


@pytest.mark.parametrize("argv, env", EDGE_INPUTS)
def test_edge_input_exits_2_with_empty_stdout(argv, env):
    code, out, err = run_main(argv, env)
    assert code == 2
    assert out == ""
    assert "error" in err and "Traceback" not in err


# inputs beyond float range, each with the text its message must name
OVERFLOW_INPUTS = [
    (["divdiff", "--points=1,2,1e400", "--function=exp:1"], "'1e400'"),
    (["divdiff", "--points=1,2,3", "--function=exp:800"], "exp:800"),
    (["divdiff", "--points=1,2,3", "--function=exp:1e400"], "exp:1e400"),
    (["theorem1", "--x=0,1,2", "--function=exp:800"], "exp:800"),
    (["theorem1", "--x=0,1,2", "--function=exp:800", "--workers=2"], "exp:800"),
    (["integral", "--x=0,1,2", "--function=exp:800"], "exp:800"),
    (["integral", "--x=0,1,2", "--function=exp:800", "--format=csv"], "exp:800"),
    (["integral", "--x=0,1,2", "--function=exp:800", "--format=text"], "exp:800"),
    (["integral", "--x=0,1,2", "--function=exp:800", "--workers=2"], "exp:800"),
    (["theorem1", "--x=0,1,2", "--function=exp:1e200"], "exp:1e+200"),
    (["theorem1", "--x=0,1,2", "--function=sin:1e200"], "sin:1e+200"),
    (["theorem1", "--x=0,1,2", "--function=poly:1e400"], "poly:1e400"),
    (["theorem1", "--x=0,1,2,3", "--function=sin:5e102"], "sin:5e+102"),
    (["integral", "--x=0,1,2,3", "--function=sin:5e102", "--workers=2"], "sin:5e+102"),
    # the box's weights overflow before the integrand does
    (["theorem1", "--x=1e200,2e200,3e200", "--function=poly:0,0,1"], "poly:0,0,1"),
    (["theorem1", "--x=1e200,2e200,3e200", "--function=exp:0"], "exp:0"),
    (["integral", "--x=1e200,2e200,3e200", "--function=poly:0,0,1"], "poly:0,0,1"),
    (
        ["divdiff", "--points=1e200,2e200,3e200", "--function=poly:0,0,1", "--via-integral"],
        "poly:0,0,1",
    ),
    # a slab total is finite, and its product with the leading weights is not
    (
        ["integral", "--x=1e22,2e22,3e22,4e22,5e22,6e22", "--function=poly:0,0,0,0,0,1"],
        "poly:0,0,0,0,0,1",
    ),
]


@pytest.mark.parametrize("argv, token", OVERFLOW_INPUTS)
def test_overflow_message_is_one_line_naming_the_input(argv, token):
    code, out, err = run_main(argv, {})
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith("error: ") and token in line
