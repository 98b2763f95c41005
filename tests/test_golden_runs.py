"""Golden runs: exit code, stdout bytes and stderr text of command lines
across every command.

Each command line runs through `cli.main` in-process with the VANDIFF_*
variables cleared.  Its exit code, the length and sha256 of its stdout,
and its exact stderr text must equal the values recorded below.  The
lines cover floating and symbolic `theorem1` (with the two known false
floating verdicts, which exit 1), `integral`, the three `divdiff` routes,
`transform` with its float-range edges, `corollary`, `verify-lemmas` in
every format, and the scalar and cubature overflow edges.  When a change
to one of these is meant, record the new value together with the reason.
"""

import contextlib
import hashlib
import io
import os
from unittest import mock

import pytest

from vandiff import cli

# sha256 of empty stdout
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# (command line, exit code, stdout length in bytes, sha256 of stdout, stderr)
GOLDEN = [
    (
        "theorem1 --x 0,1,2 --function exp:1",
        0,
        290,
        "93f03f4e2f5452d3f2724aa46c188406814997cd323eb4d94a6207ee09448e8c",
        "",
    ),
    (
        "theorem1 --x 0,0.5,1.5,3 --function sin:1,0.3 --format csv",
        0,
        290,
        "57e8eb47841f7bb63f42d9809a8198cd2531f2d598081d905e9ad652b36e756c",
        "",
    ),
    (
        "theorem1 --x=-1,0,1,2 --function recip:10 --format text",
        0,
        292,
        "ccd1a4a147088f641769c2fd35f2425ca6bada0a03b0e113747f206b65ac78bd",
        "",
    ),
    (
        "theorem1 --x 0,1e-7,1 --function exp:1",
        1,
        301,
        "1fd04157421eff666a7e8de9968a28ad34923fc57419d8dd7c694de829a50410",
        "warning: minimum point gap 1e-07 is below 1e-06 of the span 1.0\n",
    ),
    (
        "theorem1 --x 0,1,2 --function sin:3.14159265358979,0",
        1,
        318,
        "2819fc5f631d13864315792fcd37039c12c618704b0f982f3973b39385274818",
        "",
    ),
    (
        "theorem1 --symbolic --x 0,1/2,2,3 --function poly:1,2,0,1,1/3",
        0,
        235,
        "04a5e3f2cad9b78e23d94db53e09732d9bfb34f39b145af7d569501c1d81a54f",
        "",
    ),
    (
        "integral --x 0,1,2,3 --function exp:1",
        0,
        156,
        "402d79923afa2eca2e2ee194468c5effe0999cbff5ed5bb96196ade51b331c4a",
        "",
    ),
    (
        "integral --symbolic --x 0,1,3 --function poly:0,0,0,1",
        0,
        112,
        "4829d4f405791293e258a4d0d49f495e84c4418ff8f4daca829d2627abe430dc",
        "",
    ),
    (
        "divdiff --points 0,1,2,4 --function exp:1",
        0,
        119,
        "428e5f307d911bbcffde1f413fdc70539749f7ca43d77a5191f9993786f93b4e",
        "",
    ),
    (
        "divdiff --points 0,1,2,4 --function sin:2,0 --via-integral",
        0,
        135,
        "4a559ecdda8ca49401c58d5ce0e69c955c44f638942b138c4ab0d8e26b8b6f98",
        "",
    ),
    (
        "divdiff --points 0,1,2,4 --function recip:10 --check",
        0,
        255,
        "d37361b69146c99a693267df5212bea635ceb1a2bb1c270869f116e004d2539b",
        "",
    ),
    (
        "divdiff --points 0,1e-9,1 --function exp:1",
        0,
        117,
        "447dbcf1e5e69802f9c6c5bd93ae8e2f2775f419896caccdf726b0805d77a4d9",
        "warning: minimum point gap 1e-09 is below 1e-06 of the span 1.0\n",
    ),
    (
        "divdiff --points 1,2,3 --function poly:0,0,1 --format text",
        0,
        91,
        "e69f75fec4882b3ce3c20a09fde8c4bd00337e6803b30d721f8d4c46c34832d1",
        "",
    ),
    (
        "transform --x 0,1,3,7",
        0,
        154,
        "120acb086e804256b1f3d8a4c1481b038cc24e56716aa2359f6814113571c1a7",
        "",
    ),
    (
        "transform --inverse --y 0,1,3,7 --format csv",
        0,
        195,
        "67e05ab509cd494c709ea24e4ae57b689bca53df4ea40ce4486695f02e4773c2",
        "",
    ),
    (
        "transform --symbolic --x 0,1/3,2",
        0,
        150,
        "101e95c66b1ce0abe35f34068f31fde40fe5092ecbc4ba821acae83db8af089f",
        "",
    ),
    (
        "transform --inverse --y=-1e308,0,1e308",
        2,
        0,
        EMPTY,
        "error: the transformed points x of y = -1e+308,0.0,1e+308 are beyond float range\n",
    ),
    (
        "transform --x=-1e308,0,1e308",
        2,
        0,
        EMPTY,
        "error: the difference product of x = -1e+308,0.0,1e+308 is beyond float range\n",
    ),
    (
        "corollary --n-max 4",
        0,
        7_822,
        "797d58ac692490fe95cb18c3dedcd91613fa570378a004f9b01786e01b9ed3d6",
        "",
    ),
    (
        "verify-lemmas --n-max 3",
        0,
        60_330,
        "e92d065e10bb8277b2dce9d64f73541cfd1f00b4251846f6285d34d7d06e384c",
        "",
    ),
    (
        "verify-lemmas --n-max 3 --only pure-derivative,newton,chain-rule",
        0,
        40_871,
        "c6212554755362489949b2311f1c34afd19797fc4ffa14196259ddfd4fbeeb19",
        "",
    ),
    (
        "verify-lemmas --n-max 3 --format csv --seed 5 --cases 2",
        0,
        15_090,
        "7dd6f9c8ab2d0df71f1893d3651a7f9d9f5daced1451c575ebf512b3f163c737",
        "",
    ),
    (
        "lemmas --n-max 3 --format text --only vertex-sum,reduced-vertex-sum",
        0,
        13_253,
        "08e7eafe6f7ed9a413ca0bd439c76e24ceadaee4d7eda4a0e8855123f5b5c25e",
        "",
    ),
    (
        "integral --x 0,1,2 --function exp:800",
        2,
        0,
        EMPTY,
        "error: the cubature for exp:800 overflows the float range\n",
    ),
    (
        "theorem1 --x 0,1,2 --function exp:800",
        2,
        0,
        EMPTY,
        "error: the cubature for exp:800 overflows the float range\n",
    ),
    (
        "theorem1 --x 0,1,2 --function exp:800 --workers 2",
        2,
        0,
        EMPTY,
        "error: the cubature for exp:800 overflows the float range\n",
    ),
    (
        "divdiff --points 0,1,2 --function exp:800 --via-integral",
        2,
        0,
        EMPTY,
        "error: the cubature for exp:800 overflows the float range\n",
    ),
    (
        "divdiff --points 1,2,3 --function exp:800",
        2,
        0,
        EMPTY,
        "error: exp:800 overflows the float range\n",
    ),
    (
        "divdiff --points 0,1,2 --function sin:1e308,0",
        2,
        0,
        EMPTY,
        "error: sin:1e+308,0 overflows the float range\n",
    ),
    (
        "divdiff --points 1,2,3 --function poly:0,0,1e308",
        2,
        0,
        EMPTY,
        "error: poly:0,0,1e308 overflows the float range\n",
    ),
    (
        "transform --x=-1e308,1e308,1.5e308",
        2,
        0,
        EMPTY,
        "error: the transformed points y of x = -1e+308,1e+308,1.5e+308 are beyond float range\n",
    ),
]


@pytest.mark.parametrize(
    "line, code, size, digest, err", GOLDEN, ids=[row[0] for row in GOLDEN]
)
def test_golden_run(line, code, size, digest, err):
    out, errors = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(errors):
        for name in [k for k in os.environ if k.startswith("VANDIFF_")]:
            del os.environ[name]
        got = cli.main(line.split())
    data = out.getvalue().encode()
    assert (got, errors.getvalue()) == (code, err)
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest
