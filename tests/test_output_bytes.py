"""Pinned stdout bytes of the lemma suite and the volume corollary.

Each command runs through `cli.main` in-process with the VANDIFF_*
variables cleared, and the sha256 of its stdout must equal the digest
recorded below.  Any change to a seeded stream's draw order, a report's
fields or their rendering changes a digest.  When such a change is meant,
record the new digest together with the reason.
"""

import contextlib
import hashlib
import io
import os
from unittest import mock

import pytest

from vandiff import cli

# (command line, stdout length in bytes, sha256 of stdout)
PINNED = [
    (
        "verify-lemmas --n-max 4".split(),
        201_171,
        "a0dcc256a5dcd17345df8290895d88ba3d41cfe4c9e572ece8e00afcc646db52",
    ),
    (
        "verify-lemmas --n-max 4 --seed 7 --cases 3 --format csv".split(),
        60_076,
        "ad8718a75d68b29ff9ee4d67bb889a4a8cf933f0a3f70f11d2ee2c08a8dcb816",
    ),
    (
        # n = 5 and 6 run the eval, diff and E_k paths on V_5 and V_6
        "verify-lemmas --n-max 6".split(),
        227_952,
        "db65052e7bcd53f76d93e89552539c773912885dd5d635529980fe1b65ee3af9",
    ),
    (
        "corollary --n-max 5".split(),
        52_656,
        "50c26b3519f013f42962aca0e05b782e3fc32f3a22c758c8d5921317aed4e8b1",
    ),
    (
        # n = 7 is the symbolic cap; its right side expands V_8 in x
        "corollary --n-max 7".split(),
        3_802_817,
        "e9ee495db6a88e906ebc67a664ed9edc3998cdb41238ac473e710efb7b356e21",
    ),
]


@pytest.mark.parametrize(
    "argv, size, digest", PINNED, ids=[" ".join(argv) for argv, _, _ in PINNED]
)
def test_stdout_bytes_are_pinned(argv, size, digest):
    out = io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out):
        for name in [k for k in os.environ if k.startswith("VANDIFF_")]:
            del os.environ[name]
        code = cli.main(argv)
    data = out.getvalue().encode()
    assert code == 0
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest
