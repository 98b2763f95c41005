"""The README's `$ vandiff ...` examples print what the README shows.

Each example runs through `cli.main` in-process with the VANDIFF_*
variables cleared.  An expected line ending in `  ...` is a prefix of the
actual line; a lone `...` line ends the comparison.
"""

import contextlib
import io
import os
import shlex
from pathlib import Path
from unittest import mock

import pytest

from vandiff import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """(command line, expected output lines) for every example, in order."""
    examples = []
    current = None  # the output lines of the example being read
    in_block = False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block, current = not in_block, None
        elif in_block and line.startswith("$ vandiff "):
            current = []
            examples.append((line[2:], current))
        elif current is not None and line:
            current.append(line)
        else:
            current = None  # a blank line ends the example
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) == 8


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_output(command, expected):
    out = io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out):
        for name in [k for k in os.environ if k.startswith("VANDIFF_")]:
            del os.environ[name]
        code = cli.main(shlex.split(command)[1:])
    assert code == 0
    actual = out.getvalue().splitlines()
    if "..." in expected:
        cut = expected.index("...")
        expected, actual = expected[:cut], actual[:cut]
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        if want.endswith("  ..."):
            assert got.startswith(want[:-3])
        else:
            assert got == want
