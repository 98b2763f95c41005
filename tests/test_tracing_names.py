"""Every name the benchmark's span tracer patches still resolves.

`perfbench/tracing.py` replaces functions where their callers look them
up; a renamed or deleted one would fail only when the benchmark installs
its tracer.  The module imports only the standard library, so it loads
here by path, and nothing in `perfbench/` changes.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for _, owner, attr, _ in tracing.PATCHES]
)
def test_patched_name_resolves(owner, attr):
    target = tracing._resolve(owner)
    # the tracer reads a method from the class's own __dict__, so an
    # inherited one would not do
    names = target.__dict__ if isinstance(target, type) else dir(target)
    assert attr in names
    assert callable(getattr(target, attr))
