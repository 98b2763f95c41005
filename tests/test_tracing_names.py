"""Every name the benchmark's span tracer patches still resolves, and the
benchmark's calls into `vandiff.identity` still bind.

`perfbench/tracing.py` replaces functions where their callers look them
up; a renamed or deleted one would fail only when the benchmark installs
its tracer.  The module imports only the standard library, so it loads
here by path.  `perfbench/worker.py` is only parsed, never imported: a
call that no longer binds would fail every timed case of its workload.
Nothing in `perfbench/` changes.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

from vandiff import identity

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKER = PERFBENCH / "worker.py"


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


@pytest.mark.parametrize("name", ["check_identity_numeric", "check_identity_exact"])
def test_worker_call_binds(name):
    tree = ast.parse(WORKER.read_text(), filename=str(WORKER))
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == name
    ]
    assert len(calls) == 1
    (call,) = calls
    # a starred argument would hide how many arguments the call passes
    assert not any(isinstance(arg, ast.Starred) for arg in call.args)
    assert all(kw.arg is not None for kw in call.keywords)
    signature = inspect.signature(getattr(identity, name))
    signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
