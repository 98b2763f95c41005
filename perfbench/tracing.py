"""Span tracing of vandiff's layers, installed from the benchmark's side.

Each public function of a layer is replaced, where its callers look it up,
by a wrapper that records one span: id, parent span, pass, layer name,
start and end in ns, self time, and a tag with an amount (n and function
family with cubature nodes, family with array elements).  Self time is the
span's duration minus the time of the spans it caused.  Spans stay in
memory and are written out once, when the worker ends.

Tracing inside ``src/`` itself is left to a later change: module-level
names are patched in the module that calls them (``vandiff.identity
.integral_side``), methods on their class (``MultiPoly.__mul__``).
"""

from __future__ import annotations

import importlib
import statistics
import time

_FAMILY = {"Exponential": "exp", "Sine": "sin", "Reciprocal": "recip", "Polynomial": "poly"}


def _cubature_tag(args, result):
    x, f = args[0], args[1]
    return f"n{x.n}.{_FAMILY[type(f).__name__]}", result.function_evaluations


def _elements_tag(args, result):
    # an array argument counts its elements, a scalar counts one
    return _FAMILY[type(args[0]).__name__], getattr(args[1], "size", 1)


# (layer name, owner "module" or "module:Class", attribute, tag function)
PATCHES = (
    ("identity.check_identity_numeric", "vandiff.identity", "check_identity_numeric", None),
    ("identity.check_identity_exact", "vandiff.identity", "check_identity_exact", None),
    ("identity.exact_integral_value", "vandiff.identity", "exact_integral_value", None),
    ("identity.to_dict", "vandiff.identity:IdentityReport", "to_dict", None),
    ("quad.integral_side", "vandiff.identity", "integral_side", _cubature_tag),
    ("divdiff.divided_difference_side", "vandiff.identity", "divided_difference_side", None),
    ("divdiff.divided_difference", "vandiff.identity", "divided_difference", None),
    ("divdiff.divided_difference", "vandiff.divdiff", "divided_difference", None),
    ("funcs", "vandiff.funcs:Exponential", "__call__", _elements_tag),
    ("funcs", "vandiff.funcs:Sine", "__call__", _elements_tag),
    ("funcs", "vandiff.funcs:Reciprocal", "__call__", _elements_tag),
    ("funcs", "vandiff.funcs:Polynomial", "__call__", _elements_tag),
    ("exact.mul", "vandiff.exact:MultiPoly", "__mul__", None),
    ("exact.mul", "vandiff.exact:MultiPoly", "__rmul__", None),
    ("exact.add", "vandiff.exact:MultiPoly", "__add__", None),
    ("exact.add", "vandiff.exact:MultiPoly", "__radd__", None),
    ("exact.substitute", "vandiff.exact:MultiPoly", "substitute", None),
    ("exact.integrate", "vandiff.exact:MultiPoly", "integrate", None),
    ("exact.eval", "vandiff.exact:MultiPoly", "eval", None),
    ("exact.diff", "vandiff.exact:MultiPoly", "diff", None),
    ("exact.render", "vandiff.exact:MultiPoly", "render", None),
    ("symfun.apply_operator", "vandiff.identity", "apply_operator", None),
    ("symfun.elementary_symmetric", "vandiff.identity", "elementary_symmetric", None),
    ("symfun.vandermonde_poly", "vandiff.identity", "vandermonde_poly", None),
    ("cli.main", "vandiff.cli", "main", None),
)

# per-layer metrics: name -> unit; every one of them is lower-is-better
PER_LAYER = {
    "quad.integral_side.calls": "count",
    "quad.integral_side.self_ms": "ms",
    "quad.nodes": "count",
    "quad.ns_per_node.n4": "ns/node",
    "quad.ns_per_node.n5.exp": "ns/node",
    "quad.ns_per_node.n5.sin": "ns/node",
    "quad.ns_per_node.n5.recip": "ns/node",
    "funcs.calls": "count",
    "funcs.elems": "count",
    "funcs.ns_per_elem.exp": "ns/elem",
    "funcs.ns_per_elem.sin": "ns/elem",
    "funcs.ns_per_elem.recip": "ns/elem",
    "divdiff.divided_difference_side.calls": "count",
    "divdiff.divided_difference_side.us_per_call": "us/call",
    "divdiff.divided_difference.us_per_call": "us/call",
    "exact.mul.calls": "count",
    "exact.mul.self_ms": "ms",
    "exact.add.calls": "count",
    "exact.add.self_ms": "ms",
    "exact.substitute.self_ms": "ms",
    "exact.integrate.calls": "count",
    "exact.integrate.self_ms": "ms",
    "exact.eval.calls": "count",
    "exact.eval.self_ms": "ms",
    "exact.diff.calls": "count",
    "exact.diff.self_ms": "ms",
    "symfun.apply_operator.calls": "count",
    "symfun.apply_operator.self_ms": "ms",
    "symfun.elementary_symmetric.self_ms": "ms",
    "symfun.vandermonde_poly.self_ms": "ms",
    "exact.render.self_ms": "ms",
    "identity.to_dict.self_ms": "ms",
    "cli.main.calls": "count",
    "cli.main.self_ms": "ms",
    "cli.stdout_bytes": "bytes",
    "identity.check_identity_numeric.self_ms": "ms",
    "identity.exact_integral_value.ms": "ms",
    "identity.check_identity_exact.self_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# metrics that count work; they come from the first traced pass, so they
# repeat exactly for a given seed, where a median over a time-dependent
# number of passes would not
COUNTS = {name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")}


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Collects spans while installed; one per worker."""

    def __init__(self):
        # (span, parent, pass, name, start_ns, end_ns, self_ns, tag, amount)
        self.spans: list[tuple] = []
        self.pass_index = -1
        self._stack: list[list[int]] = []  # [span id, ns spent in children]
        self._next_id = 0
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, tag_of):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tag, amount = ("", 0)
                if tag_of is not None and result is not None:
                    tag, amount = tag_of(args, result)
                spans.append(
                    (span_id, parent, tracer.pass_index, name, start, end,
                     duration - frame[1], tag, amount)
                )

        return traced

    def install(self) -> None:
        for name, owner, attr, tag_of in PATCHES:
            target = _resolve(owner)
            original = target.__dict__[attr] if isinstance(target, type) else getattr(target, attr)
            self._saved.append((target, attr, original))
            setattr(target, attr, self._wrap(name, original, tag_of))

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tparent\tpass\tname\tstart_ns\tend_ns\tself_ns\ttag\tamount\n")
            for span in self.spans:
                out.write("\t".join(map(str, span)) + "\n")


def _ratio(num: float, den: float) -> float:
    # a layer the workload never calls reads 0: it is the no-change control
    return num / den if den else 0.0


def pass_metrics(spans, pass_index: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass, except the two that
    run.py takes from the recorded cases: trace.overhead_s and
    cli.stdout_bytes."""
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    tagged: dict[tuple[str, str], list[int]] = {}  # -> [self, total, amount]
    count = 0
    for _, _, p, name, start, end, own, tag, amount in spans:
        if p != pass_index:
            continue
        count += 1
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own
        total_ns[name] = total_ns.get(name, 0) + end - start
        if tag:
            acc = tagged.setdefault((name, tag), [0, 0, 0])
            acc[0] += own
            acc[1] += end - start
            acc[2] += amount

    def tag_sum(name, index, pick=""):
        # pick "n4" matches the tags n4.exp, n4.sin, ...; "" matches all
        return sum(
            v[index]
            for (layer, tag), v in tagged.items()
            if layer == name and (not pick or tag == pick or tag.startswith(pick + "."))
        )

    out: dict[str, float] = {"trace.spans": count}
    for layer in ("quad.integral_side", "divdiff.divided_difference_side", "exact.mul",
                  "exact.add", "exact.integrate", "exact.eval", "exact.diff",
                  "symfun.apply_operator", "cli.main", "funcs"):
        out[f"{layer}.calls"] = calls.get(layer, 0)
    for name in PER_LAYER:
        if name.endswith(".self_ms"):
            out[name] = self_ns.get(name[: -len(".self_ms")], 0) / 1e6
    out["identity.exact_integral_value.ms"] = total_ns.get("identity.exact_integral_value", 0) / 1e6
    for layer in ("divdiff.divided_difference_side", "divdiff.divided_difference"):
        out[f"{layer}.us_per_call"] = _ratio(total_ns.get(layer, 0) / 1e3, calls.get(layer, 0))
    quad = "quad.integral_side"
    out["quad.nodes"] = tag_sum(quad, 2)
    out["funcs.elems"] = tag_sum("funcs", 2)
    # cubature time per node includes the integrand; funcs time is its own
    for pick in ("n4", "n5.exp", "n5.sin", "n5.recip"):
        out[f"quad.ns_per_node.{pick}"] = _ratio(tag_sum(quad, 1, pick), tag_sum(quad, 2, pick))
    for family in ("exp", "sin", "recip"):
        out[f"funcs.ns_per_elem.{family}"] = _ratio(
            tag_sum("funcs", 0, family), tag_sum("funcs", 2, family)
        )
    return out


def layer_metrics(tracer: Tracer, traced_passes: list[int]) -> dict[str, float]:
    """Counts from the first traced pass, times as medians over all of them."""
    per_pass = [pass_metrics(tracer.spans, p) for p in traced_passes]
    out = {}
    for name in per_pass[0]:
        if name in COUNTS:
            out[name] = per_pass[0][name]
        else:
            out[name] = statistics.median(m[name] for m in per_pass)
    return out
