"""The timed process: runs one workload through vandiff and records it.

    python3 perfbench/worker.py --workload W --seed S --mode setup
    python3 perfbench/worker.py --workload W --seed S --mode run \
        --seconds T --trace 0|1 --out FILE

Set-up is everything from a fresh interpreter to vandiff imported and the
first pass's inputs built.  Mode ``setup`` prints the monotonic clock (one
clock for every process on the machine) at that point and exits.  Mode
``run`` goes on with an untimed warm-up pass (pass 0), then timed passes
until the next one would end after --seconds, and at least MIN_PASSES.
Each case's elapsed time and output go to --out as one JSON line, written
between cases and never kept, so the peak RSS it reports is the workload's
own.  With --trace 1 the timed passes alternate untraced and traced, the
last line carries the per-layer metrics, and the spans go to
trace-<workload>.tsv beside --out.

Set-up imports only what the workload itself needs: the arguments are read
by hand, and the benchmark's own modules are imported after set-up ends.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

MIN_PASSES = 4
MIN_TRACE_PASSES = 2  # one untraced, one traced


def _import_layer(workload: str):
    if workload == "lemma-cli":
        from vandiff import cli

        return cli
    from vandiff import identity

    return identity


def _build(workload: str, plan, seed: int, pass_index: int) -> list:
    """One pass's inputs as vandiff objects, built outside the timed region."""
    from vandiff.funcs import Polynomial, parse_function
    from vandiff.points import PointSequence

    built = []
    for cls, repeat in plan:
        raw = workloads.case_input(workload, cls, seed, pass_index, repeat)
        if workload == "float-identity":
            f = parse_function(workloads.FLOAT_FUNCTIONS[cls.family])
            built.append((PointSequence.floating(raw), f))
        elif workload == "exact-identity":
            points, coeffs = raw
            built.append((PointSequence.exact(points), Polynomial(coeffs)))
        else:
            built.append(raw)
    return built


def run_case(workload: str, module, case):
    """One timed operation; returns (seconds, output as plain data)."""
    if workload == "float-identity":
        x, f = case
        start = time.perf_counter()
        report = module.check_identity_numeric(
            x, f, workloads.ORDER, workloads.TOLERANCE, workers=1
        )
        elapsed = time.perf_counter() - start
        return elapsed, {"lhs": report.lhs, "rhs": report.rhs, "passed": report.passed}
    if workload == "exact-identity":
        x, f = case
        start = time.perf_counter()
        report = module.check_identity_exact(x, f)
        elapsed = time.perf_counter() - start
        return elapsed, {"lhs": str(report.lhs), "rhs": str(report.rhs), "passed": report.passed}
    import contextlib
    import io

    captured = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = module.main(case)
    elapsed = time.perf_counter() - start
    return elapsed, {"code": code, "stdout": captured.getvalue()}


def setup(workload: str, seed: int):
    """Import the workload's layer and build pass 0: what setup_s times."""
    module = _import_layer(workload)
    plan = workloads.schedule(workloads.case_classes(workload))
    return module, plan, _build(workload, plan, seed, 0)


def run(workload: str, seed: int, seconds: float, trace: bool, out_path: str,
        module, plan, pending, setup_done: float) -> None:
    import gc
    import json
    import resource

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    min_passes = MIN_TRACE_PASSES if tracer else MIN_PASSES
    traced_passes: list[int] = []
    with open(out_path, "w", encoding="utf-8") as out:

        def emit(record) -> None:
            out.write(json.dumps(record, separators=(",", ":")) + "\n")

        emit({"setup_done": setup_done})
        pass_index = 0
        timed_start = None
        while True:
            traced = tracer is not None and pass_index > 0 and pass_index % 2 == 0
            gc.collect()
            pass_start = time.monotonic()
            if traced:
                tracer.pass_index = pass_index
                traced_passes.append(pass_index)
                tracer.install()
            for (cls, repeat), case in zip(plan, pending):
                try:
                    elapsed, output = run_case(workload, module, case)
                except Exception as exc:  # one failed operation; the run goes on
                    elapsed, output = None, {"error": f"{type(exc).__name__}: {exc}"}
                emit({"pass": pass_index, "key": cls.key, "repeat": repeat,
                      "traced": traced, "seconds": elapsed, "output": output})
            if traced:
                tracer.uninstall()
            pass_seconds = time.monotonic() - pass_start
            if timed_start is None:  # pass 0 was the warm-up
                timed_start = time.monotonic()
            elif pass_index >= min_passes and (
                time.monotonic() - timed_start + pass_seconds > seconds
            ):
                break
            pass_index += 1
            pending = _build(workload, plan, seed, pass_index)

        summary = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        if tracer is not None:
            summary["layers"] = tracing.layer_metrics(tracer, traced_passes)
            tracer.write(os.path.join(os.path.dirname(out_path), f"trace-{workload}.tsv"))
        emit({"summary": summary})


def main(argv: list[str]) -> int:
    opts = dict(zip(argv[::2], argv[1::2]))
    workload, seed = opts["--workload"], int(opts["--seed"])
    module, plan, pending = setup(workload, seed)
    setup_done = time.monotonic()
    if opts["--mode"] == "setup":
        print(repr(setup_done))
        return 0
    run(workload, seed, float(opts["--seconds"]), opts["--trace"] == "1", opts["--out"],
        module, plan, pending, setup_done)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
