"""vandiff benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload float-identity --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is taken from ``src/`` of the checkout that
holds this directory.  The steps:

1. set-up: one untimed fresh interpreter fills the bytecode cache, then
   SETUP_SAMPLES fresh interpreters each import vandiff and build the first
   pass's inputs (``worker.py --mode setup``); setup_s is their median;
2. the timed worker (``worker.py --mode run``) runs the passes on one thread
   and records every case to a results file under ``perfbench/out/``;
3. this process rebuilds every input from the seed and checks every output
   against the oracles in ``oracles.py``, then feeds the oracles perturbed
   copies of the first output that did not fail (on lemma-cli also of the
   first corollary output) to show that they can fail;
4. it prints each metric with its samples and quartiles, and as the last
   line one JSON object: correct, attempted, failed and the metrics, the
   end-to-end ones with --trace 0, the per-layer ones with --trace 1.  A
   timing that needs a class of which every case raised is left out of
   the metrics; the line still gives the failed count.

Exit 0 with a result, 2 without one (no ``src/vandiff`` here, or the worker
failed or overran).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
SETUP_SAMPLES = 9
DEADLINE_S = 170  # the whole run, set-up and checks included


def _worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )


def measure_setup(workload: str, seed: int) -> list[float]:
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.monotonic()
        done = _worker(["--workload", workload, "--seed", str(seed), "--mode", "setup"], 60)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        if i:  # the first probe compiles the bytecode cache and is not counted
            samples.append(float(done.stdout) - start)
    return samples


def _failed(output: dict) -> bool:
    """The program raised, gave a negative verdict or exited non-zero."""
    return "error" in output or output.get("passed") is False or output.get("code", 0) != 0


def _quartiles(values: list[float]) -> tuple[float, float]:
    if not values:  # every pass had a class of which every case raised
        return math.nan, math.nan
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _suite(classes, samples: dict[str, list[float]]):
    """suite_s and easy_case_ms from the class medians of `samples`; None
    for a figure that needs a class with no sample."""
    medians = {key: statistics.median(v) for key, v in samples.items() if v}
    easy = [c.key for c in classes if c.n <= workloads.EASY_MAX_N]
    suite_s = easy_ms = None
    if all(c.key in medians for c in classes):
        suite_s = sum(medians[c.key] * c.weight for c in classes)
    if all(k in medians for k in easy):
        easy_ms = 1000 * statistics.mean(medians[k] for k in easy)
    return suite_s, easy_ms


def _timing(records: list[dict], classes, traced: bool):
    """suite_s and easy_case_ms from per-class medians over the timed
    passes, and the lists of the same two figures for each pass on its own.
    A case that raised has no time; a figure that needs a class of which
    every case raised is None."""
    by_class: dict[str, list[float]] = {c.key: [] for c in classes}
    by_pass: dict[int, dict[str, list[float]]] = {}
    for r in records:
        if r["pass"] == 0 or r["traced"] != traced or r["seconds"] is None:
            continue
        by_class[r["key"]].append(r["seconds"])
        by_pass.setdefault(r["pass"], {}).setdefault(r["key"], []).append(r["seconds"])
    suite_s, easy_ms = _suite(classes, by_class)
    per_pass = [_suite(classes, p) for p in by_pass.values()]
    pass_suite = [s for s, _ in per_pass if s is not None]
    pass_easy = [e for _, e in per_pass if e is not None]
    return suite_s, easy_ms, pass_suite, pass_easy


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    began = time.monotonic()

    if not (ROOT / "src" / "vandiff" / "__init__.py").is_file():
        print(f"error: no vandiff package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    results = OUT / f"results-{args.workload}-{os.getpid()}.jsonl"
    try:
        setup = measure_setup(args.workload, args.seed)
        done = _worker(
            ["--workload", args.workload, "--seed", str(args.seed), "--mode", "run",
             "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", str(results)],
            DEADLINE_S - (time.monotonic() - began),
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if done.returncode != 0:
        print(f"error: worker exited {done.returncode}: {done.stderr.strip()[-2000:]}",
              file=sys.stderr)
        return 2
    with open(results, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    results.unlink()
    summary = lines[-1]["summary"]
    records = [r for r in lines if "pass" in r]

    classes = workloads.case_classes(args.workload)
    by_key = {c.key: c for c in classes}
    checker = oracles.Checker(args.workload)
    problems: list[str] = []
    failed = 0
    for r in records:
        cls, output = by_key[r["key"]], r["output"]
        if _failed(output):
            failed += 1
            print(f"failed: pass {r['pass']} {r['key']}: {output.get('error', output)}"[:300],
                  file=sys.stderr)
            continue
        case = workloads.case_input(args.workload, cls, args.seed, r["pass"], r["repeat"])
        reason = checker.check(cls, case, output)
        if reason is not None:
            problems.append(f"pass {r['pass']} {r['key']}: {reason}")
    # self-test the checks on the first case that did not fail, and on
    # lemma-cli also on the first corollary case, which the sympy check sees
    ok = [r for r in records if not _failed(r["output"])]
    probes = ok[:1]
    if args.workload == "lemma-cli":
        probes += [r for r in ok if r["key"].startswith("corollary.")][:1]
    if not probes:
        problems.append("no operation succeeded, so the checks were not self-tested")
    for r in probes:
        cls = by_key[r["key"]]
        case = workloads.case_input(args.workload, cls, args.seed, r["pass"], r["repeat"])
        problems += oracles.self_test(checker, cls, case, r["output"])
    for p in problems[:20]:
        print(f"incorrect: {p}", file=sys.stderr)

    suite_s, easy_ms, pass_suite, pass_easy = _timing(records, classes, traced=False)
    rows = {
        "suite_s": ("s", suite_s, pass_suite),
        "easy_case_ms": ("ms", easy_ms, pass_easy),
        "setup_s": ("s", statistics.median(setup), setup),
        "peak_rss_mb": ("MB", summary["peak_rss_mb"], [summary["peak_rss_mb"]]),
    }
    for name, (unit, value, samples) in rows.items():
        if value is None:
            print(f"{args.workload} {name} missing: a class has no case that did not raise",
                  file=sys.stderr)
            continue
        q1, q3 = _quartiles(samples)
        print(f"{args.workload} {name} = {value:.6g} {unit}  "
              f"(samples {len(samples)}, quartiles {q1:.6g} .. {q3:.6g})")
    print(f"{args.workload} operations: attempted {len(records)}, failed {failed}")
    if args.trace:
        layers = dict(summary["layers"])
        traced_suite, _, _, _ = _timing(records, classes, traced=True)
        if traced_suite is not None and suite_s is not None:
            layers["trace.overhead_s"] = traced_suite - suite_s
        first_traced = min(r["pass"] for r in records if r["traced"])
        layers["cli.stdout_bytes"] = sum(
            len(r["output"].get("stdout", "").encode())
            for r in records if r["pass"] == first_traced
        )
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER.items() if name in layers}
        for name, m in metrics.items():
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (unit, value, _) in rows.items() if value is not None}
    print(json.dumps({"correct": not problems, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
