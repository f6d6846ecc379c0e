"""Benchmark of auglf: one-shot scenario runs, each in a fresh child process.

    python3 perfbench/run.py --workload hologram --seed 1 --seconds 60 --trace 0

Run it from the repository root; it needs ``src/auglf``, ``configs/`` and
``BENCHMARK.json`` there and exits 2 without a result otherwise.  It starts
``perfbench/child.py`` one child at a time, and a further child only while
the median child so far would still end within ``--seconds`` (but at least
as many children as the workload has inputs, with a floor of MIN_CHILDREN),
so every run pays interpreter start, import and cold caches
as a user's one-shot ``auglf run`` does, and each child's peak RSS is its
own.  Numerical libraries are pinned to one thread, and children start
without address-space randomisation: with it, whether numpy's large arrays
landed on transparent huge pages changed from child to child, and the peak
RSS of coded_field flipped between 595 and 624 MiB.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the children.  ``--trace 1`` alternates untraced and traced children
on the same inputs and reports the per-layer metrics as medians over the
traced ones; ``trace.overhead_s`` is the traced minus the untraced median
run time.  Either way every child's outputs are checked, and every child
given the same input must produce the same manifest (or, for coded_field,
the same intensity arrays), traced or not.  The last line printed is the
JSON result.  Work files go under ``.perfbench_work/`` and are removed,
except each traced child's ``spans.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_CHILDREN = 5
MIN_TRACED_PAIRS = 3
CHILD_TIMEOUT_S = 170.0
THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag, from <linux/personality.h>
# Numbers each run prints but does not gate: the peak offset is 0 cells on
# hologram, and a bound relative to a zero median would mean nothing.
CONTEXT_METRICS = {"peak_offset_cells": "cells"}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _percentiles(values: list) -> dict:
    """Median, and the highest of p75/p90/p99 with at least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values), "tail": None}
    for p in (99, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            out["tail"] = {"p": p, "value": cut}
            break
    return out


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def _run_child(root, env, workload, seed, index, traced, workdir, deadline):
    """Start one child and wait for it; return its result dict or a failure."""
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
           str(index), "1" if traced else "0", workdir]
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"input": index, "traced": traced, "failures": [f"child timed out after {timeout:.0f} s"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        return {"input": index, "traced": traced,
                "failures": [f"child exited {proc.returncode}: {tail[0]}"]}
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as handle:
        result = json.load(handle)
    shutil.rmtree(os.path.join(workdir, "out"), ignore_errors=True)
    return result


def _fix_child_layout() -> bool:
    """Turn off address-space randomisation for every program this process execs."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality.argtypes = [ctypes.c_ulong]
    libc.personality.restype = ctypes.c_int
    current = libc.personality(0xFFFFFFFF)  # this value only queries
    return current != -1 and libc.personality(current | ADDR_NO_RANDOMIZE) != -1


def _src_lines(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as handle:
            total += sum(1 for _ in handle)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    workload = WORKLOADS[args.workload]
    needed = ["BENCHMARK.json", os.path.join("src", "auglf", "__init__.py")]
    if workload.config is not None:
        needed.append(workload.config)
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        return _fail(f"run from the repository root; missing {', '.join(missing)}")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as handle:
        predicted = set(json.load(handle)["layers"])
    if predicted != {m["name"] for m in spec["per_layer"]}:
        return _fail("predictions.json and the per_layer metrics of BENCHMARK.json name different metrics")

    work = os.path.join(root, ".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    env = _child_env(root)
    fixed_layout = _fix_child_layout()
    if not fixed_layout:
        print("perfbench: could not turn off address-space randomisation; "
              "peak RSS may vary from child to child", file=sys.stderr)
    start = time.monotonic()
    stop_at = start + args.seconds
    hard_deadline = start + CHILD_TIMEOUT_S
    if args.trace:
        min_children, plan = MIN_TRACED_PAIRS, [False, True]  # traced flags per input
    else:
        min_children, plan = max(MIN_CHILDREN, workload.inputs), [False]
    results = []
    step_s = []  # wall time of each input's children, to end the run within --seconds
    k = 0
    while k < min_children or time.monotonic() + statistics.median(step_s) <= stop_at:
        if time.monotonic() > start + 0.7 * CHILD_TIMEOUT_S:
            break
        index = k % workload.inputs
        step_start = time.monotonic()
        for traced in plan:
            workdir = os.path.join(work, f"child-{len(results):03d}")
            results.append(_run_child(root, env, args.workload, args.seed, index,
                                      traced, workdir, hard_deadline))
        step_s.append(time.monotonic() - step_start)
        k += 1

    # every child given the same input must agree byte for byte
    reference = {}
    for r in results:
        if "digest" in r:
            reference.setdefault(r["input"], r["digest"])
            if r["digest"] != reference[r["input"]]:
                r["failures"].append(
                    "outputs differ from an earlier child's on the same input"
                    + (" (traced run)" if r["traced"] else "")
                )
    ok = [r for r in results if not r["failures"]]
    for r in results:
        for failure in r["failures"]:
            print(f"perfbench: child on input {r['input']} failed: {failure}", file=sys.stderr)

    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    stats = {}
    if untraced:
        for name in ("setup_s", "run_s", "peak_rss_mb"):
            stats[name] = _percentiles([r[name] for r in untraced])
        # deterministic per input; one value per input, then their median
        per_input = {r["input"]: r for r in untraced}
        stats["rel_l2_vs_wave"] = _percentiles([r["rel_l2"] for r in per_input.values()])
        stats["peak_offset_cells"] = _percentiles(
            [abs(r["peak_offset_cells"]) for r in per_input.values()])
    if traced:
        for name in traced[0]["layers"]:
            stats[name] = _percentiles([r["layers"][name] for r in traced])
        if untraced:
            stats["trace.overhead_s"] = {
                "median": statistics.median(r["run_s"] for r in traced) - stats["run_s"]["median"],
                "n": len(traced),
                "tail": None,
            }

    correct = bool(results) and len(ok) == len(results) and all(n in stats for n in units)
    metrics = {n: {"value": stats[n]["median"], "unit": units[n]} for n in units if n in stats}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"children {len(results)}  failed {len(results) - len(ok)}")
    shown = dict(units) if args.trace else {**units, **CONTEXT_METRICS}
    for name, unit in shown.items():
        if name not in stats:
            continue
        s = stats[name]
        tail = (f"p{s['tail']['p']} {s['tail']['value']:.6g}" if s["tail"]
                else "tail: none has 10 samples beyond it")
        print(f"  {name:30s} {s['median']:<14.6g} {unit:6s} n={s['n']:<3d} {tail}")
    context = {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREADS,
        "fixed_layout": fixed_layout,
        "python": platform.python_version(),
        **(ok[0]["versions"] if ok else {}),
        "src_lines": _src_lines(root),
        "warnings": sorted({w for r in ok for w in r["warnings"]}),
        "inputs": workload.inputs,
        "rel_l2_ceiling": workload.rel_l2_ceiling,
        "peak_offset_cells": stats.get("peak_offset_cells", {}).get("median"),
    }
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": correct, "attempted": len(results),
                      "failed": len(results) - len(ok), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
