"""Run one benchmark scenario in a fresh interpreter and write its result as JSON.

    python3 perfbench/child.py WORKLOAD SEED INPUT TRACE WORKDIR

Run from the repository root with ``src`` on PYTHONPATH (``run.py`` does
this).  The child times set-up (import of auglf through building the
train), then one run, checks the run's outputs, and writes
``WORKDIR/result.json``.  With TRACE 1 it also spans the layer functions
and writes ``WORKDIR/spans.json``.  Any check that fails is listed under
``failures``; an exception exits non-zero with its traceback on stderr.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import warnings

from workloads import WORKLOADS


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _check_cli_outputs(out_dir: str, failures: list) -> dict:
    """Verify the manifest against the files and read back the report."""
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "rb") as handle:
        manifest_bytes = handle.read()
    manifest = json.loads(manifest_bytes)
    for entry in manifest["outputs"]:
        path = os.path.join(out_dir, entry["path"])
        if not os.path.isfile(path):
            failures.append(f"{entry['path']} is listed in the manifest but missing")
        elif _sha256(path) != entry["sha256"]:
            failures.append(f"{entry['path']} does not match its manifest sha256")
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as handle:
        report = json.load(handle)
    import numpy as np

    intensity = np.loadtxt(
        os.path.join(out_dir, "final_intensity.csv"), delimiter=",", skiprows=1
    )[:, 1]
    if not np.all(np.isfinite(intensity)):
        failures.append("final intensity has non-finite samples")
    files = os.listdir(out_dir)
    return {
        "rel_l2": report["relative_l2_error"],
        "peak_offset_cells": report["peak_offset_cells"],
        "digest": hashlib.sha256(manifest_bytes).hexdigest(),
        "output.bytes": sum(os.path.getsize(os.path.join(out_dir, f)) for f in files),
        "output.files": len(files),
    }


def _check_trace(trace, failures: list) -> dict:
    import numpy as np

    report = trace.report
    digest = hashlib.sha256()
    for profile in (report.alf_intensity, report.oracle_intensity):
        if not np.all(np.isfinite(profile.values)):
            failures.append("intensity has non-finite samples")
        digest.update(profile.values.tobytes())
    return {
        "rel_l2": report.relative_l2_error,
        "peak_offset_cells": report.peak_offset_cells,
        "digest": digest.hexdigest(),
        "output.bytes": 0,
        "output.files": 0,
    }


def main(argv: list) -> int:
    name, seed, index, traced, workdir = argv
    seed, index, traced = int(seed), int(index), traced == "1"
    workload = WORKLOADS[name]
    out_dir = os.path.join(workdir, "out")
    caught = []

    t0 = time.perf_counter()
    import auglf
    import auglf.cli

    t_import = time.perf_counter()
    src = os.path.join(os.getcwd(), "src", "auglf", "__init__.py")
    if os.path.realpath(auglf.__file__) != os.path.realpath(src):
        raise RuntimeError(f"imported auglf from {auglf.__file__}, not from {src}")
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, auglf)
    with warnings.catch_warnings(record=True) as setup_warnings:
        warnings.simplefilter("always")
        if workload.config is not None:
            auglf.cli.parse_config(workload.config).train()
        else:
            import coded_field

            train = coded_field.build_train(auglf, seed, index)
    t_setup = time.perf_counter()
    caught.extend(setup_warnings)

    failures: list = []
    with warnings.catch_warnings(record=True) as run_warnings:
        warnings.simplefilter("always")
        if workload.config is not None:
            code = auglf.cli.main(["run", workload.config, "--out", out_dir])
            t_run = time.perf_counter()
            if code != 0:
                failures.append(f"auglf run exited {code}")
                checked = {}
            else:
                checked = _check_cli_outputs(out_dir, failures)
        else:
            trace = auglf.scenarios.trace_train(train, auglf.TraceOptions())
            t_run = time.perf_counter()
            checked = _check_trace(trace, failures)
    caught.extend(run_warnings)

    rel_l2 = checked.get("rel_l2")
    if rel_l2 is None or not rel_l2 <= workload.rel_l2_ceiling:
        failures.append(
            f"relative L2 error {rel_l2} vs the wave reference is above "
            f"the ceiling {workload.rel_l2_ceiling}"
        )
    import numpy
    import scipy

    result = {
        "workload": name,
        "seed": seed,
        "input": index,
        "traced": traced,
        "setup_s": t_setup - t0,
        "run_s": t_run - t_setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "warnings": sorted({type(w.message).__name__ for w in caught}),
        "failures": failures,
        **checked,
    }
    if tracer is not None:
        tracer.write(os.path.join(workdir, "spans.json"))
        layers = tracing.layer_metrics(tracer.spans)
        layers["auglf.import_s"] = t_import - t0
        layers["output.bytes"] = result["output.bytes"]
        layers["output.files"] = result["output.files"]
        result["layers"] = layers
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
