"""Spans around auglf's public layer functions, kept in memory for one traced run.

``install`` replaces each layer function in the module namespace where the
pipeline looks it up (``auglf.scenarios`` calls ``apply_transformer`` through
its own module globals, for example), so no file under ``src/`` changes.
A span records its name, start, end and parent; spans of the layers whose
memory is reported also record the peak of memory that ``tracemalloc``
traced while they were open (numpy registers its buffers with tracemalloc,
so array allocations count).
``layer_metrics`` turns the spans into the per-layer figures.

Import this module only after ``auglf``: the benchmark times that import.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

MIB = float(1 << 20)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, memory: bool = False):
        """Record one call; with ``memory``, also its peak of traced memory.

        tracemalloc runs only inside memory spans, so the Python-heavy layers
        (CSV formatting above all) are not slowed by allocation tracing.
        Memory spans are leaf calls and never nest.
        """
        parent = self._open[-1]["id"] if self._open else None
        record = {"id": len(self.spans), "name": name, "parent": parent, "attrs": {}}
        self.spans.append(record)
        self._open.append(record)
        if memory:
            if tracemalloc.is_tracing():
                raise RuntimeError(f"memory span {name} opened inside another")
            tracemalloc.start()
        record["start"] = time.perf_counter()
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            if memory:
                record["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._open.pop()

    def wrap(self, module, attr: str, name: str, observe=None, memory: bool = False) -> None:
        """Replace ``module.attr`` by a spanned call.

        ``observe(args, result)`` returns counts to store on the span; it runs
        after the span closes, so its own work is not charged to the layer.
        """
        inner = getattr(module, attr)

        @functools.wraps(inner)
        def spanned(*args, **kwargs):
            with self.span(name, memory) as attrs:
                result = inner(*args, **kwargs)
            if observe is not None:
                attrs.update(observe(args, result))
            return result

        setattr(module, attr, spanned)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle, indent=1)
            handle.write("\n")


def _kernel(args, transformer) -> dict:
    kernel = transformer.kernel
    return {"bytes": kernel.nbytes, "nonzero": int(np.count_nonzero(kernel)), "size": kernel.size}


def _applied(args, alf) -> dict:
    return {"leak_fraction": alf.meta["theta_leak_fraction"]}


def _sheared(args, result) -> dict:
    alf, distance = args[0], args[1]
    return {"rows": alf.grid.theta_samples if distance != 0.0 else 0, "loss": result[1]}


def _projected(args, profile) -> dict:
    peak = float(profile.values.max())
    return {"negativity": -float(profile.values.min()) / peak if peak > 0.0 else 0.0}


def install(tracer: Tracer, auglf) -> None:
    """Span every public layer function at the place the pipeline calls it."""
    scenarios, cli = auglf.scenarios, auglf.cli
    tracer.wrap(scenarios, "wdf_from_field", "wdf.field", memory=True)
    tracer.wrap(auglf.transformers, "wigner_table", "wdf.kernel", memory=True)
    tracer.wrap(scenarios, "canonical_transformer", "transformers.build", _kernel)
    tracer.wrap(scenarios, "apply_transformer", "transformers.apply", _applied, memory=True)
    tracer.wrap(scenarios, "shear_propagate", "propagation.shear", _sheared, memory=True)
    tracer.wrap(scenarios, "project_intensity", "core.project", _projected)
    tracer.wrap(scenarios, "fresnel_propagate", "fresnel.wave")
    tracer.wrap(scenarios, "apply_mask", "fresnel.wave")
    tracer.wrap(scenarios, "trace_train", "scenarios.trace")
    tracer.wrap(cli, "trace_train", "scenarios.trace")
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "parse_config", "config.parse")
    for attr in dir(cli):
        if attr.startswith("write_"):
            tracer.wrap(cli, attr, "output.write")


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer figures from one traced child's spans.

    Times are self times: a span's duration less the durations of the spans
    it directly encloses (calls are sequential, so children never overlap).
    Memory figures are the largest single-span peak, in MiB.
    """
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    self_s: dict = {}
    peak: dict = {}
    by_name: dict = {}
    for s in spans:
        name = s["name"]
        self_s[name] = self_s.get(name, 0.0) + s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        peak[name] = max(peak.get(name, 0), s.get("peak_bytes", 0))
        by_name.setdefault(name, []).append(s["attrs"])

    kernels = by_name.get("transformers.build", [])
    kernel_size = sum(a["size"] for a in kernels)
    kept = 1.0
    for a in by_name.get("propagation.shear", []):
        kept *= 1.0 - a["loss"]
    projections = by_name.get("core.project", [])
    return {
        "config.parse_s": self_s.get("config.parse", 0.0),
        "wdf.field_s": self_s.get("wdf.field", 0.0),
        "wdf.kernel_s": self_s.get("wdf.kernel", 0.0),
        "wdf.peak_mb": max(peak.get("wdf.field", 0), peak.get("wdf.kernel", 0)) / MIB,
        "transformers.build_s": self_s.get("transformers.build", 0.0),
        "transformers.build_calls": len(kernels),
        "transformers.kernel_mb": sum(a["bytes"] for a in kernels) / MIB,
        "transformers.kernel_fill": (
            sum(a["nonzero"] for a in kernels) / kernel_size if kernel_size else 0.0
        ),
        "transformers.apply_s": self_s.get("transformers.apply", 0.0),
        "transformers.apply_calls": len(by_name.get("transformers.apply", [])),
        "transformers.apply_peak_mb": peak.get("transformers.apply", 0) / MIB,
        "transformers.leak_fraction": max(
            (a["leak_fraction"] for a in by_name.get("transformers.apply", [])), default=0.0
        ),
        "propagation.shear_s": self_s.get("propagation.shear", 0.0),
        "propagation.shear_rows": sum(a["rows"] for a in by_name.get("propagation.shear", [])),
        "propagation.shear_peak_mb": peak.get("propagation.shear", 0) / MIB,
        "propagation.truncation_loss": 1.0 - kept,
        "core.project_s": self_s.get("core.project", 0.0),
        "core.negativity": projections[-1]["negativity"] if projections else 0.0,
        "fresnel.wave_s": self_s.get("fresnel.wave", 0.0),
        "output.write_s": self_s.get("output.write", 0.0),
        "scenarios.self_s": self_s.get("scenarios.trace", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
    }
