"""The benchmark's layer spans must not change what a traced run computes.

``perfbench/tracing.py`` replaces layer functions in auglf's module
namespaces.  Memory spans may not nest, and the kernel apply runs inside
one, so the numeric kernel's streamed rows must not go through the spanned
``transformers.wigner_table``.
"""

import importlib.util
import warnings
from pathlib import Path

import numpy as np

import auglf
import auglf.cli
from auglf import (
    CodedAperture,
    ComplexField,
    Element,
    FieldSource,
    NegativeIntensityWarning,
    OpticalTrain,
    Propagate,
    TraceOptions,
    make_grid,
)

LAM = 633e-9
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def coded_train():
    g = make_grid(128, 1.28e-3, 128, 0.02, LAM)
    x = g.x_axis()
    rng = np.random.default_rng(5)
    stop = np.abs(x) < 0.4e-3
    mask = ComplexField(g, stop * np.exp(1j * rng.uniform(-0.5, 0.5, g.x_samples)))
    beam = ComplexField(g, np.exp(-((x / 0.2e-3) ** 2)))
    return OpticalTrain(g, FieldSource(beam), (Element(CodedAperture(mask)), Propagate(0.01)))


def run(train):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeIntensityWarning)
        return auglf.scenarios.trace_train(train, TraceOptions())


def test_traced_coded_aperture_run_matches_the_untraced_bits():
    tracing = load_tracing()
    train = coded_train()
    plain = run(train)
    modules = (auglf.scenarios, auglf.transformers, auglf.cli)
    saved = [(module, dict(vars(module))) for module in modules]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, auglf)
        traced = run(train)
    finally:
        for module, attrs in saved:
            for name, value in attrs.items():
                setattr(module, name, value)
    for module, attrs in saved:
        assert all(getattr(module, name) is value for name, value in attrs.items())

    for got, want in (
        (traced.report.alf_intensity, plain.report.alf_intensity),
        (traced.report.oracle_intensity, plain.report.oracle_intensity),
    ):
        assert np.array_equal(got.values, want.values)
    assert np.array_equal(traced.final.radiance, plain.final.radiance)
    names = [s["name"] for s in tracer.spans]
    assert names.count("transformers.apply") == 1
    # the build observer assembles the table once, outside the apply's span
    assert names.count("wdf.kernel") == 1
    apply_span = tracer.spans[names.index("transformers.apply")]
    assert not any(s["parent"] == apply_span["id"] for s in tracer.spans)
