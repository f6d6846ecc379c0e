"""The benchmark's layer spans must not change what a traced run computes.

``perfbench/tracing.py`` replaces layer functions in auglf's module
namespaces.  Memory spans may not nest, and the kernel apply runs inside
one, so the numeric kernel's streamed rows must not go through the spanned
``transformers.wigner_table``; nor may a field source's Wigner transform,
folded with its first element, inside the ``wdf.field`` span.  A plane wave
folded into its first element takes the kernel's table through
``transformers.wigner_table`` straight from the trace, in no other span.
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
    Hologram,
    NegativeIntensityWarning,
    OpticalTrain,
    PlaneWave,
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


def coded_train(hop):
    g = make_grid(128, 1.28e-3, 128, 0.02, LAM)
    x = g.x_axis()
    rng = np.random.default_rng(5)
    stop = np.abs(x) < 0.4e-3
    mask = ComplexField(g, stop * np.exp(1j * rng.uniform(-0.5, 0.5, g.x_samples)))
    beam = ComplexField(g, np.exp(-((x / 0.2e-3) ** 2)))
    stages = (Element(CodedAperture(mask)), Propagate(0.01))
    if hop:
        stages = (Propagate(1e-3),) + stages
    return OpticalTrain(g, FieldSource(beam), stages)


def hologram_train():
    g = make_grid(128, 1.28e-3, 128, 0.02, LAM)
    return OpticalTrain(g, PlaneWave(0.0), (Element(Hologram(0.05, width=1e-3)), Propagate(0.01)))


def run(train):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeIntensityWarning)
        return auglf.scenarios.trace_train(train, TraceOptions())


def traced_and_plain(train):
    """The train's trace with the benchmark's spans installed, the spans, and its plain trace."""
    tracing = load_tracing()
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
    return traced, tracer.spans, plain


def assert_same_bits(traced, plain):
    for got, want in (
        (traced.report.alf_intensity, plain.report.alf_intensity),
        (traced.report.oracle_intensity, plain.report.oracle_intensity),
    ):
        assert np.array_equal(got.values, want.values)
    assert np.array_equal(traced.final.radiance, plain.final.radiance)


def assert_leaf(spans, name):
    span = next(s for s in spans if s["name"] == name)
    assert not any(s["parent"] == span["id"] for s in spans), name


def test_traced_coded_aperture_run_matches_the_untraced_bits():
    # behind a hop the mask is applied to the sheared source radiance,
    # inside the apply's memory span
    traced, spans, plain = traced_and_plain(coded_train(hop=True))
    assert_same_bits(traced, plain)
    names = [s["name"] for s in spans]
    assert names.count("transformers.apply") == 1
    # the build observer assembles the table once, outside the apply's span
    assert names.count("wdf.kernel") == 1
    assert_leaf(spans, "transformers.apply")


def test_traced_folded_source_run_matches_the_untraced_bits():
    # right at the source the mask is folded into the source's Wigner
    # transform, inside that transform's memory span, and nothing is applied
    traced, spans, plain = traced_and_plain(coded_train(hop=False))
    assert_same_bits(traced, plain)
    assert [r.label for r in traced.stages] == ["source+coded_aperture", "propagate_0.01m"]
    names = [s["name"] for s in spans]
    assert names.count("transformers.apply") == 0
    assert names.count("wdf.field") == names.count("wdf.kernel") == 1
    assert_leaf(spans, "wdf.field")


def test_traced_folded_plane_wave_run_matches_the_untraced_bits():
    # the plate's table, shifted by the wave's node, is the radiance behind
    # it: one table for the build observer and one for the fold, and nothing
    # is applied
    traced, spans, plain = traced_and_plain(hologram_train())
    assert_same_bits(traced, plain)
    assert [r.label for r in traced.stages] == ["source+hologram", "propagate_0.01m"]
    names = [s["name"] for s in spans]
    assert names.count("transformers.apply") == 0
    assert names.count("wdf.field") == 0
    assert names.count("wdf.kernel") == 2
    trace_id = next(s["id"] for s in spans if s["name"] == "scenarios.trace")
    assert all(s["parent"] == trace_id for s in spans if s["name"] == "wdf.kernel")
    assert_leaf(spans, "wdf.kernel")
