"""The benchmark's layer spans must not change what a traced run computes.

``perfbench/tracing.py`` replaces layer functions in auglf's module
namespaces.  Memory spans may not nest, and the kernel apply runs inside
one, so the numeric kernel's streamed rows must not go through the spanned
``transformers.wigner_table``.  A field source or a plane wave folded into
its first element takes the product's table through
``transformers.wigner_table`` straight from the trace, in no other span.
"""

import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

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


def run(train, observed):
    """The train's trace and, when observed, a copy of its last radiance (else None)."""
    last = {}

    def keep(record, alf):
        last["radiance"] = alf.radiance.copy()

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeIntensityWarning)
        trace = auglf.scenarios.trace_train(train, TraceOptions(), observe=keep if observed else None)
    return trace, last.get("radiance")


def traced_and_plain(train, observed=True):
    """The train's run (``run``) with the benchmark's spans installed, the spans, and its plain run."""
    tracing = load_tracing()
    plain = run(train, observed)
    modules = (auglf.scenarios, auglf.transformers, auglf.cli)
    saved = [(module, dict(vars(module))) for module in modules]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, auglf)
        traced = run(train, observed)
    finally:
        for module, attrs in saved:
            for name, value in attrs.items():
                setattr(module, name, value)
    for module, attrs in saved:
        assert all(getattr(module, name) is value for name, value in attrs.items())
    return traced, tracer.spans, plain


def assert_same_bits(traced, plain):
    (traced, traced_final), (plain, plain_final) = traced, plain
    for got, want in (
        (traced.report.alf_intensity, plain.report.alf_intensity),
        (traced.report.oracle_intensity, plain.report.oracle_intensity),
    ):
        assert np.array_equal(got.values, want.values)
    assert np.array_equal(traced_final, plain_final)


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


FOLDED = {
    "field_through_a_coded_aperture": (lambda: coded_train(hop=False), "source+coded_aperture"),
    "plane_wave_through_a_hologram": (hologram_train, "source+hologram"),
}


@pytest.mark.parametrize("make, label", FOLDED.values(), ids=FOLDED.keys())
def test_a_traced_fold_matches_the_untraced_bits_in_one_span_shape(make, label):
    # a field and a plane wave fold through one method: the build observer
    # assembles the kernel's table and the fold writes the product's, each
    # through transformers.wigner_table straight from the trace; no source
    # transform runs and nothing is applied; observed, the hop is sheared
    # and the sheared radiance projected
    traced, spans, plain = traced_and_plain(make())
    assert_same_bits(traced, plain)
    assert [r.label for r in traced[0].stages] == [label, "propagate_0.01m"]
    names = {s["id"]: s["name"] for s in spans}
    shape = [(s["name"], names.get(s["parent"])) for s in spans]
    assert shape == [
        ("scenarios.trace", None),
        ("transformers.build", "scenarios.trace"),
        ("wdf.kernel", "scenarios.trace"),
        ("wdf.kernel", "scenarios.trace"),
        ("propagation.shear", "scenarios.trace"),
        ("core.project", "scenarios.trace"),
        ("fresnel.wave", "scenarios.trace"),
        ("fresnel.wave", "scenarios.trace"),
    ]


def test_an_unobserved_traced_run_matches_the_untraced_bits_without_shear_or_projection_spans():
    # nobody observes the radiance after the last hop, so the trace projects
    # it along the sheared lines: neither the shear nor the projection runs
    traced, spans, plain = traced_and_plain(coded_train(hop=True), observed=False)
    assert_same_bits(traced, plain)
    names = [s["name"] for s in spans]
    assert names.count("propagation.shear") == 1  # the first hop, before the mask
    assert names.count("core.project") == 0
