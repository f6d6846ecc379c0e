"""The row loops split across threads: same bits at any worker count.

``auglf.core._worker_count`` is monkeypatched to force a worker count; the
package itself always uses the CPUs the process may run on.
"""

import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import auglf.core as core
import test_propagation
import test_scenarios
import test_transformers
from test_scenarios import observed_trace
from auglf import (
    AugmentedLightField,
    CodedAperture,
    ComplexField,
    Element,
    FieldSource,
    LightFieldTransformer,
    NegativeIntensityWarning,
    OpticalTrain,
    PhaseSpaceGrid,
    PlaneWave,
    Propagate,
    TraceOptions,
    TruncationWarning,
    WdfOptions,
    apply_transformer,
    make_grid,
    shear_propagate,
    trace_train,
    transformer_from_transmittance,
    wdf_from_field,
)
from auglf.core import _BLOCK_BYTES
from auglf.wdf import WignerRows, wigner_table

LAM = 633e-9
THETA = 256
# A ragged number of rows spanning several blocks of the one-worker line
# apply, so every worker count cuts the rows into ranges of several blocks.
MANY_ROWS = 2 * (_BLOCK_BYTES // (8 * THETA)) + 3
# Worker counts against row counts; 8 workers on 5 rows is more workers than rows.
# The shears move the steepest rows by 0.3 of the position window.
SHEAR_REACH = 0.3
SPLITS = {"1": (1, MANY_ROWS), "2": (2, MANY_ROWS), "3": (3, MANY_ROWS), "more_than_rows": (8, 5)}


def force_workers(monkeypatch, workers):
    monkeypatch.setattr(core, "_worker_count", lambda: workers)


def grid_of(rows):
    return PhaseSpaceGrid(rows, rows * 1e-5, THETA, 0.02, LAM)


def random_radiance(grid, seed):
    rng = np.random.default_rng(seed)
    return AugmentedLightField(grid, rng.normal(size=(grid.x_samples, grid.theta_samples)))


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    n = grid.x_samples
    # a gentle phase keeps the field's local frequency inside the angle window
    return ComplexField(grid, rng.uniform(0.2, 1.0, n) * np.exp(1j * rng.uniform(0, 0.1, n)))


def random_lines(grid, seed):
    return test_transformers.random_lines(grid, np.random.default_rng(seed), rows=4)


def outputs(grid):
    """Everything the threaded loops make on one grid."""
    alf = random_radiance(grid, 1)
    mask = random_field(grid, 2)
    u = grid.u_axis()
    applied = apply_transformer(alf, random_lines(grid, 3))
    streamed = apply_transformer(alf, transformer_from_transmittance(mask))
    zero_edge = transformer_from_transmittance(mask, WdfOptions(boundary="zero"))
    got = {
        "apply": applied.radiance,
        "apply_leak": applied.meta["theta_leak"],
        "apply_leak_fraction": applied.meta["theta_leak_fraction"],
        "wigner_table": wigner_table(WignerRows(grid, mask.samples, float(u[0]), float(u[1] - u[0]), THETA, WdfOptions())),
        "wdf_from_field": wdf_from_field(mask).radiance,
        "streamed": streamed.radiance,
        "streamed_leak": streamed.meta["theta_leak"],
        "streamed_leak_fraction": streamed.meta["theta_leak_fraction"],
        "streamed_zero_edge": apply_transformer(alf, zero_edge).radiance,
    }
    # a field source and a plane wave folded into their first element, on
    # the Wigner transform's threads
    sources = {"folded": FieldSource(random_field(grid, 4)), "plane_folded": PlaneWave(3 * grid.dtheta)}
    for name, source in sources.items():
        train = OpticalTrain(grid, source, (Element(CodedAperture(mask)),))
        with warnings.catch_warnings():
            # the random mask and field pass the angle window, so the projection goes negative
            warnings.simplefilter("ignore", NegativeIntensityWarning)
            _, radiances = observed_trace(train, TraceOptions(compare_oracle=False))
        folded = radiances[1]
        got[name] = folded.radiance
        got[f"{name}_leak"] = folded.meta["theta_leak"]
        got[f"{name}_leak_fraction"] = folded.meta["theta_leak_fraction"]
    distance = SHEAR_REACH * grid.x_extent / (grid.theta_extent / 2)
    # an unobserved trace streams each fold's rows into its last hop's
    # projection: the fold writes a chunk on the threads, and the calling
    # thread adds it before the next is written
    for name, source in sources.items():
        train = OpticalTrain(grid, source, (Element(CodedAperture(mask)), Propagate(distance)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeIntensityWarning)
            warnings.simplefilter("ignore", TruncationWarning)
            trace = trace_train(train, TraceOptions(compare_oracle=False))
        got[f"{name}_projected"] = trace.report.alf_intensity.values
        got[f"{name}_projected_losses"] = [record.truncation_loss for record in trace.stages]
    sheared, got["shear_loss"] = shear_propagate(alf, distance)
    got["shear"] = sheared.radiance
    own, work = test_propagation.own_radiance(alf)
    got["shear_in_place"] = shear_propagate(own, distance, out=work)[0].radiance
    return got


def assert_same_bits(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("split", SPLITS.values(), ids=SPLITS.keys())
def test_every_worker_count_gives_the_one_worker_bits(monkeypatch, split):
    workers, rows = split
    grid = grid_of(rows)
    force_workers(monkeypatch, 1)
    want = outputs(grid)
    force_workers(monkeypatch, workers)
    assert_same_bits(outputs(grid), want)


@pytest.mark.parametrize("split", SPLITS.values(), ids=SPLITS.keys())
def test_an_in_place_shear_gives_the_new_array_bits_at_every_worker_count(monkeypatch, split):
    # no worker reads a column another worker writes
    workers, rows = split
    grid = grid_of(rows)
    force_workers(monkeypatch, workers)
    distance = SHEAR_REACH * grid.x_extent / (grid.theta_extent / 2)
    test_propagation.assert_in_place_gives_the_new_array_bits(random_radiance(grid, 1), distance)


class FailingRows(LightFieldTransformer):
    """A closed-form kernel whose apply fails on the range holding ``meta["bad_row"]``."""

    __slots__ = ()

    def convolver(self, *arrays):
        work = super().convolver(*arrays)

        def failing(lo, hi, workers):
            if lo <= self.meta["bad_row"] < hi:
                raise ArithmeticError(f"row {self.meta['bad_row']}")
            work(lo, hi, workers)

        return failing


# the first of three ranges runs on a pool thread, the last in the caller
BAD_ROWS = {"first": 0, "last": MANY_ROWS - 1}


@pytest.mark.parametrize("bad_row", BAD_ROWS.values(), ids=BAD_ROWS.keys())
def test_a_failing_range_raises_in_the_caller_and_leaves_no_thread(monkeypatch, bad_row):
    grid = grid_of(MANY_ROWS)
    lines = random_lines(grid, 3)
    alf = random_radiance(grid, 1)
    force_workers(monkeypatch, 3)
    before = threading.active_count()
    failing = FailingRows(grid, lines.shifts, lines.weights, lines.rows, {"bad_row": bad_row})
    with pytest.raises(ArithmeticError, match=f"row {bad_row}"):
        apply_transformer(alf, failing)
    assert threading.active_count() == before


def test_stress_many_workers_with_fast_thread_switching(monkeypatch):
    # more workers than cores and a switch every microsecond: a lost or torn
    # write of any range would change the bits
    grid = grid_of(MANY_ROWS)
    force_workers(monkeypatch, 1)
    want = outputs(grid)
    force_workers(monkeypatch, 4 * len(os.sched_getaffinity(0)) + 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rounds, deadline = 0, time.monotonic() + 5.0
        while rounds < 4 and time.monotonic() < deadline:
            assert_same_bits(outputs(grid), want)
            rounds += 1
    finally:
        sys.setswitchinterval(interval)
    assert rounds >= 1


def test_working_memory_bounds_hold_with_four_workers(monkeypatch):
    # four workers share one block budget, so the one-worker bounds still
    # hold; a streamed fold's chunk is shared by the workers
    force_workers(monkeypatch, 4)
    test_transformers.test_line_apply_working_memory_is_one_block()
    test_transformers.test_numeric_kernel_build_and_apply_never_hold_the_table()
    test_propagation.assert_shear_working_memory_is_three_column_blocks()
    test_scenarios.test_a_folded_trace_holds_one_radiance_and_the_working_set()
    test_scenarios.test_a_folded_plane_wave_holds_one_radiance_and_the_working_set()


# Working memory of a 1024 x 1024 numeric apply beside its result, in MiB,
# by worker count.  Its block loop runs with small ufunc buffers
# (wdf._UFUNC_BUFFER): measured 1.873 on one worker and 1.79-1.90 on four.
# At numpy's default each thread's strided products took buffers of their
# own: 1.997 on one worker and 2.33-2.74 on four.
NUMERIC_APPLY_MIB = {1: 1.95, 4: 2.0}


@pytest.mark.parametrize("workers, mib", NUMERIC_APPLY_MIB.items(), ids=[f"{w}_workers" for w in NUMERIC_APPLY_MIB])
def test_a_numeric_apply_holds_its_result_and_a_block(monkeypatch, workers, mib):
    g = make_grid(1024, 2.048e-3, 1024, 0.016, LAM)
    x = g.x_axis()
    rng = np.random.default_rng(4)
    mask = ComplexField(g, (np.abs(x) < 0.5e-3) * np.exp(1j * rng.uniform(-0.5, 0.5, g.x_samples)))
    alf = AugmentedLightField(g, rng.normal(size=(g.x_samples, g.theta_samples)))
    kernel = transformer_from_transmittance(mask, WdfOptions())
    force_workers(monkeypatch, workers)
    tracemalloc.start()
    try:
        applied = apply_transformer(alf, kernel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < applied.radiance.nbytes + mib * 2**20


def test_worker_count_is_the_affinity_count():
    assert core._worker_count() == len(os.sched_getaffinity(0))


def test_import_starts_no_thread():
    code = "import threading, auglf, auglf.cli\nprint(threading.active_count())\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"
