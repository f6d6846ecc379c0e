import contextlib
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from auglf import (
    ClippedOrderWarning,
    DegenerateInputError,
    NegativeIntensityWarning,
    SamplingWarning,
    apply_transformer,
    canonical_transformer,
    shear_propagate,
)
from auglf.cli import main
from auglf.config import parse_config
from auglf.output import sha256_file, write_heatmap
from oracles import matrix_csv_text
from test_scenarios import observed_trace

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

SMALL = """\
[grid]
x_samples = 256
x_extent = 2.048e-3
theta_samples = 256
theta_extent = 1.2e-2
wavelength = 633e-9

[source]
kind = plane_wave

[stage.1]
kind = element
element = rect_aperture
width = 5e-4

[stage.2]
kind = propagate
distance = 0.02
"""


def read_profile_csv(path):
    data = np.atleast_2d(np.genfromtxt(path, delimiter=",", skip_header=1, dtype=np.float64))
    return data[:, 0], data[:, 1]


def small_config(tmp_path, extra=""):
    p = tmp_path / "small.cfg"
    p.write_text(SMALL + extra)
    return str(p)


def test_run_writes_expected_files(tmp_path):
    out = tmp_path / "out"
    code = main(["run", str(CONFIG_DIR / "young.cfg"), "--out", str(out)])
    assert code == 0
    for name in (
        "final_intensity.csv",
        "oracle_intensity.csv",
        "report.json",
        "manifest.json",
    ):
        assert (out / name).is_file(), name
    report = json.loads((out / "report.json").read_text())
    assert report["relative_l2_error"] < 0.2
    assert [s["label"] for s in report["stages"]] == [
        "source",
        "two_pinholes",
        "propagate_0.1m",
    ]
    # element stages name the kernel that ran
    assert [s.get("kernel") for s in report["stages"]] == [None, "two_pinholes", None]
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {e["path"]: e["sha256"] for e in manifest["outputs"]}
    assert listed["final_intensity.csv"] == sha256_file(str(out / "final_intensity.csv"))
    assert manifest["config"]["grid.x_samples"] == "1024"
    assert manifest["config"]["cli.compare_oracle"] == "on"


# Ceiling of each shipped scenario's rel. L2 against the wave reference,
# which lives on the position window as the radiance does (measured
# 0.00316, 0.00014, 0.00357 and 0.0137).
REL_L2_CEILINGS = {"young": 0.005, "single_lens": 0.0005, "cubic_phase": 0.005, "hologram": 0.02}


@pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.stem)
def test_every_shipped_config_runs(tmp_path, config):
    out = tmp_path / "out"
    # no config warns, but for cubic_phase's lens, whose steepest rays leave
    # the angle window
    expected = pytest.warns(ClippedOrderWarning) if config.stem == "cubic_phase" else contextlib.nullcontext()
    with expected:
        assert main(["run", str(config), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"]
    for entry in manifest["outputs"]:
        assert entry["sha256"] == sha256_file(str(out / entry["path"])), entry["path"]
    # every shipped scenario agrees with the wave reference under its own
    # ceiling; young's fringes have equal maxima, so its peak may sit on
    # another fringe
    report = json.loads((out / "report.json").read_text())
    assert report["relative_l2_error"] <= REL_L2_CEILINGS[config.stem]
    if config.stem != "young":
        assert abs(report["peak_offset_cells"]) <= 2
    _, intensity = read_profile_csv(str(out / "final_intensity.csv"))
    assert report["negativity"] == -intensity.min() / intensity.max()
    assert report["negativity"] <= 1e-2


def test_hologram_radiance_table_is_per_value_text(tmp_path):
    # the full 1024 x 1025 table the benchmark writes, cell by cell "%.17g"
    config = str(CONFIG_DIR / "hologram.cfg")
    out = tmp_path / "out"
    assert main(["run", config, "--out", str(out)]) == 0
    cfg = parse_config(config)
    train = cfg.train(1)
    trace, radiances = observed_trace(train, cfg.trace_options(compare_oracle=False))
    final = radiances[trace.stages[-1].index]
    want = matrix_csv_text(train.grid.x_axis(), train.grid.theta_axis(), final.radiance)
    assert (out / "final_radiance.csv").read_bytes() == want


@pytest.mark.filterwarnings("error::auglf.NegativeIntensityWarning")
def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cfg = small_config(tmp_path)
    assert main(["run", cfg, "--out", str(a)]) == 0
    assert main(["run", cfg, "--out", str(b)]) == 0
    for name in ("final_intensity.csv", "oracle_intensity.csv", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.filterwarnings("error::auglf.NegativeIntensityWarning")
def test_oracle_can_be_switched_off(tmp_path):
    out = tmp_path / "out"
    code = main(["run", small_config(tmp_path), "--out", str(out), "--compare-oracle", "off"])
    assert code == 0
    assert not (out / "oracle_intensity.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["relative_l2_error"] is None  # NaN serializes to null


@pytest.mark.filterwarnings("error::auglf.NegativeIntensityWarning")
def test_grid_scale_doubles_the_table(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    cfg = small_config(tmp_path)
    assert main(["run", cfg, "--out", str(out1), "--compare-oracle", "off"]) == 0
    assert main(["run", cfg, "--out", str(out2), "--compare-oracle", "off", "--grid-scale", "2"]) == 0
    x1, _ = read_profile_csv(str(out1 / "final_intensity.csv"))
    x2, _ = read_profile_csv(str(out2 / "final_intensity.csv"))
    assert len(x2) == 2 * len(x1)
    assert main(["run", cfg, "--out", str(tmp_path / "s0"), "--grid-scale", "0"]) == 2


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL.replace("[grid]", "[lattice]"))
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "o")]) == 2


def test_hologram_include_oscillatory_key_exits_2(tmp_path, capsys):
    # there is no such key: the hologram kernel always carries the cross term
    stage = (
        "\n[stage.3]\nkind = element\nelement = hologram\nsource_distance = 0.1\n"
        "include_oscillatory = off\n"
    )
    out = tmp_path / "o"
    assert main(["run", small_config(tmp_path, stage), "--out", str(out)]) == 2
    assert "include_oscillatory" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, message",
    # both shears use one row shifter and every wave hop clamps to the angle
    # window's band, so neither is a setting
    [
        ("window = hann", "window"),
        ("interp = linear", "unknown key(s) interp"),
        ("match_etendue = on", "unknown key(s) match_etendue"),
    ],
    ids=["window", "interp", "match_etendue"],
)
def test_bad_numerics_value_exits_2_before_any_output(tmp_path, capsys, line, message):
    out = tmp_path / "o"
    cfg = small_config(tmp_path, f"\n[numerics]\n{line}\n")
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("kind = plane_wave", "kind = plane_wave\nangle = nan", "angle"),
        ("distance = 0.02", "distance = inf", "distance"),
        ("width = 5e-4", "width = -inf", "width"),
    ],
    ids=["nan_angle", "inf_distance", "minus_inf_width"],
)
def test_non_finite_numbers_exit_2_at_parse_time(tmp_path, capsys, old, new, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SMALL.replace(old, new))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert key in err and "finite" in err
    assert not out.exists()


def test_settings_rejected_during_the_trace_exit_2(tmp_path, capsys):
    # a point source outside the position window passes the parser and is
    # rejected only when the trace builds the source radiance
    body = SMALL.replace("kind = plane_wave", "kind = point\nposition = 0.5")
    cfg = tmp_path / "outside.cfg"
    cfg.write_text(body)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "outside the window" in capsys.readouterr().err


def test_pinhole_outside_the_window_exits_2(tmp_path, capsys):
    # two_pinholes b lies 2 m off axis, far outside the 2.048 mm window
    stage = "\n[stage.3]\nkind = element\nelement = two_pinholes\na = 1e-4\nb = 2.0\n"
    assert main(["run", small_config(tmp_path, stage), "--out", str(tmp_path / "o")]) == 2
    assert "pinhole b at 2 m lies outside the window" in capsys.readouterr().err


def test_undersampled_hologram_warns_on_run(tmp_path):
    # a 1 mm recording distance puts the chirp's edge frequency at 1.6e6
    # cycles/m, past the grid Nyquist of 6.25e4
    stage = "\n[stage.3]\nkind = element\nelement = hologram\nsource_distance = 1e-3\n"
    out = str(tmp_path / "o")
    # the undersampled kernel also drives the projection negative
    with pytest.warns(SamplingWarning, match="undersampled"), pytest.warns(NegativeIntensityWarning):
        assert main(["run", small_config(tmp_path, stage), "--out", out, "--compare-oracle", "off"]) == 0


def test_degenerate_input_during_the_trace_exits_2(tmp_path, capsys, monkeypatch):
    import auglf.cli

    def degenerate(train, options, observe=None):
        raise DegenerateInputError("radiance: non-finite samples")

    monkeypatch.setattr(auglf.cli, "trace_train", degenerate)
    assert main(["run", small_config(tmp_path), "--out", str(tmp_path / "o")]) == 2
    assert "non-finite samples" in capsys.readouterr().err


def test_a_grid_larger_than_memory_exits_2_before_any_array_is_made(tmp_path, capsys, monkeypatch):
    import auglf.cli

    def never(*args, **kwargs):
        raise AssertionError("the trace ran")

    monkeypatch.setattr(auglf.cli, "trace_train", never)
    out = tmp_path / "o"
    # 409600 x 409600 samples: two radiances are 2.7e12 bytes
    tracemalloc.start()
    try:
        code = main(["run", str(CONFIG_DIR / "hologram.cfg"), "--grid-scale", "400", "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"needs at least {409600 * 409600 * 16} bytes" in capsys.readouterr().err
    assert peak < 2**20
    assert not out.exists()


def test_running_out_of_memory_in_the_trace_exits_2(tmp_path, capsys, monkeypatch):
    import auglf.cli

    def exhausted(train, options, observe=None):
        raise MemoryError("Unable to allocate 8.00 MiB")

    monkeypatch.setattr(auglf.cli, "trace_train", exhausted)
    assert main(["run", small_config(tmp_path), "--out", str(tmp_path / "o")]) == 2
    assert "out of memory" in capsys.readouterr().err


def test_aborted_scenario_exits_3(tmp_path, capsys):
    body = SMALL.replace("kind = plane_wave", "kind = plane_wave\nangle = 4.5e-3")
    body = body.replace("distance = 0.02", "distance = 2.0") + "\n[output]\nsnapshots = on\n"
    cfg = tmp_path / "abort.cfg"
    cfg.write_text(body)
    out = tmp_path / "o"
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["run", str(cfg), "--out", str(out), "--compare-oracle", "off"])
    assert code == 3
    assert "aborted" in capsys.readouterr().err
    # the slit's snapshot was written as it completed; the hop then aborted
    assert sorted(p.name for p in out.iterdir()) == [
        "stage_01_source+rect_aperture.json",
        "stage_01_source+rect_aperture.ppm",
    ]


def test_an_out_of_window_plane_wave_before_a_slit_exits_2(tmp_path, capsys):
    # the window's upper edge, 6e-3 rad, is not a node; its lower edge is
    cfg = tmp_path / "tilted.cfg"
    cfg.write_text(SMALL.replace("kind = plane_wave\n", "kind = plane_wave\nangle = 6e-3\n"))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "outside the angular window" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::auglf.NegativeIntensityWarning")
def test_snapshot_heatmaps(tmp_path):
    out = tmp_path / "out"
    # a lens after the hop: an apply behind a radiance sheared in place
    extra = "\n[stage.3]\nkind = element\nelement = lens\nfocal_length = 0.5\n\n[output]\nsnapshots = on\n"
    config = small_config(tmp_path, extra)
    code = main(["run", config, "--out", str(out), "--compare-oracle", "off"])
    assert code == 0
    # the plane wave is folded into the slit: no source record of its own
    bases = ("stage_01_source+rect_aperture", "stage_02_propagate_0.02m", "stage_03_lens")
    for base in bases:
        assert (out / f"{base}.ppm").is_file()
        assert (out / f"{base}.json").is_file()
    assert not list(out.glob("stage_00_*"))
    # each snapshot is its stage's radiance, written before the next stage
    # sheared that radiance in place
    cfg = parse_config(config)
    train, options = cfg.train(1), cfg.trace_options()
    grid = train.grid
    slit, hop, lens = train.stages
    folded = canonical_transformer(slit.spec, grid, options.wdf_options).behind_plane_wave(grid.theta_index(0.0))
    sheared, _ = shear_propagate(folded, hop.distance)
    lensed = apply_transformer(sheared, canonical_transformer(lens.spec, grid, options.wdf_options))
    (tmp_path / "want").mkdir()
    for base, alf in zip(bases, (folded, sheared, lensed)):
        ppm, sidecar = write_heatmap(str(tmp_path / "want" / base), alf.radiance, grid.x_axis(), grid.theta_axis())
        assert (out / f"{base}.ppm").read_bytes() == Path(ppm).read_bytes(), base
        assert (out / f"{base}.json").read_bytes() == Path(sidecar).read_bytes(), base


def test_snapshots_leave_the_final_intensity_and_report_as_an_unobserved_run_gives(tmp_path):
    # snapshots observe the trace, so its last hop is sheared; without them
    # it is projected along the sheared lines, to rounding the same numbers
    plain, snapped = tmp_path / "plain", tmp_path / "snapped"
    assert main(["run", small_config(tmp_path), "--out", str(plain)]) == 0
    config = small_config(tmp_path, "\n[output]\nsnapshots = on\n")
    assert main(["run", config, "--out", str(snapped)]) == 0
    assert not list(plain.glob("stage_*")) and list(snapped.glob("stage_*"))
    _, want = read_profile_csv(str(snapped / "final_intensity.csv"))
    _, got = read_profile_csv(str(plain / "final_intensity.csv"))
    assert np.abs(got - want).max() <= 1e-12 * want.max()
    assert (plain / "oracle_intensity.csv").read_bytes() == (snapped / "oracle_intensity.csv").read_bytes()
    reports = [json.loads((out / "report.json").read_text()) for out in (plain, snapped)]
    for key in ("truncation_loss", "negativity"):
        assert abs(reports[0][key] - reports[1][key]) <= 1e-12
    for a, b in zip(reports[0]["stages"], reports[1]["stages"]):
        assert a.keys() == b.keys() and a["label"] == b["label"]
        assert abs(a["truncation_loss"] - b["truncation_loss"]) <= 1e-12


@pytest.mark.filterwarnings("error::auglf.NegativeIntensityWarning")
def test_full_phase_space_observation(tmp_path):
    out = tmp_path / "out"
    extra = "\n[output]\nobservation = full-phase-space\n"
    code = main(["run", small_config(tmp_path, extra), "--out", str(out), "--compare-oracle", "off"])
    assert code == 0
    assert (out / "final_radiance.csv").is_file()
    assert (out / "final_radiance.ppm").is_file()
    assert (out / "final_radiance.json").is_file()


def test_module_entry_point(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "auglf", "run", small_config(tmp_path),
         "--out", str(out), "--compare-oracle", "off"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote" in proc.stdout
    assert (out / "final_intensity.csv").is_file()
