import dataclasses
import textwrap
from pathlib import Path

import pytest

from auglf import (
    AmplitudeGrating,
    CubicPhase,
    Element,
    Hologram,
    Lens,
    OpticalTrain,
    PhaseGrating,
    Pinhole,
    PlaneWave,
    PointSource,
    Prism,
    Propagate,
    RectAperture,
    TraceOptions,
    TwoPinholes,
    element_label,
)
from auglf.config import (
    _ELEMENTS,
    _NUMERICS,
    _SOURCES,
    ConfigError,
    OutputOptions,
    _schema,
    parse_config,
)
from auglf.core import PhaseSpaceGrid

BASE = """\
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
distance = 0.05
"""


def write(tmp_path, body, name="scenario.cfg"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(body))
    return str(p)


def test_parses_minimal_scenario(tmp_path):
    cfg = parse_config(write(tmp_path, BASE))
    assert cfg.grid == PhaseSpaceGrid(256, 2.048e-3, 256, 1.2e-2, 633e-9)
    assert isinstance(cfg.source, PlaneWave) and cfg.source.angle == 0.0
    assert len(cfg.stages) == 2
    assert cfg.stages[0].spec == RectAperture(5e-4)
    assert isinstance(cfg.stages[1], Propagate) and cfg.stages[1].distance == 0.05
    train = cfg.train()
    assert isinstance(train, OpticalTrain) and train.grid == cfg.grid
    opts = cfg.trace_options()
    assert opts.interp == "linear" and opts.oracle_pad == 2
    # no [numerics] section: the trace's own defaults, so the two cannot drift
    assert opts == TraceOptions() and opts.wdf_options == TraceOptions().wdf_options
    assert cfg.trace_options(compare_oracle=False) == TraceOptions(compare_oracle=False)


def test_grid_scale_multiplies_sample_counts(tmp_path):
    cfg = parse_config(write(tmp_path, BASE))
    g = cfg.train(grid_scale=2).grid
    assert g.x_samples == 512 and g.theta_samples == 512
    assert g.x_extent == cfg.grid.x_extent  # extent fixed, resolution doubles
    assert cfg.echo(grid_scale=2)["grid.x_samples"] == "512"


def test_echo_resolves_every_default(tmp_path):
    cfg = parse_config(write(tmp_path, BASE))
    echo = cfg.echo()
    assert echo["source.kind"] == "plane_wave"
    assert echo["stage.1.element"] == "rect_aperture"
    assert echo["stage.2.kind"] == "propagate"
    assert echo["output.tables"] == "on"
    assert echo["numerics.interp"] == "linear"
    assert echo["numerics.abort_loss"].startswith("0.9")
    assert all(isinstance(v, str) for v in echo.values())


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def test_shipped_scenarios_parse():
    for name in ("young", "single_lens", "cubic_phase", "hologram"):
        cfg = parse_config(str(CONFIG_DIR / f"{name}.cfg"))
        train = cfg.train()
        assert train.stages, name
        cfg.trace_options()
    holo = parse_config(str(CONFIG_DIR / "hologram.cfg"))
    assert holo.output.observation == "full-phase-space"
    assert any(
        isinstance(s, type(holo.stages[0])) and isinstance(s.spec, Hologram)
        for s in holo.stages
        if hasattr(s, "spec")
    )
    lens_cfg = parse_config(str(CONFIG_DIR / "single_lens.cfg"))
    assert isinstance(lens_cfg.source, PointSource)
    assert any(
        isinstance(getattr(s, "spec", None), Lens) for s in lens_cfg.stages
    )


def test_source_fields_and_booleans(tmp_path):
    body = BASE.replace("kind = plane_wave", "kind = point\nposition = 1e-4")
    body += "\n[output]\nsnapshots = yes\nheatmaps = off\n"
    body += "\n[numerics]\noversample = 2\n"
    cfg = parse_config(write(tmp_path, body))
    assert cfg.source == PointSource(1e-4)
    assert cfg.output.snapshots is True
    assert cfg.output.heatmaps is False
    assert cfg.trace_options().wdf_options.oversample_factor == 2


def test_hologram_include_oscillatory_key_is_rejected(tmp_path):
    # the hologram kernel always carries the cross term; there is no switch
    body = BASE + "\n[stage.3]\nkind = element\nelement = hologram\nsource_distance = 0.1\ninclude_oscillatory = off\n"
    with pytest.raises(ConfigError, match="include_oscillatory"):
        parse_config(write(tmp_path, body))


def test_hologram_width_key(tmp_path):
    stage = "\n[stage.3]\nkind = element\nelement = hologram\nsource_distance = 0.1\n"
    cfg = parse_config(write(tmp_path, BASE + stage + "width = 1.5e-3\n"))
    assert cfg.stages[2].spec == Hologram(0.1, width=1.5e-3)
    cfg = parse_config(write(tmp_path, BASE + stage))
    assert cfg.stages[2].spec.width is None


# one example of every element kind a scenario file can express
ROUND_TRIP_SPECS = (
    Pinhole(-3e-5),
    TwoPinholes(5e-5, -5e-5),
    RectAperture(5e-4),
    AmplitudeGrating(0.8, 1.28e-4),
    Prism(1.5e4),
    Lens(-0.25),
    CubicPhase(4e9),
    PhaseGrating(2.5, 1e-4),
    Hologram(0.1),
    Hologram(0.2, width=1.5e-3),
)


def echo_to_ini(echo):
    """Scenario file text holding every echoed setting."""
    sections = {}
    for key, value in echo.items():
        section, name = key.rsplit(".", 1)
        if key != "grid.scale":
            sections.setdefault(section, []).append(f"{name} = {value}")
    return "".join(f"[{name}]\n" + "\n".join(lines) + "\n\n" for name, lines in sections.items())


def test_every_element_kind_round_trips_through_echo(tmp_path):
    assert {element_label(spec) for spec in ROUND_TRIP_SPECS} == set(_ELEMENTS)
    cfg = parse_config(write(tmp_path, BASE))
    stages = (Propagate(0.02),) + tuple(Element(spec) for spec in ROUND_TRIP_SPECS)
    cfg = dataclasses.replace(cfg, stages=stages)
    again = parse_config(write(tmp_path, echo_to_ini(cfg.echo()), "echoed.cfg"))
    assert again.stages == stages
    assert again == cfg


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_every_kind_and_key():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    for kind, cls in _ELEMENTS.items():
        row = [line for line in section.splitlines() if line.startswith(f"  | `{kind}` |")]
        assert len(row) == 1, kind
        for key in _schema(cls):
            assert f"`{key}`" in row[0], (kind, key)
    for kind, cls in _SOURCES.items():
        assert f"`{kind}` (key `{', '.join(_schema(cls))}`" in section, kind
    for name in ("grid", "source", "stage.1", "output", "numerics"):
        assert f"`[{name}]`" in section, name
    keys = [*_schema(PhaseSpaceGrid), *_schema(Propagate), *_schema(OutputOptions), *_NUMERICS]
    for key in keys:
        assert f"`{key}`" in section, key


def test_two_pinhole_stage(tmp_path):
    body = BASE + "\n[stage.3]\nkind = element\nelement = two_pinholes\na = 5e-5\nb = -5e-5\n"
    cfg = parse_config(write(tmp_path, body))
    assert cfg.stages[2].spec == TwoPinholes(5e-5, -5e-5)


@pytest.mark.parametrize(
    "mutation,needle",
    [
        (lambda b: b.replace("[grid]", "[lattice]"), "unknown section"),
        (lambda b: b.replace("x_extent", "x_span"), "x_span"),
        (lambda b: b.replace("wavelength = 633e-9\n", ""), "wavelength"),
        (lambda b: b.replace("x_samples = 256", "x_samples = many"), "x_samples"),
        (lambda b: b.replace("kind = plane_wave", "kind = laser"), "laser"),
        (lambda b: b.replace("element = rect_aperture", "element = iris"), "iris"),
        (lambda b: b.replace("width = 5e-4", ""), "width"),
        (lambda b: b.replace("width = 5e-4", "width = 5e-4\nradius = 1"), "radius"),
        (lambda b: b.replace("[stage.2]", "[stage.4]"), "stage"),
        (lambda b: b.replace("distance = 0.05", "distance = -0.05"), "distance"),
        (lambda b: b + "\n[numerics]\ninterp = cubic\n", "interp"),
        (lambda b: b + "\n[numerics]\nwindow = hann\n", "window"),
        (lambda b: b + "\n[numerics]\noversample = 3\n", "oversample"),
        (lambda b: b + "\n[numerics]\noracle_pad = 0\n", "oracle_pad"),
        (lambda b: b + "\n[numerics]\nabort_loss = 1.5\n", "abort_loss"),
        (lambda b: b + "\n[numerics]\ncompare_oracle = off\n", "compare_oracle"),
        (lambda b: b + "\n[output]\nobservation = radiance\n", "observation"),
    ],
)
def test_rejects_malformed_scenarios(tmp_path, mutation, needle):
    body = mutation(BASE)
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, body))
    assert needle.lower() in str(err.value).lower()


def test_no_stages_rejected(tmp_path):
    body = BASE.split("[stage.1]")[0]
    with pytest.raises(ConfigError, match="stage"):
        parse_config(write(tmp_path, body))


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "absent.cfg"))
