"""INI scenario descriptions for the command line.

A scenario file has a ``[grid]`` section, a ``[source]`` section, one or
more numbered ``[stage.N]`` sections (N starting at 1, contiguous), and
optional ``[output]`` and ``[numerics]`` sections.  Every key is validated;
unknown sections or keys are rejected so typos fail loudly instead of
silently running with defaults.

The keys of ``[grid]``, ``[source]``, ``[output]`` and of each stage are
the fields of the dataclass the section builds (PhaseSpaceGrid, the source
classes, OutputOptions, Propagate and the element classes), with their
types and defaults.  An element's kind is its ``element_label``; elements
with array fields (CodedAperture, PhasePlate) are API-only.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import typing
from dataclasses import dataclass
from typing import Union

from .core import InvalidConfigurationError, PhaseSpaceGrid, make_grid
from .elements import ElementSpec, element_label
from .scenarios import (
    Element,
    OpticalTrain,
    PlaneWave,
    PointSource,
    Propagate,
    TraceOptions,
)
from .wdf import WdfOptions


class ConfigError(InvalidConfigurationError):
    """A scenario file failed to parse or validate."""


@dataclass(frozen=True)
class OutputOptions:
    snapshots: bool = False
    tables: bool = True
    heatmaps: bool = True
    observation: str = "intensity"


def _schema(cls) -> typing.Optional[dict]:
    """``{key: (type, default)}`` of a dataclass; None if a field is no INI scalar.

    An ``Optional[T]`` field reads as ``T`` and defaults to None when absent.
    """
    hints = typing.get_type_hints(cls)
    schema = {}
    for f in dataclasses.fields(cls):
        typ = hints[f.name]
        if typing.get_origin(typ) is Union:
            typ = next(t for t in typing.get_args(typ) if t is not type(None))
        if typ not in (bool, int, float, str):
            return None
        schema[f.name] = (typ, f.default)
    return schema


_SOURCES = {"plane_wave": PlaneWave, "point": PointSource}

_ELEMENTS = {
    element_label(cls): cls
    for cls in typing.get_args(ElementSpec)
    if _schema(cls) is not None
}

_NUMERICS_KEYS = {
    "interp": (str, "linear"),
    "oracle_pad": (int, 2),
    "match_etendue": (bool, True),
    "abort_loss": (float, 0.9),
    "oversample": (int, 1),
    "window": (str, "none"),
}

_BOOL_STATES = {
    "1": True, "yes": True, "true": True, "on": True,
    "0": False, "no": False, "false": False, "off": False,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed, fully validated scenario description."""

    x_samples: int
    x_extent: float
    theta_samples: int
    theta_extent: float
    wavelength: float
    source: Union[PlaneWave, PointSource]
    stages: tuple
    output: OutputOptions
    numerics: dict

    def grid(self, grid_scale: int = 1) -> PhaseSpaceGrid:
        return make_grid(
            self.x_samples * grid_scale,
            self.x_extent,
            self.theta_samples * grid_scale,
            self.theta_extent,
            self.wavelength,
        )

    def train(self, grid_scale: int = 1) -> OpticalTrain:
        return OpticalTrain(
            self.grid(grid_scale),
            self.source,
            self.stages,
            observation=self.output.observation,
        )

    def trace_options(self, compare_oracle: bool = True) -> TraceOptions:
        n = self.numerics
        return TraceOptions(
            interp=n["interp"],
            oracle_pad=n["oracle_pad"],
            match_etendue=n["match_etendue"],
            abort_loss=n["abort_loss"],
            compare_oracle=compare_oracle,
            wdf_options=WdfOptions(
                oversample_factor=n["oversample"], window=n["window"]
            ),
        )

    def echo(self, grid_scale: int = 1) -> dict:
        """Flat string map of every resolved setting, defaults included.

        Settings left unset (None) are omitted, so every line reads back as
        a scenario-file value.
        """
        out = {
            f"grid.{f.name}": _fmt(getattr(self, f.name))
            for f in dataclasses.fields(PhaseSpaceGrid)
        }
        out["grid.x_samples"] = str(self.x_samples * grid_scale)
        out["grid.theta_samples"] = str(self.theta_samples * grid_scale)
        out["grid.scale"] = str(grid_scale)
        out["source.kind"] = next(k for k, cls in _SOURCES.items() if type(self.source) is cls)
        out.update(_echo_fields("source", self.source))
        for k, stage in enumerate(self.stages, start=1):
            prefix = f"stage.{k}"
            if isinstance(stage, Propagate):
                out[f"{prefix}.kind"] = "propagate"
                out.update(_echo_fields(prefix, stage))
            else:
                out[f"{prefix}.kind"] = "element"
                out[f"{prefix}.element"] = element_label(stage.spec)
                out.update(_echo_fields(prefix, stage.spec))
        out.update(_echo_fields("output", self.output))
        for key, value in self.numerics.items():
            out[f"numerics.{key}"] = _fmt(value)
        return out


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _echo_fields(prefix: str, obj) -> dict:
    """Echo lines of a dataclass's fields; unset (None) ones have no INI value and are left out."""
    values = ((f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return {f"{prefix}.{name}": _fmt(value) for name, value in values if value is not None}


def _convert(raw: str, typ, where: str):
    raw = raw.strip()
    try:
        if typ is bool:
            state = _BOOL_STATES.get(raw.lower())
            if state is None:
                raise ValueError(raw)
            return state
        if typ is int:
            return int(raw)
        if typ is float:
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError(raw)
            return value
        return raw
    except ValueError:
        noun = "a finite float" if typ is float else typ.__name__
        raise ConfigError(f"{where}: cannot read {raw!r} as {noun}") from None


def _read(section: str, present: dict, schema: dict) -> dict:
    """Typed values of ``present`` (raw strings by key) under ``schema``."""
    unknown = set(present) - set(schema)
    if unknown:
        raise ConfigError(
            f"[{section}]: unknown key(s) {', '.join(sorted(unknown))}"
        )
    values = {}
    for key, (typ, default) in schema.items():
        if key in present:
            values[key] = _convert(present[key], typ, f"[{section}] {key}")
        elif default is dataclasses.MISSING:
            raise ConfigError(f"[{section}]: missing required key {key}")
        else:
            values[key] = default
    return values


def _checked(where: str, build, **kwargs):
    """``build(**kwargs)``, with its validation errors raised as ConfigError."""
    try:
        return build(**kwargs)
    except InvalidConfigurationError as exc:
        raise ConfigError(f"{where}{exc}") from None


def _build(section: str, present: dict, kind_key: str, kinds: dict, noun: str):
    """The dataclass that ``present[kind_key]`` names, built from the other keys."""
    if kind_key not in present:
        raise ConfigError(f"[{section}]: missing required key {kind_key}")
    kind = present.pop(kind_key).strip()
    if kind not in kinds:
        raise ConfigError(
            f"[{section}]: unknown {noun} {kind!r}; expected one of "
            f"{', '.join(sorted(kinds))}"
        )
    cls = kinds[kind]
    return _checked(f"[{section}]: ", cls, **_read(section, present, _schema(cls)))


def parse_config(path: str) -> ScenarioConfig:
    """Read and validate a scenario file.

    Raises ConfigError (a flavour of invalid-configuration error) on any
    syntax or schema problem; parse errors include the offending line.
    """
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None

    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    stage_numbers = {}
    known = {"grid", "source", "output", "numerics"}
    for name in sections:
        if name in known:
            continue
        if name.startswith("stage."):
            suffix = name[len("stage."):]
            if not suffix.isdigit() or int(suffix) < 1:
                raise ConfigError(
                    f"[{name}]: stage sections are numbered from 1 (stage.1, stage.2, ...)"
                )
            stage_numbers[int(suffix)] = name
            continue
        raise ConfigError(f"unknown section [{name}]")

    for required in ("grid", "source"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")
    if not stage_numbers:
        raise ConfigError("scenario has no [stage.N] sections")
    expected = set(range(1, len(stage_numbers) + 1))
    if set(stage_numbers) != expected:
        raise ConfigError(
            "stage numbers must be contiguous from 1, got "
            f"{sorted(stage_numbers)}"
        )

    grid = _read("grid", sections["grid"], _schema(PhaseSpaceGrid))
    source = _build("source", sections["source"], "kind", _SOURCES, "source")
    stages = []
    for n in sorted(stage_numbers):
        section = stage_numbers[n]
        present = sections[section]
        if "kind" not in present:
            raise ConfigError(f"[{section}]: missing required key kind")
        kind = present.pop("kind").strip()
        if kind == "propagate":
            schema = _schema(Propagate)
            stages.append(_checked(f"[{section}]: ", Propagate, **_read(section, present, schema)))
        elif kind == "element":
            stages.append(Element(_build(section, present, "element", _ELEMENTS, "element")))
        else:
            raise ConfigError(
                f"[{section}]: kind must be propagate or element, got {kind!r}"
            )
    output = _read("output", sections.get("output", {}), _schema(OutputOptions))
    numerics = _read("numerics", sections.get("numerics", {}), _NUMERICS_KEYS)

    cfg = ScenarioConfig(
        **grid,
        source=source,
        stages=tuple(stages),
        output=OutputOptions(**output),
        numerics=numerics,
    )
    _checked("", cfg.train)
    _checked("[numerics]: ", cfg.trace_options)
    return cfg
