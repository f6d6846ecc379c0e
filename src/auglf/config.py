"""INI scenario descriptions for the command line.

A scenario file has a ``[grid]`` section, a ``[source]`` section, one or
more numbered ``[stage.N]`` sections (N starting at 1, contiguous), and
optional ``[output]`` and ``[numerics]`` sections.  Every key is validated;
unknown sections or keys are rejected so typos fail loudly instead of
silently running with defaults.

The keys of every section are the fields of the dataclass it builds
(PhaseSpaceGrid, the source classes, Propagate, the element classes,
OutputOptions and TraceOptions), with their types and defaults; the
parser, the validation and the echo all read them from there.
TraceOptions.compare_oracle is the command line's ``--compare-oracle``,
not a ``[numerics]`` key.  An element's kind is its ``element_label``;
CodedAperture, whose mask is a sampled field, is API-only.
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


class ConfigError(InvalidConfigurationError):
    """A scenario file failed to parse or validate."""


@dataclass(frozen=True)
class OutputOptions:
    snapshots: bool = False
    tables: bool = True
    heatmaps: bool = True
    observation: str = "intensity"

    def __post_init__(self) -> None:
        if self.observation not in ("intensity", "full-phase-space"):
            raise InvalidConfigurationError(
                f"observation must be intensity or full-phase-space, got {self.observation!r}"
            )


def _schema(cls) -> typing.Optional[dict]:
    """``{key: (type, default)}`` of a dataclass; None if a field is no INI scalar.

    An ``Optional[T]`` field reads as ``T`` and defaults to None when absent.
    Fields the constructor does not take are no keys.
    """
    hints = typing.get_type_hints(cls)
    schema = {}
    for f in dataclasses.fields(cls):
        if not f.init:
            continue
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

# compare_oracle is set on the command line, never in a scenario file
_NUMERICS = {k: v for k, v in _schema(TraceOptions).items() if k != "compare_oracle"}

_BOOL_STATES = {
    "1": True, "yes": True, "true": True, "on": True,
    "0": False, "no": False, "false": False, "off": False,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed, fully validated scenario description."""

    grid: PhaseSpaceGrid
    source: Union[PlaneWave, PointSource]
    stages: tuple
    output: OutputOptions
    options: TraceOptions

    def train(self, grid_scale: int = 1) -> OpticalTrain:
        """The scenario's train, on the grid with both sample counts times ``grid_scale``."""
        return OpticalTrain(_scaled(self.grid, grid_scale), self.source, self.stages)

    def trace_options(self, compare_oracle: bool = True) -> TraceOptions:
        return dataclasses.replace(self.options, compare_oracle=compare_oracle)

    def echo(self, grid_scale: int = 1) -> dict:
        """Flat string map of every resolved setting, defaults included.

        Settings left unset (None) are omitted, so every line reads back as
        a scenario-file value.
        """
        out = _echo_fields("grid", _scaled(self.grid, grid_scale))
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
        out.update(_echo_fields("numerics", self.options, _NUMERICS))
        return out


def _scaled(grid: PhaseSpaceGrid, scale: int) -> PhaseSpaceGrid:
    return dataclasses.replace(
        grid, x_samples=grid.x_samples * scale, theta_samples=grid.theta_samples * scale
    )


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _echo_fields(prefix: str, obj, schema: typing.Optional[dict] = None) -> dict:
    """Echo lines of a dataclass's keys (``schema``, by default its own).

    Unset (None) values have no INI value and are left out.
    """
    values = ((key, getattr(obj, key)) for key in schema or _schema(type(obj)))
    return {f"{prefix}.{key}": _fmt(value) for key, value in values if value is not None}


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


def _section(section: str, present: dict, cls, schema: typing.Optional[dict] = None):
    """``cls`` built from the keys of ``schema`` (default: its own); its errors raise ConfigError."""
    values = _read(section, present, schema or _schema(cls))
    try:
        return cls(**values)
    except InvalidConfigurationError as exc:
        raise ConfigError(f"[{section}]: {exc}") from None


def _kind(section: str, present: dict, kind_key: str, kinds, noun: str) -> str:
    """``present[kind_key]``, taken out of ``present``; one of ``kinds``."""
    if kind_key not in present:
        raise ConfigError(f"[{section}]: missing required key {kind_key}")
    kind = present.pop(kind_key).strip()
    if kind not in kinds:
        raise ConfigError(
            f"[{section}]: unknown {noun} {kind!r}; expected one of "
            f"{', '.join(sorted(kinds))}"
        )
    return kind


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
    if sorted(stage_numbers) != list(range(1, len(stage_numbers) + 1)):
        raise ConfigError(f"stage numbers must be contiguous from 1, got {sorted(stage_numbers)}")

    grid = _section("grid", sections["grid"], make_grid, _schema(PhaseSpaceGrid))
    kind = _kind("source", sections["source"], "kind", _SOURCES, "source")
    source = _section("source", sections["source"], _SOURCES[kind])
    stages = []
    for n in sorted(stage_numbers):
        section = stage_numbers[n]
        present = sections[section]
        if _kind(section, present, "kind", ("propagate", "element"), "stage kind") == "propagate":
            stages.append(_section(section, present, Propagate))
        else:
            element = _ELEMENTS[_kind(section, present, "element", _ELEMENTS, "element")]
            stages.append(Element(_section(section, present, element)))
    return ScenarioConfig(
        grid=grid,
        source=source,
        stages=tuple(stages),
        output=_section("output", sections.get("output", {}), OutputOptions),
        options=_section("numerics", sections.get("numerics", {}), TraceOptions, _NUMERICS),
    )
