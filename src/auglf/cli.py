"""Command line front end: run a scenario file and write its outputs.

Exit codes: 0 on success, 2 for configuration problems (unreadable file,
syntax error, schema violation, non-finite number, bad flag value, a
setting the trace itself rejects, or a grid too large for the machine's
memory), 3 when a scenario aborts because a stage destroyed too much
signal.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .config import ConfigError, parse_config
from .core import DegenerateInputError, InvalidConfigurationError, ScenarioAbortError
from .output import (
    fmt17,
    write_heatmap,
    write_json,
    write_manifest,
    write_matrix_csv,
    write_profile_csv,
)
from .scenarios import trace_train


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auglf",
        description="Signed phase-space radiance simulations of thin optical trains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a scenario file and write its outputs")
    run.add_argument("config", help="scenario file (INI format)")
    run.add_argument("--out", required=True, metavar="DIR",
                     help="output directory (created if missing)")
    run.add_argument("--grid-scale", type=int, default=1, metavar="K",
                     help="multiply both grid sample counts by this integer")
    run.add_argument("--compare-oracle", choices=("on", "off"), default="on",
                     help="also run the independent wave pipeline (default on)")
    return parser


def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None


def _fail(message: str, code: int) -> int:
    print(f"auglf: error: {message}", file=sys.stderr)
    return code


def _run(args) -> int:
    if args.grid_scale < 1:
        return _fail(f"--grid-scale must be a positive integer, got {args.grid_scale}", 2)
    try:
        cfg = parse_config(args.config)
        train = cfg.train(args.grid_scale)
        options = cfg.trace_options(compare_oracle=(args.compare_oracle == "on"))
    except (ConfigError, InvalidConfigurationError) as exc:
        return _fail(str(exc), 2)

    grid = train.grid
    # the most a trace holds: two float64 radiances, an apply's input and
    # output (a fold streamed into an unobserved last hop holds none)
    need = 16 * grid.x_samples * grid.theta_samples
    memory = _physical_memory()
    if memory is not None and need > memory:
        return _fail(
            f"a {grid.x_samples} x {grid.theta_samples} grid needs at least {need} bytes "
            f"for two radiances, more than the {memory} bytes of physical memory",
            2,
        )

    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        return _fail(f"cannot create output directory {args.out}: {exc.strerror}", 2)

    x = grid.x_axis()
    theta = grid.theta_axis()
    written = []

    def emit_heatmap(base: str, matrix) -> None:
        ppm, sidecar = write_heatmap(os.path.join(args.out, base), matrix, x, theta)
        written.extend([ppm, sidecar])

    snapshots = cfg.output.snapshots and cfg.output.heatmaps
    full = cfg.output.observation == "full-phase-space" and (cfg.output.heatmaps or cfg.output.tables)
    last = []  # the radiance of the last stage, which no later stage writes

    def observe(record, alf) -> None:
        # each stage's radiance is written as the stage completes, before
        # the next stage shears it in place
        if snapshots:
            emit_heatmap(f"stage_{record.index:02d}_{record.label}", alf.radiance)
        last[:] = [alf]

    try:
        # without radiance outputs nothing observes the trace, and its last
        # hop is projected without a sheared radiance
        trace = trace_train(train, options, observe=observe if snapshots or full else None)
    except ScenarioAbortError as exc:
        print(f"auglf: aborted: {exc}", file=sys.stderr)
        return 3
    except (InvalidConfigurationError, DegenerateInputError) as exc:
        return _fail(str(exc), 2)
    except MemoryError as exc:
        return _fail(f"out of memory while tracing the scenario: {exc}", 2)

    if full:
        [final] = last
        if cfg.output.heatmaps:
            emit_heatmap("final_radiance", final.radiance)
        if cfg.output.tables:
            path = os.path.join(args.out, "final_radiance.csv")
            write_matrix_csv(path, x, theta, final.radiance)
            written.append(path)

    report = trace.report
    if cfg.output.tables:
        path = os.path.join(args.out, "final_intensity.csv")
        write_profile_csv(path, x, report.alf_intensity.values)
        written.append(path)
        if report.oracle_intensity is not None:
            path = os.path.join(args.out, "oracle_intensity.csv")
            write_profile_csv(path, x, report.oracle_intensity.values)
            written.append(path)

    report_path = os.path.join(args.out, "report.json")
    write_json(
        report_path,
        {
            "relative_l2_error": report.relative_l2_error,
            "peak_offset_cells": report.peak_offset_cells,
            "truncation_loss": report.truncation_loss,
            "negativity": report.negativity,
            "stages": [
                {
                    "index": record.index,
                    "label": record.label,
                    "truncation_loss": record.truncation_loss,
                    **({} if record.kernel is None else {"kernel": record.kernel}),
                }
                for record in trace.stages
            ],
        },
    )
    written.append(report_path)

    echo = cfg.echo(args.grid_scale)
    echo["cli.compare_oracle"] = args.compare_oracle
    manifest_path = write_manifest(args.out, echo, written)

    print(f"wrote {len(written) + 1} files to {args.out}")
    if report.oracle_intensity is not None:
        print(f"relative L2 error vs wave reference: {fmt17(report.relative_l2_error)}")
        print(f"peak offset: {fmt17(report.peak_offset_cells)} cells")
    else:
        print("oracle comparison off")
    print(f"cumulative truncation loss: {fmt17(report.truncation_loss)}")
    print(f"manifest: {manifest_path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _run(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
