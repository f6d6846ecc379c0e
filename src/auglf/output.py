"""Deterministic file outputs: CSV tables, portable pixmap heatmaps, manifests.

Every writer here produces byte-identical files for identical inputs: floats
are printed with 17 significant digits (lossless for doubles), JSON keys are
sorted, and nothing embeds a timestamp or a path from outside the output
directory.  CSV tables hold exactly the bytes of ``"%.17g" % x`` per cell,
formatted by :func:`auglf.csvtext.format_cells` a block of whole rows at a
time; a block is about a 128th of the table.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterable

import numpy as np

from .csvtext import Workspace, format_cells

ZERO_RGB = (128, 128, 128)
POSITIVE_RGB = (255, 0, 0)
NEGATIVE_RGB = (0, 0, 255)
# Rows of a matrix coloured at a time: the heatmap writer holds a block's
# colour planes, never the whole matrix's.
_BLOCK_ROWS = 64
# Fewest cells of a CSV table formatted at a time, unless one row is more.
# Larger tables are formatted a 128th at a time, which spreads numpy's
# per-call cost over more cells.  A table's workspace takes 98 bytes a cell
# of its block, and a block's text up to 32 more while it is written:
# about 65 KiB at the floor, and about 1 MiB for a 1024 x 1025 table.
_BLOCK_CELLS = 512


def _row_blocks(count: int):
    """Slices of ``_BLOCK_ROWS`` rows covering ``count`` rows; the last may be short."""
    for lo in range(0, count, _BLOCK_ROWS):
        yield slice(lo, min(lo + _BLOCK_ROWS, count))


def fmt17(value: float) -> str:
    """17 significant digits: enough to round-trip any double, not the shortest text.

    ``fmt17(0.1)`` is ``"0.10000000000000001"``.
    """
    return f"{value:.17g}"


def _write_table(handle, lead: np.ndarray, rest: np.ndarray) -> None:
    """Write the rows ``lead[r], rest[r, 0], ..., rest[r, -1]`` as CSV lines.

    Whole rows are copied into a staging array and formatted a block at a
    time, every block in the one workspace made for the table.  A block is
    about a 128th of the table, and at least ``_BLOCK_CELLS`` cells or one
    row.
    """
    rows, width = len(lead), rest.shape[1] + 1
    step = max(1, max(_BLOCK_CELLS, rows * width // 128) // width)
    stage = np.empty((min(step, rows), width))
    work = Workspace(stage.size)
    for lo in range(0, rows, step):
        block = stage[: min(step, rows - lo)]
        block[:, 0] = lead[lo : lo + step]
        block[:, 1:] = rest[lo : lo + step]
        handle.write(format_cells(block.ravel(), width, lo * width, work))


def write_profile_csv(path: str, axis: np.ndarray, values: np.ndarray) -> None:
    """Two-column CSV with the header row ``x_m,intensity``."""
    axis = np.asarray(axis, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if axis.shape != values.shape or axis.ndim != 1:
        raise ValueError(f"profile shapes differ: axis {axis.shape}, values {values.shape}")
    with open(path, "wb") as handle:
        handle.write(b"x_m,intensity\n")
        _write_table(handle, axis, values[:, np.newaxis])


def write_matrix_csv(path: str, row_axis: np.ndarray, col_axis: np.ndarray, matrix: np.ndarray) -> None:
    """Matrix CSV: header ``x_m\\theta_rad,`` then the column axis; first column the row axis."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (len(row_axis), len(col_axis)):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match axes "
            f"({len(row_axis)}, {len(col_axis)})"
        )
    if not len(col_axis):
        raise ValueError("matrix has no columns")
    row_axis = np.asarray(row_axis, dtype=np.float64)
    col_axis = np.asarray(col_axis, dtype=np.float64)
    with open(path, "wb") as handle:
        handle.write(b"x_m\\theta_rad,")
        _write_table(handle, col_axis[:1], col_axis[np.newaxis, 1:])  # one row: the column axis
        _write_table(handle, row_axis, matrix)


def _abs_max(matrix: np.ndarray) -> float:
    """Largest magnitude in ``matrix`` (NaN if it holds one), a block of rows at a time."""
    return float(np.max([np.abs(matrix[rows]).max() for rows in _row_blocks(len(matrix))]))


def _rgb_blocks(matrix: np.ndarray, vmax: float):
    """Yield ``(rows, rgb)``: the colours of each block of rows of ``matrix``.

    All blocks share one set of planes made per image, so each ``rgb`` is
    overwritten by the next block: use it before asking for the next.
    """
    height, width = matrix.shape
    shape = (min(_BLOCK_ROWS, height), width)
    planes = np.empty((4,) + shape)
    rgb_buf = np.full(shape + (3,), ZERO_RGB[0], dtype=np.uint8)
    for rows in _row_blocks(height):
        count = rows.stop - rows.start
        rgb = rgb_buf[:count]
        if vmax <= 0.0:  # a blank image: every block stays grey
            yield rows, rgb
            continue
        t, pos, neg, channel = planes[:, :count]
        np.divide(matrix[rows], vmax, out=t)
        np.clip(t, -1.0, 1.0, out=t)
        np.clip(t, 0.0, 1.0, out=pos)
        np.clip(np.negative(t, out=neg), 0.0, 1.0, out=neg)
        for c in range(3):
            # ZERO + pos * (POSITIVE - ZERO) + neg * (NEGATIVE - ZERO), the last term in t
            np.multiply(pos, POSITIVE_RGB[c] - ZERO_RGB[c], out=channel)
            channel += ZERO_RGB[c]
            channel += np.multiply(neg, NEGATIVE_RGB[c] - ZERO_RGB[c], out=t)
            rgb[..., c] = np.clip(np.rint(channel, out=channel), 0, 255, out=channel)
        yield rows, rgb


def write_heatmap(
    path_base: str,
    matrix: np.ndarray,
    x_axis: np.ndarray,
    theta_axis: np.ndarray,
) -> tuple[str, str]:
    """Binary PPM image plus a JSON sidecar describing scale and axes.

    The matrix is indexed (position, angle); the image puts position along
    the width and angle along the height with positive angles at the top.
    Returns the two paths written.  The image is coloured and written a
    block of pixel rows at a time.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    image = matrix.T[::-1, :]
    vmax = _abs_max(image)
    height, width = image.shape
    ppm_path = path_base + ".ppm"
    with open(ppm_path, "wb") as handle:
        handle.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        for _, rgb in _rgb_blocks(image, vmax):
            handle.write(rgb)
    sidecar = {
        "format": "P6",
        "width": width,
        "height": height,
        "value_at_peak": fmt17(vmax),
        "value_at_zero": fmt17(0.0),
        "zero_rgb": list(ZERO_RGB),
        "positive_rgb": list(POSITIVE_RGB),
        "negative_rgb": list(NEGATIVE_RGB),
        "columns": "position, left to right",
        "rows": "angle, top is most positive",
        "x_min_m": fmt17(float(x_axis[0])),
        "x_step_m": fmt17(float(x_axis[1] - x_axis[0])) if len(x_axis) > 1 else "0",
        "theta_min_rad": fmt17(float(theta_axis[0])),
        "theta_step_rad": (
            fmt17(float(theta_axis[1] - theta_axis[0])) if len(theta_axis) > 1 else "0"
        ),
    }
    json_path = path_base + ".json"
    _write_json(json_path, sidecar)
    return ppm_path, json_path


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(obj, handle, sort_keys=True, indent=2)
        handle.write("\n")


def write_json(path: str, obj) -> None:
    """Sorted-key JSON with a trailing newline; NaN is mapped to null."""
    _write_json(path, _sanitize(obj))


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def sha256_file(path: str) -> str:
    """SHA-256 of a file, read unbuffered into one 1 MiB buffer reused chunk after chunk."""
    digest = hashlib.sha256()
    buf = bytearray(1 << 20)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as handle:
        while count := handle.readinto(buf):
            digest.update(view[:count])
    return digest.hexdigest()


def write_manifest(out_dir: str, config_echo: dict, paths: Iterable[str]) -> str:
    """Checksum manifest over every produced file, plus the resolved config.

    Paths are stored relative to the output directory and sorted, so two
    runs with identical outputs produce identical manifests.
    """
    entries = []
    for path in sorted(paths):
        rel = os.path.relpath(path, out_dir)
        entries.append(
            {
                "path": rel.replace(os.sep, "/"),
                "sha256": sha256_file(path),
                "bytes": os.path.getsize(path),
            }
        )
    manifest = {"config": dict(sorted(config_echo.items())), "outputs": entries}
    path = os.path.join(out_dir, "manifest.json")
    _write_json(path, manifest)
    return path
