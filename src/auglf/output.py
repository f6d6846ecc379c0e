"""Deterministic file outputs: CSV tables, portable pixmap heatmaps, manifests.

Every writer here produces byte-identical files for identical inputs: floats
are printed with 17 significant digits (lossless for doubles), JSON keys are
sorted, and nothing embeds a timestamp or a path from outside the output
directory.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterable, Optional

import numpy as np

ZERO_RGB = (128, 128, 128)
POSITIVE_RGB = (255, 0, 0)
NEGATIVE_RGB = (0, 0, 255)


def fmt17(value: float) -> str:
    """Shortest representation with enough digits to round-trip a double."""
    return f"{value:.17g}"


def write_profile_csv(
    path: str, axis: np.ndarray, values: np.ndarray,
    axis_label: str = "x_m", value_label: str = "intensity",
) -> None:
    """Two-column CSV with a header row."""
    axis = np.asarray(axis, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    lines = [f"{axis_label},{value_label}"]
    lines.extend("%.17g,%.17g" % pair for pair in zip(axis.tolist(), values.tolist()))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def read_profile_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    data = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=np.float64)
    data = np.atleast_2d(data)
    return data[:, 0].copy(), data[:, 1].copy()


def write_matrix_csv(
    path: str,
    row_axis: np.ndarray,
    col_axis: np.ndarray,
    matrix: np.ndarray,
    row_label: str = "x_m",
    col_label: str = "theta_rad",
) -> None:
    """Matrix CSV: header carries the column axis, first column the row axis."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (len(row_axis), len(col_axis)):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match axes "
            f"({len(row_axis)}, {len(col_axis)})"
        )
    header = f"{row_label}\\{col_label}," + ",".join(fmt17(c) for c in col_axis)
    # one format string per row: "%.17g" prints exactly what fmt17 does
    row_format = "%.17g," + ",".join(["%.17g"] * matrix.shape[1])
    lines = [header]
    for r, row in zip(np.asarray(row_axis, dtype=np.float64).tolist(), matrix.tolist()):
        lines.append(row_format % (r, *row))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def read_matrix_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
        col_axis = np.array([float(v) for v in header[1:]])
        rows = []
        row_axis = []
        for line in handle:
            parts = line.rstrip("\n").split(",")
            if len(parts) < 2:
                continue
            row_axis.append(float(parts[0]))
            rows.append([float(v) for v in parts[1:]])
    return np.array(row_axis), col_axis, np.array(rows)


def diverging_rgb(matrix: np.ndarray, vmax: Optional[float] = None) -> np.ndarray:
    """Signed values to RGB: zero is mid-gray, positive red, negative blue."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if vmax is None:
        vmax = float(np.abs(matrix).max())
    if vmax <= 0.0:
        return np.full(matrix.shape + (3,), ZERO_RGB[0], dtype=np.uint8)
    t = np.clip(matrix / vmax, -1.0, 1.0)
    pos = np.clip(t, 0.0, 1.0)
    neg = np.clip(-t, 0.0, 1.0)
    rgb = np.empty(matrix.shape + (3,), dtype=np.uint8)
    for c in range(3):
        channel = (
            ZERO_RGB[c]
            + pos * (POSITIVE_RGB[c] - ZERO_RGB[c])
            + neg * (NEGATIVE_RGB[c] - ZERO_RGB[c])
        )
        rgb[..., c] = np.clip(np.rint(channel, out=channel), 0, 255, out=channel)
    return rgb


def write_heatmap(
    path_base: str,
    matrix: np.ndarray,
    x_axis: np.ndarray,
    theta_axis: np.ndarray,
) -> tuple[str, str]:
    """Binary PPM image plus a JSON sidecar describing scale and axes.

    The matrix is indexed (position, angle); the image puts position along
    the width and angle along the height with positive angles at the top.
    Returns the two paths written.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    vmax = float(np.abs(matrix).max())
    image = diverging_rgb(matrix.T[::-1, :], vmax if vmax > 0 else None)
    height, width = image.shape[:2]
    ppm_path = path_base + ".ppm"
    with open(ppm_path, "wb") as handle:
        handle.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        handle.write(image.tobytes())
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
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
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
