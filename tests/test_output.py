import hashlib
import json
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from auglf.output import (
    NEGATIVE_RGB,
    POSITIVE_RGB,
    ZERO_RGB,
    _BLOCK_CELLS,
    _BLOCK_ROWS,
    _abs_max,
    _rgb_blocks,
    fmt17,
    sha256_file,
    write_heatmap,
    write_json,
    write_manifest,
    write_matrix_csv,
    write_profile_csv,
)
from auglf import csvtext, output
from auglf.csvtext import format_cells
from oracles import cells_17g, matrix_csv_text, profile_csv_text


def read_profile_csv(path):
    data = np.atleast_2d(np.genfromtxt(path, delimiter=",", skip_header=1, dtype=np.float64))
    return data[:, 0].copy(), data[:, 1].copy()


def read_matrix_csv(path):
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
        col_axis = np.array([float(v) for v in header[1:]])
        rows = [[float(v) for v in line.rstrip("\n").split(",")] for line in handle]
    table = np.array(rows)
    return table[:, 0], col_axis, table[:, 1:]


def heatmap_rgb(matrix, vmax=None):
    """The colours ``write_heatmap`` writes for ``matrix``, its blocks joined."""
    matrix = np.asarray(matrix, dtype=np.float64)
    vmax = _abs_max(matrix) if vmax is None else vmax
    # each block's colours are overwritten by the next, so keep a copy
    blocks = [(rows, rgb.copy()) for rows, rgb in _rgb_blocks(matrix, vmax)]
    assert [rows.start for rows, _ in blocks] == list(range(0, len(matrix), _BLOCK_ROWS))
    return np.concatenate([rgb for _, rgb in blocks])


def test_fmt17_round_trips_doubles():
    for v in (0.1, 1 / 3, 633e-9, -2.048e-3, 1.7976931348623157e308, 0.0):
        assert float(fmt17(v)) == v


def test_profile_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    axis = np.linspace(-1e-3, 1e-3, 64)
    values = rng.normal(size=64)
    p = str(tmp_path / "profile.csv")
    write_profile_csv(p, axis, values)
    a, v = read_profile_csv(p)
    np.testing.assert_array_equal(a, axis)
    np.testing.assert_array_equal(v, values)
    header = open(p).readline().strip()
    assert header == "x_m,intensity"


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    rows = np.linspace(-1, 1, 8)
    cols = np.linspace(-2, 2, 5)
    m = rng.normal(size=(8, 5))
    p = str(tmp_path / "matrix.csv")
    write_matrix_csv(p, rows, cols, m)
    r, c, got = read_matrix_csv(p)
    np.testing.assert_array_equal(r, rows)
    np.testing.assert_array_equal(c, cols)
    np.testing.assert_array_equal(got, m)
    with pytest.raises(ValueError):
        write_matrix_csv(p, rows, cols, m.T)


def _special_matrix():
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, -1.2345678901234567e-300]
    m = rng.normal(size=(6, 9)) * 10.0 ** rng.integers(-300, 300, size=(6, 9))
    m.flat[: len(special)] = special
    m[-1, -len(special):] = special
    return m


def test_matrix_csv_bytes_match_per_value_formatting(tmp_path):
    m = _special_matrix()
    rows = np.array([-0.0, 1e-3, np.nan, 5e-324, 1e16, -np.inf])
    cols = np.linspace(-2, 2, m.shape[1])
    p = tmp_path / "matrix.csv"
    write_matrix_csv(str(p), rows, cols, m)
    lines = ["x_m\\theta_rad," + ",".join(fmt17(c) for c in cols)]
    for r, row in zip(rows, m):
        lines.append(fmt17(r) + "," + ",".join(fmt17(v) for v in row))
    assert p.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_profile_csv_bytes_match_per_value_formatting(tmp_path):
    m = _special_matrix()
    axis, values = m[:, :5].ravel(), m[:, 4:].ravel()[::-1]
    p = tmp_path / "profile.csv"
    write_profile_csv(str(p), axis, values)
    lines = ["x_m,intensity"] + [f"{fmt17(a)},{fmt17(v)}" for a, v in zip(axis, values)]
    assert p.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_diverging_colors():
    m = np.array([[0.0, 1.0, -1.0, 0.5]])
    rgb = heatmap_rgb(m)
    assert tuple(rgb[0, 0]) == ZERO_RGB
    assert tuple(rgb[0, 1]) == POSITIVE_RGB
    assert tuple(rgb[0, 2]) == NEGATIVE_RGB
    assert rgb[0, 3, 0] > rgb[0, 3, 2]  # half positive leans red
    flat = heatmap_rgb(np.zeros((2, 2)))
    assert np.all(flat == ZERO_RGB[0])


def float_cube_rgb(matrix, vmax=None):
    """Reference heatmap colours: a float64 RGB cube, rounded, clipped, cast."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if vmax is None:
        vmax = float(np.abs(matrix).max())
    if vmax <= 0.0:
        return np.full(matrix.shape + (3,), ZERO_RGB[0], dtype=np.uint8)
    t = np.clip(matrix / vmax, -1.0, 1.0)
    pos = np.clip(t, 0.0, 1.0)
    neg = np.clip(-t, 0.0, 1.0)
    rgb = np.empty(matrix.shape + (3,), dtype=np.float64)
    for c in range(3):
        rgb[..., c] = (
            ZERO_RGB[c]
            + pos * (POSITIVE_RGB[c] - ZERO_RGB[c])
            + neg * (NEGATIVE_RGB[c] - ZERO_RGB[c])
        )
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


def test_diverging_rgb_bytes_match_float_cube():
    # |t| = j / 256 with odd j puts the green channel, and the red or blue
    # one of the opposite sign, on an exact .5 tie: 128 - 128 |t| = 128 - j / 2
    ties = np.arange(-255, 256, 2) / 256.0
    special = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.5, -7.0, 1e-300])
    values = np.concatenate([ties, special])
    rng = np.random.default_rng(3)
    cases = [
        (values.reshape(1, -1), 1.0),
        (values.reshape(-1, 1), None),
        (rng.normal(size=(17, 9)), None),
        (rng.normal(size=(4, 5)), 0.25),
        (np.zeros((3, 4)), None),
        (np.array([[-0.0, 0.0]]), None),
    ]
    for matrix, vmax in cases:
        got = heatmap_rgb(matrix, vmax)
        want = float_cube_rgb(matrix, vmax)
        assert got.dtype == np.uint8 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_heatmap_bytes_and_sidecar(tmp_path):
    m = np.zeros((4, 3))
    m[1, 2] = 2.0  # position index 1, most positive angle
    x = np.array([0.0, 1.0, 2.0, 3.0])
    th = np.array([-0.1, 0.0, 0.1])
    base = str(tmp_path / "field")
    ppm, sidecar = write_heatmap(base, m, x, th)
    raw = open(ppm, "rb").read()
    assert raw.startswith(b"P6\n4 3\n255\n")
    pixels = np.frombuffer(raw[len(b"P6\n4 3\n255\n"):], dtype=np.uint8)
    img = pixels.reshape(3, 4, 3)
    assert tuple(img[0, 1]) == POSITIVE_RGB  # top row = most positive angle
    assert tuple(img[2, 0]) == ZERO_RGB
    meta = json.load(open(sidecar))
    assert meta["width"] == 4 and meta["height"] == 3
    assert float(meta["value_at_peak"]) == 2.0
    assert meta["x_step_m"] == "1"


# The bulk writers work a block of _BLOCK_ROWS rows at a time; two whole
# blocks and a short one must give the bytes of formatting all at once.
RAGGED_ROWS = 2 * _BLOCK_ROWS + 5


def test_blocked_matrix_csv_bytes_with_a_ragged_last_block(tmp_path):
    rng = np.random.default_rng(21)
    m = rng.normal(size=(RAGGED_ROWS, 7)) * 10.0 ** rng.integers(-30, 30, size=(RAGGED_ROWS, 7))
    m[-1, :3] = [np.nan, -0.0, np.inf]
    rows = np.linspace(-1e-3, 1e-3, RAGGED_ROWS)
    cols = np.linspace(-2, 2, 7)
    p = tmp_path / "matrix.csv"
    write_matrix_csv(str(p), rows, cols, m)
    lines = ["x_m\\theta_rad," + ",".join(fmt17(c) for c in cols)]
    for r, row in zip(rows, m):
        lines.append(fmt17(r) + "," + ",".join(fmt17(v) for v in row))
    assert p.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_blocked_heatmap_bytes_with_a_ragged_last_block(tmp_path):
    # the image's pixel rows are the matrix's angle columns
    m = np.random.default_rng(22).normal(size=(9, RAGGED_ROWS))
    m[4, RAGGED_ROWS - 1] = 8.0  # the peak sits in the short block
    for matrix, vmax in ((m.T, None), (m.T, 0.5), (m, None)):
        assert heatmap_rgb(matrix, vmax).tobytes() == float_cube_rgb(matrix, vmax).tobytes()
    ppm, _ = write_heatmap(str(tmp_path / "field"), m, np.arange(9.0), np.arange(RAGGED_ROWS))
    head = f"P6\n9 {RAGGED_ROWS}\n255\n".encode("ascii")
    assert open(ppm, "rb").read() == head + float_cube_rgb(m.T[::-1, :]).tobytes()


def test_bulk_writers_hold_no_full_size_temporary(tmp_path):
    # 32 blocks of 16 columns: CSV rows and heatmap pixel rows both run
    # along the long axis, and a block is a small share of the matrix
    m = np.random.default_rng(23).normal(size=(32 * _BLOCK_ROWS, 16))
    long_axis = np.linspace(-1.0, 1.0, m.shape[0])
    short_axis = np.linspace(-1.0, 1.0, m.shape[1])
    for write in (
        lambda: write_matrix_csv(str(tmp_path / "m.csv"), long_axis, short_axis, m),
        lambda: write_heatmap(str(tmp_path / "m"), m.T, short_axis, long_axis),
    ):
        # the formatting tables, built on first use, are charged on every run
        # whether or not an earlier test built them
        csvtext._format_tables.cache_clear()
        tracemalloc.start()
        try:
            write()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a block's text or colour planes; the whole matrix as text, Python
        # floats or float colour planes would be several times its size
        assert peak < m.nbytes / 2


def test_write_json_deterministic_and_nan_safe(tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    obj = {"b": np.float64(2.5), "a": float("nan"), "c": [1, np.inf, "x"]}
    write_json(p1, obj)
    write_json(p2, {"c": [1, np.inf, "x"], "a": float("nan"), "b": 2.5})
    assert open(p1).read() == open(p2).read()
    loaded = json.load(open(p1))
    assert loaded["a"] is None
    assert loaded["c"][1] is None
    assert loaded["b"] == 2.5


def test_manifest_is_deterministic(tmp_path):
    d = tmp_path / "out"
    d.mkdir()
    f1 = d / "one.csv"
    f2 = d / "two.csv"
    f1.write_text("x\n1\n")
    f2.write_text("y\n2\n")
    echo = {"grid.x_samples": "64", "source.kind": "plane_wave"}
    m1 = write_manifest(str(d), echo, [str(f2), str(f1)])
    first = open(m1).read()
    m2 = write_manifest(str(d), echo, [str(f1), str(f2)])
    assert open(m2).read() == first
    data = json.loads(first)
    assert [e["path"] for e in data["outputs"]] == ["one.csv", "two.csv"]
    assert data["outputs"][0]["sha256"] == sha256_file(str(f1))
    assert data["outputs"][0]["bytes"] == 4
    assert data["config"]["grid.x_samples"] == "64"


@pytest.mark.parametrize("size", [0, 5, (1 << 20) - 1, 1 << 20, 3 * (1 << 20) + 17])
def test_sha256_file_matches_hashlib_across_chunk_edges(tmp_path, size):
    data = np.random.default_rng(size).integers(0, 256, size=size, dtype=np.uint8).tobytes()
    path = tmp_path / "blob"
    path.write_bytes(data)
    assert sha256_file(str(path)) == hashlib.sha256(data).hexdigest()


# The table writers format cells with numpy; every cell must carry exactly
# the bytes of Python's "%.17g".


def assert_cells_match_17g(values, width=7, first=3):
    values = np.ascontiguousarray(values, dtype=np.float64)
    step = 1 << 14
    for lo in range(0, len(values), step):
        chunk = values[lo : lo + step]
        assert format_cells(chunk, width, first + lo) == cells_17g(chunk, width, first + lo)


def test_cells_match_17g_on_random_bit_patterns():
    # every exponent, sign and mantissa: NaNs and subnormals included
    bits = np.random.default_rng(20240601).integers(0, 2**64, size=2_000_000, dtype=np.uint64)
    values = bits.view(np.float64)
    step = 1 << 14
    for lo in range(0, len(values), step):
        chunk = values[lo : lo + step]
        assert format_cells(chunk, 1, 0) == (("%.17g\n" * len(chunk)) % tuple(chunk.tolist())).encode()


POWERS = np.array([10.0 ** k for k in range(-300, 301)])
TIES = [
    1234567890123456.75,  # the 18th significant digit is an exact 5
    -1234567890123456.25,
    1125899906842624.75,
    2251799813685247.5 / 2,
    0.5 ** 60 * 1234567890123456.75,
]
EDGES = [
    0.0, 5e-324, 2.2250738585072014e-308, 2.2250738585072009e-308, 1.7976931348623157e308,
    9.9999999999999995e-5, 1e-4, 1e-5, 0.00010000000000000001, 1e16, 99999999999999999.0,
    1e17, 99999999999999984.0, 1e99, 9.9999999999999997e98, 1e100, 9.9999999999999998e99,
    1e-99, 1e-100, 1.2345e-99, 1.2345e-101, 1e280, 1e-280, 1.5e280, 1.5e-281, 0.1, 1.0,
    100.0, 123.456, 1e15, 123456789012345678.0, np.inf, np.nan,
]


def near_ties():
    # x = m / 2**74 with x * 10**23 = D + 1/2 + j / 2**51: within 1e-14 of a
    # tie, with a scale 10**23 that is not a double; Python prints these
    inverse = pow(5**23, -1, 2**51)
    return [((2**50 + j) * inverse % 2**51 + 2**52) / 2**74 for j in range(-40, 41) if j]


def test_cells_match_17g_on_edges_powers_of_ten_and_ties():
    near = POWERS.view(np.int64)[:, np.newaxis] + np.arange(-3, 4)
    values = np.concatenate([EDGES, TIES, near_ties(), POWERS, near.ravel().view(np.float64)])
    assert_cells_match_17g(np.concatenate([values, -values]))
    snan = np.array([0x7FF0000000000001, 0xFFF4000000000000], dtype=np.uint64).view(np.float64)
    assert_cells_match_17g(snan)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40),
    st.integers(1, 9),
    st.integers(0, 20),
)
def test_cells_match_17g_property(values, width, first):
    assert format_cells(np.array(values, dtype=np.float64), width, first) == cells_17g(
        values, width, first
    )


# Cells that take every path of the formatter: zeros of both signs,
# negatives, subnormals, powers of ten with their neighbours and the
# near-tie cells that Python prints.
DIRTY_CELLS = np.concatenate([
    [0.0, -0.0, -2.5, -1e-300, 5e-324, -4.9e-322, 2.2250738585072009e-308],
    POWERS[::37], -POWERS[5::41], np.nextafter(POWERS[::53], 0.0), near_ties()[::7], TIES,
])


def assert_dirty_workspace_formats_as_fresh(cells, width, first):
    # the workspace starts full of 0xFF, and a wider block leaves its own
    # planes behind for the narrower one: every byte a call reads, it wrote
    work = csvtext.Workspace(len(cells) + 37)
    work.text[:] = b"\xff" * len(work.text)
    work.memory.fill(0xFF)
    wide = np.random.default_rng(len(cells)).normal(size=work.cells) * 1e3
    assert format_cells(wide, width, first, work) == cells_17g(wide, width, first)
    assert (
        format_cells(cells, width, first, work)
        == format_cells(cells, width, first)
        == cells_17g(cells, width, first)
    )


def test_a_dirty_workspace_formats_as_a_fresh_one():
    assert_dirty_workspace_formats_as_fresh(DIRTY_CELLS, 7, 3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, len(DIRTY_CELLS)), st.integers(1, 9), st.integers(0, 20))
def test_a_dirty_workspace_formats_as_a_fresh_one_property(count, width, first):
    assert_dirty_workspace_formats_as_fresh(DIRTY_CELLS[-count:], width, first)


def test_format_cells_of_no_cells_is_empty():
    assert format_cells(np.empty(0), 1, 0) == b""
    assert format_cells(np.empty(0), 3, 2, csvtext.Workspace(0)) == b""


def test_format_cells_refuses_a_workspace_too_small():
    with pytest.raises(ValueError, match="do not fit"):
        format_cells(np.ones(5), 1, 0, csvtext.Workspace(4))


def table_with_zeros(rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-8, 8, size=(rows, cols))
    m[rng.random(size=m.shape) < 0.2] = 0.0
    m.flat[-1] = -0.0
    return m


def assert_tables_match_per_value_text(tmp_path, m):
    rows, cols = m.shape
    row_axis = np.linspace(-1e-3, 1e-3, rows)
    col_axis = np.linspace(-0.05, 0.05, cols)
    p = tmp_path / "matrix.csv"
    write_matrix_csv(str(p), row_axis, col_axis, m)
    assert p.read_bytes() == matrix_csv_text(row_axis, col_axis, m)
    q = tmp_path / "profile.csv"
    write_profile_csv(str(q), m[:, 0], m[:, -1], "a", "b")
    assert q.read_bytes() == profile_csv_text(m[:, 0], m[:, -1], "a", "b")


@pytest.mark.parametrize("cols", [1, 3, _BLOCK_CELLS - 2, _BLOCK_CELLS, 2 * _BLOCK_CELLS + 5])
def test_matrix_csv_bytes_across_cell_blocks(tmp_path, cols):
    # a block holds whole rows: several of a narrow table, one of a table
    # wider than _BLOCK_CELLS; the last block is short
    rows = 3 * _BLOCK_CELLS // cols + 2
    assert_tables_match_per_value_text(tmp_path, table_with_zeros(rows, cols, cols))


@pytest.mark.parametrize(
    "rows, cols, step",
    [
        (100, 40, _BLOCK_CELLS // 41),  # several rows a block; 100 = 8 * 12 + 4
        (7, _BLOCK_CELLS + 40, 1),  # a row wider than _BLOCK_CELLS is a block
        (400, 300, 3),  # 120,400 cells > 128 * _BLOCK_CELLS: 940 cells, 3 rows
    ],
)
def test_matrix_csv_blocks_are_whole_rows(tmp_path, monkeypatch, rows, cols, step):
    calls = []

    def counted(x, width, first, *rest):
        calls.append((len(x), width, first))
        return format_cells(x, width, first, *rest)

    monkeypatch.setattr(output, "format_cells", counted)
    m = table_with_zeros(rows, cols, rows)
    assert_tables_match_per_value_text(tmp_path, m)
    # calls[0] formats the header's column axis, one row of cols cells
    width = cols + 1
    starts = range(0, rows, step)
    assert calls[1 : 1 + len(starts)] == [
        (min(step, rows - lo) * width, width, lo * width) for lo in starts
    ]


def test_matrix_csv_of_a_large_table_holds_one_block(tmp_path):
    # hologram.cfg's table: a block is 8 rows of 1025 cells, and the
    # table's workspace (98 bytes a cell) and a block's text (up to 32) take
    # about 1 MiB against 8 MiB of matrix
    m = np.random.default_rng(24).normal(size=(1024, 1024))
    axis = np.linspace(-1.0, 1.0, 1024)
    csvtext._format_tables.cache_clear()  # charged whether or not built already
    tracemalloc.start()
    try:
        write_matrix_csv(str(tmp_path / "m.csv"), axis, axis, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m.nbytes / 4


_FAULTS_OF_A_LARGE_TABLE = """
import resource, sys
import numpy as np
from auglf.output import write_matrix_csv
m = np.random.default_rng(24).normal(size=(1024, 1024))
axis = np.linspace(-1.0, 1.0, 1024)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
write_matrix_csv(sys.argv[1], axis, axis, m)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc malloc's page faults")
def test_matrix_csv_of_a_large_table_takes_few_page_faults(tmp_path):
    # the blocks share one workspace, whose pages fault once: about 300
    # minor faults for this table, where fresh temporaries of about 0.5 MiB
    # per block, mapped and unmapped by glibc's malloc, took about 20,000
    proc = subprocess.run(
        [sys.executable, "-c", _FAULTS_OF_A_LARGE_TABLE, str(tmp_path / "m.csv")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 2000
