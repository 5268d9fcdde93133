"""EMXF snapshot container: layout, round trips, validation."""
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlab.grid import GridSpec
from emlab.snapshot import EMXF_MAGIC, EMXF_VERSION, atomic_write, read_snapshot, write_snapshot

from _helpers import random_field


@pytest.fixture
def grid():
    return GridSpec(n=8, box=5.0)


def test_round_trip_bit_exact(tmp_path, grid):
    fields = {
        "density": random_field(grid, seed=1),
        "u_x": random_field(grid, seed=2),
        "u_y": random_field(grid, seed=3),
    }
    path = tmp_path / "state.emxf"
    write_snapshot(path, grid, fields)
    grid2, back = read_snapshot(path)
    assert grid2 == grid
    assert list(back) == list(fields)
    for name in fields:
        # bit-exact: compare the raw float representations
        assert back[name].tobytes() == fields[name].tobytes()


def test_write_is_deterministic(tmp_path, grid):
    fields = {"a": random_field(grid, seed=4), "b": random_field(grid, seed=5)}
    p1, p2 = tmp_path / "one.emxf", tmp_path / "two.emxf"
    write_snapshot(p1, grid, fields)
    write_snapshot(p2, grid, fields)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_layout(tmp_path, grid):
    write_snapshot(tmp_path / "h.emxf", grid, {"rho": np.ones(grid.shape)})
    raw = (tmp_path / "h.emxf").read_bytes()
    assert raw[:4] == EMXF_MAGIC
    version, n, box, count = struct.unpack("<IIdI", raw[4:24])
    assert (version, n, box, count) == (EMXF_VERSION, grid.n, grid.box, 1)
    (ln,) = struct.unpack("<I", raw[24:28])
    assert raw[28 : 28 + ln].decode() == "rho"
    payload = raw[28 + ln :]
    assert len(payload) == grid.n**3 * 8
    vals = np.frombuffer(payload, dtype="<f8")
    assert np.all(vals == 1.0)


def test_write_failing_mid_way_keeps_the_old_file(tmp_path, grid):
    path = tmp_path / "s.emxf"
    write_snapshot(path, grid, {"a": random_field(grid, seed=0)})
    before = path.read_bytes()
    bad = np.zeros(grid.shape, dtype=object)
    bad[1, 2, 3] = "not a number"
    # the header and field "a" are written before field "b" fails to convert
    with pytest.raises(ValueError):
        write_snapshot(path, grid, {"a": random_field(grid, seed=1), "b": bad})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["s.emxf"]


def test_atomic_write_failing_mid_way_leaves_nothing(tmp_path):
    def chunks():
        yield b"first chunk\n"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        atomic_write(tmp_path / "report.json", chunks())
    assert list(tmp_path.iterdir()) == []


def test_bad_magic_rejected(tmp_path):
    bad = tmp_path / "bad.emxf"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        read_snapshot(bad)


def test_truncated_payload_rejected(tmp_path, grid):
    path = tmp_path / "t.emxf"
    write_snapshot(path, grid, {"rho": np.ones(grid.shape)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ValueError, match="truncated"):
        read_snapshot(path)


def test_shape_mismatch_rejected(tmp_path, grid):
    with pytest.raises(ValueError, match="shape"):
        write_snapshot(tmp_path / "s.emxf", grid, {"rho": np.ones((4, 4, 4))})


def test_empty_fields_rejected(tmp_path, grid):
    with pytest.raises(ValueError, match="at least one"):
        write_snapshot(tmp_path / "e.emxf", grid, {})


def test_short_files_rejected(tmp_path, grid):
    path = tmp_path / "short.emxf"
    write_snapshot(path, grid, {"rho": np.ones(grid.shape)})
    raw = path.read_bytes()
    for cut in (6, 24, 26, 30):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match="truncated|corrupt"):
            read_snapshot(path)


def test_header_counts_checked_against_file_size(tmp_path, grid):
    path = tmp_path / "h.emxf"
    write_snapshot(path, grid, {"rho": np.ones(grid.shape)})
    raw = bytearray(path.read_bytes())
    huge = bytearray(raw)
    huge[20:24] = struct.pack("<I", 0xFFFFFFFF)  # count
    path.write_bytes(bytes(huge))
    with pytest.raises(ValueError, match="corrupt"):
        read_snapshot(path)
    long_name = bytearray(raw)
    long_name[24:28] = struct.pack("<I", 0xFFFFFFF0)
    path.write_bytes(bytes(long_name))
    with pytest.raises(ValueError, match="name length"):
        read_snapshot(path)


def test_non_finite_box_rejected(tmp_path, grid):
    path = tmp_path / "box.emxf"
    write_snapshot(path, grid, {"rho": np.ones(grid.shape)})
    raw = bytearray(path.read_bytes())
    raw[12:20] = struct.pack("<d", float("inf"))  # box
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="box side"):
        read_snapshot(path)


def test_trailing_bytes_rejected(tmp_path, grid):
    path = tmp_path / "t.emxf"
    write_snapshot(path, grid, {"rho": np.ones(grid.shape)})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        read_snapshot(path)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A scratch directory holding one valid two-field snapshot, src.emxf."""
    path = tmp_path_factory.mktemp("fuzz")
    grid = GridSpec(n=8, box=5.0)
    write_snapshot(path / "src.emxf", grid, {"u_x": random_field(grid, seed=6),
                                             "b": random_field(grid, seed=7)})
    return path


@settings(max_examples=200, deadline=None)
@given(
    cut=st.integers(0, 2 * 8**3 * 8 + 40),
    flips=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 255)), max_size=4),
)
def test_corrupt_files_raise_only_value_error(fuzz_dir, cut, flips):
    # the header and both names fill the first 36 bytes; flips reach a little past
    # them into the payload, then the file is cut at an arbitrary length
    raw = bytearray((fuzz_dir / "src.emxf").read_bytes())
    for pos, value in flips:
        raw[pos] = value
    path = fuzz_dir / "mutated.emxf"
    path.write_bytes(bytes(raw[:cut]))
    try:
        read_snapshot(path)
    except ValueError:
        pass
