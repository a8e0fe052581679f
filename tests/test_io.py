"""Dataset file formats: CSV and the f64le binary layouts (aligned VRPA,
legacy VRPC)."""

import gc
import io
import mmap
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vrpca import (DataMatrix, DatasetFormatError, DimensionMismatchError,
                   load_dataset, save_dataset)
from vrpca.cli import main as cli_main
from vrpca.io import FORMATS, _read_payload


def aligned_bytes(d, n, vals, reserved=0):
    """An f64le file in the aligned layout: payload at byte 16."""
    return (b"VRPA" + d.to_bytes(4, "little") + n.to_bytes(4, "little")
            + reserved.to_bytes(4, "little") + np.asarray(vals, "<f8").tobytes())


def legacy_bytes(d, n, vals):
    """An f64le file in the legacy layout: payload at byte 12."""
    return (b"VRPC" + d.to_bytes(4, "little") + n.to_bytes(4, "little")
            + np.asarray(vals, "<f8").tobytes())


class TestCsv:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "unit.csv"
        p.write_text("1,0\n0,1\n")
        X = load_dataset(p, "csv")
        assert (X.d, X.n) == (2, 2)
        assert X.r == 1.0
        np.testing.assert_allclose(X.data, np.eye(2))

    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        X = DataMatrix(rng.standard_normal((5, 9)))
        p = tmp_path / "out.csv"
        save_dataset(X, p, "csv")
        Y = load_dataset(p, "csv")
        assert np.array_equal(X.data, Y.data)
        assert X.r == Y.r

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2,3\n4,5\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(p, "csv")

    def test_bad_token_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3,abc\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(p, "csv")

    def test_nonfinite_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3,inf\n")
        with pytest.raises(DatasetFormatError, match="non-finite"):
            load_dataset(p, "csv")

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DatasetFormatError, match="empty"):
            load_dataset(p, "csv")

    @pytest.mark.parametrize("content, line", [
        (b"\xff\xfe1,0\n0,1\n", 1),
        (b"1,0\n0,1\n2,\xe9\n", 3),
        (b"VRPA\x02\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"
         b"\x00\x00\x00\x00\x00\x00\xf0\x3f", 1)],
        ids=["bom", "latin1", "f64le"])
    def test_non_ascii_reports_line(self, tmp_path, capsys, content, line):
        p = tmp_path / "bad.csv"
        p.write_bytes(content)
        with pytest.raises(DatasetFormatError,
                           match=f"bad.csv: line {line}: not ASCII$"):
            load_dataset(p, "csv")
        assert cli_main(["convert", str(p), str(tmp_path / "out.vrpc"),
                         "--from", "csv", "--to", "f64le"]) == 1
        assert capsys.readouterr().err == \
            f"error: {p}: line {line}: not ASCII\n"

    def test_blank_lines_skipped(self, tmp_path):
        # blank lines hold no data point but still count as lines
        p = tmp_path / "gaps.csv"
        p.write_text("\n1,0\n\n   \n0,1\n\n")
        np.testing.assert_array_equal(load_dataset(p, "csv").data, np.eye(2))
        p.write_text("\n1,0\n\n0\n")
        with pytest.raises(DatasetFormatError, match="line 4: expected 2"):
            load_dataset(p, "csv")


class TestRoundTripProperty:
    @settings(max_examples=40, deadline=None)
    @given(fmt=st.sampled_from(FORMATS), d=st.integers(1, 6),
           n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           exponent=st.integers(-300, 300))
    @example(fmt="csv", d=1, n=1, seed=0, exponent=0)
    @example(fmt="f64le", d=1, n=1, seed=0, exponent=0)
    @example(fmt="csv", d=4, n=4, seed=1, exponent=-300)
    @example(fmt="f64le", d=4, n=4, seed=1, exponent=300)
    def test_both_formats_round_trip_bit_for_bit(self, tmp_path_factory, fmt,
                                                 d, n, seed, exponent):
        rng = np.random.default_rng(seed)
        X = DataMatrix(rng.standard_normal((d, n)) * 10.0**exponent)
        p = tmp_path_factory.mktemp("roundtrip") / f"data.{fmt}"
        save_dataset(X, p, fmt)
        Y = load_dataset(p, fmt)
        assert (Y.d, Y.n) == (d, n)
        assert np.array_equal(X.data, Y.data)
        assert X.r == Y.r


class TestBinary:
    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        X = DataMatrix(rng.standard_normal((7, 13)) * 1e3)
        p = tmp_path / "out.vrpc"
        save_dataset(X, p, "f64le")
        Y = load_dataset(p, "f64le")
        assert np.array_equal(X.data, Y.data)
        assert X.r == Y.r
        assert Y.data.flags.aligned and Y.data.flags.f_contiguous

    def test_payload_written_without_a_copy(self, tmp_path):
        # the payload goes out from the data's own buffer: saving 8 MB
        # allocates nothing near its size, and the bytes are the columns
        import tracemalloc

        X = DataMatrix(np.random.default_rng(6).standard_normal((100, 10000)))
        p = tmp_path / "big.vrpc"
        tracemalloc.start()
        try:
            save_dataset(X, p, "f64le")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < X.data.nbytes // 8
        assert p.read_bytes()[16:] == X.data.tobytes(order="F")

    def test_layout(self, tmp_path):
        X = DataMatrix(np.array([[1.0, 3.0], [2.0, 4.0]]))
        p = tmp_path / "out.vrpc"
        save_dataset(X, p, "f64le")
        blob = p.read_bytes()
        assert blob[:4] == b"VRPA"
        assert int.from_bytes(blob[4:8], "little") == 2  # d
        assert int.from_bytes(blob[8:12], "little") == 2  # n
        assert int.from_bytes(blob[12:16], "little") == 0  # reserved
        vals = np.frombuffer(blob, dtype="<f8", offset=16)
        # column after column
        np.testing.assert_allclose(vals, [1.0, 2.0, 3.0, 4.0])

    def test_legacy_layout_loads_bit_for_bit(self, tmp_path):
        vals = np.random.default_rng(8).standard_normal(12) * 1e3
        p = tmp_path / "old.vrpc"
        p.write_bytes(legacy_bytes(3, 4, vals))
        Y = load_dataset(p, "f64le")
        assert Y.data.tobytes(order="F") == vals.tobytes()
        assert Y.data.flags.aligned and Y.data.flags.f_contiguous

    def test_magic_mismatch(self, tmp_path):
        p = tmp_path / "bad.vrpc"
        p.write_bytes(b"NOPE" + bytes(8))
        with pytest.raises(DatasetFormatError, match="magic"):
            load_dataset(p, "f64le")

    def test_truncated_payload_reports_offset(self, tmp_path):
        X = DataMatrix(np.eye(3))
        p = tmp_path / "out.vrpc"
        save_dataset(X, p, "f64le")
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(DatasetFormatError, match="offset"):
            load_dataset(p, "f64le")

    @pytest.mark.parametrize("layout, end", [(aligned_bytes, 104),
                                              (legacy_bytes, 100)])
    def test_truncated_payload_names_offsets(self, tmp_path, layout, end):
        p = tmp_path / "short.vrpc"
        p.write_bytes(layout(3, 4, np.arange(1.0, 13.0))[:-8])
        with pytest.raises(DatasetFormatError,
                           match=rf"payload ends at offset {end}, expected "
                                 rf"{end + 8} for d=3, n=4$"):
            load_dataset(p, "f64le")

    def test_short_read_names_the_offset(self):
        # a file that shrinks after its size was checked reads short
        class Short(io.BytesIO):
            def readinto(self, buffer):
                return super().readinto(memoryview(buffer)[:8])

        with pytest.raises(DatasetFormatError,
                           match=r"^x\.vrpc: payload ends at offset 24, "
                                 r"expected 64 for d=2, n=3$"):
            _read_payload(Short(bytes(64)), "x.vrpc", 16, 2, 3)

    def test_bad_reserved_field_reports_offset(self, tmp_path):
        p = tmp_path / "bad.vrpc"
        p.write_bytes(aligned_bytes(3, 4, np.arange(1.0, 13.0), reserved=7))
        with pytest.raises(DatasetFormatError,
                           match=r"reserved field 7 at offset 12 \(must be 0\)$"):
            load_dataset(p, "f64le")

    @pytest.mark.parametrize("blob", [b"", b"VR", b"VRPA" + bytes(8),
                                      b"VRPC" + bytes(4)])
    def test_truncated_header(self, tmp_path, blob):
        p = tmp_path / "bad.vrpc"
        p.write_bytes(blob)
        with pytest.raises(DatasetFormatError,
                           match=rf"truncated header at offset {len(blob)}"):
            load_dataset(p, "f64le")

    @pytest.mark.parametrize("layout", [aligned_bytes, legacy_bytes])
    @pytest.mark.parametrize("d, n", [(0, 4), (3, 0)])
    def test_empty_payload_refused_as_an_empty_matrix(self, tmp_path, layout,
                                                      d, n):
        # DataMatrix's own refusal passes through: there is no non-finite
        # value to name an offset for
        p = tmp_path / "empty.vrpc"
        p.write_bytes(layout(d, n, []))
        with pytest.raises(DimensionMismatchError) as err:
            load_dataset(p, "f64le")
        assert str(err.value) == f"empty data matrix (shape ({d}, {n}))"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_reports_offset(self, tmp_path, bad):
        vals = np.arange(1.0, 13.0)
        vals[7] = bad
        p = tmp_path / "bad.vrpc"
        p.write_bytes(b"VRPC" + (3).to_bytes(4, "little")
                      + (4).to_bytes(4, "little") + vals.astype("<f8").tobytes())
        with pytest.raises(DatasetFormatError,
                           match=r"non-finite value at offset 68$"):
            load_dataset(p, "f64le")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_aligned_nonfinite_reports_offset(self, tmp_path, bad):
        vals = np.arange(1.0, 13.0)
        vals[7] = bad
        p = tmp_path / "bad.vrpc"
        p.write_bytes(aligned_bytes(3, 4, vals))
        with pytest.raises(DatasetFormatError,
                           match=r"non-finite value at offset 72$"):
            load_dataset(p, "f64le")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="unknown format"):
            load_dataset(tmp_path / "x", "parquet")

    def test_unknown_format_not_written(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="unknown format"):
            save_dataset(DataMatrix(np.eye(2)), tmp_path / "x", "parquet")
        assert not (tmp_path / "x").exists()


def _big(seed=6):
    """100 x 10000 values: an 8 MB payload."""
    return DataMatrix(np.random.default_rng(seed).standard_normal((100, 10000)))


class TestMappedLoad:
    def test_load_makes_no_copy(self, tmp_path):
        # the aligned payload is mapped, not read: loading 8 MB allocates
        # nothing near its size
        X = _big()
        p = tmp_path / "big.vrpc"
        save_dataset(X, p, "f64le")
        tracemalloc.start()
        try:
            Y = load_dataset(p, "f64le")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < X.data.nbytes // 8
        assert np.array_equal(X.data, Y.data)
        assert X.r == Y.r

    def test_loaded_data_aligned_and_read_only(self, tmp_path):
        p = tmp_path / "big.vrpc"
        save_dataset(_big(), p, "f64le")
        data = load_dataset(p, "f64le").data
        assert data.flags.aligned and data.flags.f_contiguous
        assert not data.flags.writeable and not data.flags.owndata
        with pytest.raises(ValueError):
            data[0, 0] = 1.0

    def test_unmappable_file_is_read(self, tmp_path, monkeypatch):
        # where the file cannot be mapped, the payload at byte 16 is read
        # into memory instead
        X = DataMatrix(np.random.default_rng(9).standard_normal((3, 5)))
        p = tmp_path / "out.vrpc"
        save_dataset(X, p, "f64le")

        def refuse(*args, **kwargs):
            raise OSError("mapping refused")

        monkeypatch.setattr(mmap, "mmap", refuse)
        Y = load_dataset(p, "f64le")
        assert np.array_equal(X.data, Y.data)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="no /proc/self/fd to count descriptors in")
    def test_mappings_release_their_descriptors(self, tmp_path):
        p = tmp_path / "small.vrpc"
        save_dataset(DataMatrix(np.eye(4)), p, "f64le")
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(50):
            Y = load_dataset(p, "f64le")
            assert Y.r == 1.0
            del Y
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="no /proc/self/fd to count descriptors in")
    def test_live_matrices_hold_the_documented_descriptors(self, tmp_path):
        # before Python 3.13 each live mapping keeps one duplicate
        # descriptor; from 3.13 it is mapped with trackfd=False
        p = tmp_path / "small.vrpc"
        save_dataset(DataMatrix(np.eye(4)), p, "f64le")
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        live = [load_dataset(p, "f64le") for _ in range(20)]
        per_matrix = 0 if sys.version_info >= (3, 13) else 1
        assert len(os.listdir("/proc/self/fd")) == before + 20 * per_matrix
        del live


class TestSafeRewrite:
    def test_rewrite_keeps_a_live_matrix_intact(self, tmp_path):
        p = tmp_path / "data.vrpc"
        save_dataset(_big(1), p, "f64le")
        live = load_dataset(p, "f64le")
        kept = live.data.copy(order="F")
        save_dataset(_big(2), p, "f64le")
        assert np.array_equal(live.data, kept)
        assert np.array_equal(load_dataset(p, "f64le").data, _big(2).data)
        assert [q.name for q in tmp_path.iterdir()] == ["data.vrpc"]

    def test_convert_in_place_migrates_legacy_file(self, tmp_path, capsys):
        vals = np.random.default_rng(10).standard_normal(12)
        p = tmp_path / "old.vrpc"
        p.write_bytes(legacy_bytes(3, 4, vals))
        assert cli_main(["convert", str(p), str(p), "--from", "f64le",
                         "--to", "f64le"]) == 0
        assert p.read_bytes() == aligned_bytes(3, 4, vals)
        assert load_dataset(p, "f64le").data.tobytes(order="F") == \
            vals.tobytes()

    def test_convert_mapped_file_to_csv_in_place(self, tmp_path):
        # the csv writer must not truncate the inode the loaded matrix maps
        X = DataMatrix(np.random.default_rng(12).standard_normal((3, 40)))
        p = tmp_path / "data.vrpc"
        save_dataset(X, p, "f64le")
        assert cli_main(["convert", str(p), str(p), "--from", "f64le",
                         "--to", "csv"]) == 0
        assert np.array_equal(load_dataset(p, "csv").data, X.data)
        assert [q.name for q in tmp_path.iterdir()] == ["data.vrpc"]

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_save_through_symlink_keeps_the_link(self, tmp_path, fmt):
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "data"
        link = tmp_path / "link"
        link.symlink_to(os.path.join("real", "data"))
        save_dataset(DataMatrix(np.eye(2)), target, fmt)
        X = DataMatrix(np.random.default_rng(13).standard_normal((2, 3)))
        save_dataset(X, link, fmt)
        assert link.is_symlink()
        assert np.array_equal(load_dataset(target, fmt).data, X.data)
        assert sorted(q.name for q in tmp_path.rglob("*")) == \
            ["data", "link", "real"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_fifo_target_is_written_through(self, tmp_path, fmt):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        X = DataMatrix(np.arange(4.0).reshape(2, 2))
        # a non-blocking reader lets the writer open the FIFO at once; the
        # few bytes fit in the pipe's buffer
        r = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            save_dataset(X, fifo, fmt)
            got = os.read(r, 1 << 16)
        finally:
            os.close(r)
        if fmt == "f64le":
            assert got == aligned_bytes(2, 2, X.data.ravel(order="F"))
        else:
            assert got == b"0.0,2.0\n1.0,3.0\n"
        assert [q.name for q in tmp_path.iterdir()] == ["pipe"]
        assert fifo.is_fifo()

    def test_new_file_mode_follows_umask(self, tmp_path):
        p = tmp_path / "data.vrpc"
        old = os.umask(0o027)
        try:
            save_dataset(DataMatrix(np.eye(2)), p, "f64le")
        finally:
            os.umask(old)
        assert p.stat().st_mode & 0o777 == 0o666 & ~0o027

    def test_failed_write_leaves_no_temporary_file(self, tmp_path,
                                                     monkeypatch):
        p = tmp_path / "data.vrpc"
        save_dataset(DataMatrix(np.eye(2)), p, "f64le")
        before = p.read_bytes()

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            save_dataset(DataMatrix(2 * np.eye(2)), p, "f64le")
        assert [q.name for q in tmp_path.iterdir()] == ["data.vrpc"]
        assert p.read_bytes() == before


class TestLargeFile:
    def test_million_value_csv(self, tmp_path):
        rng = np.random.default_rng(11)
        X = DataMatrix(rng.standard_normal((100, 10000)))
        p = tmp_path / "big.csv"
        save_dataset(X, p, "csv")
        Y = load_dataset(p, "csv")
        recomputed = float(np.max(np.einsum("ij,ij->j", Y.data, Y.data)))
        assert Y.r == recomputed
        blas_side = max(float(c @ c) for c in Y.data.T)
        assert Y.r == pytest.approx(blas_side, rel=1e-14)
        assert np.array_equal(X.data, Y.data)
