"""Dataset file formats: CSV and the VRPC binary layout."""

import numpy as np
import pytest

from vrpca import DataMatrix, DatasetFormatError, load_dataset, save_dataset


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


class TestBinary:
    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        X = DataMatrix(rng.standard_normal((7, 13)) * 1e3)
        p = tmp_path / "out.vrpc"
        save_dataset(X, p, "f64le")
        Y = load_dataset(p, "f64le")
        assert np.array_equal(X.data, Y.data)
        assert X.r == Y.r
        # the 12-byte header must not leave the payload off 8-byte alignment
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
        assert p.read_bytes()[12:] == X.data.tobytes(order="F")

    def test_layout(self, tmp_path):
        X = DataMatrix(np.array([[1.0, 3.0], [2.0, 4.0]]))
        p = tmp_path / "out.vrpc"
        save_dataset(X, p, "f64le")
        blob = p.read_bytes()
        assert blob[:4] == b"VRPC"
        assert int.from_bytes(blob[4:8], "little") == 2  # d
        assert int.from_bytes(blob[8:12], "little") == 2  # n
        vals = np.frombuffer(blob, dtype="<f8", offset=12)
        # column after column
        np.testing.assert_allclose(vals, [1.0, 2.0, 3.0, 4.0])

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

    def test_unknown_format(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="unknown format"):
            load_dataset(tmp_path / "x", "parquet")


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
