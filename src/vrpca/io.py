"""Dataset file formats: headerless CSV (one data point per line) and the
"VRPC" little-endian binary layout."""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import DatasetFormatError, DimensionMismatchError
from .matrix import DataMatrix

MAGIC = b"VRPC"
FORMATS = ("csv", "f64le")


def load_dataset(path, fmt: str) -> DataMatrix:
    """Read a dataset; the max squared column norm is cached on load.

    csv:   one data point per line, d comma-separated decimal values,
           no header.
    f64le: magic "VRPC", u32-LE d, u32-LE n, then n*d little-endian
           float64 values, column after column.
    """
    if fmt not in FORMATS:
        raise DatasetFormatError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    path = Path(path)
    if fmt == "csv":
        return _load_csv(path)
    return _load_binary(path)


def save_dataset(X: DataMatrix, path, fmt: str) -> None:
    if fmt not in FORMATS:
        raise DatasetFormatError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    path = Path(path)
    if fmt == "csv":
        with path.open("w", encoding="ascii") as fh:
            for i in range(X.n):
                fh.write(",".join(repr(float(v)) for v in X.data[:, i]))
                fh.write("\n")
        return
    with path.open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", X.d, X.n))
        # column after column: the F-ordered d x n store's own buffer,
        # written without a copy (its transpose is C-contiguous)
        fh.write(memoryview(X.data.T).cast("B"))


def _load_csv(path: Path) -> DataMatrix:
    rows = []
    width = None
    with path.open("r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise DatasetFormatError(
                    f"{path}: line {lineno}: expected {width} values, "
                    f"got {len(parts)}")
            try:
                row = [float(tok) for tok in parts]
            except ValueError as exc:
                raise DatasetFormatError(
                    f"{path}: line {lineno}: {exc}") from exc
            if not all(np.isfinite(row)):
                raise DatasetFormatError(
                    f"{path}: line {lineno}: non-finite value")
            rows.append(row)
    if not rows:
        raise DatasetFormatError(f"{path}: empty dataset")
    return DataMatrix(np.asarray(rows, dtype=np.float64).T)


def _load_binary(path: Path) -> DataMatrix:
    with path.open("rb") as fh:
        header = fh.read(12)
        if len(header) < 12:
            raise DatasetFormatError(
                f"{path}: truncated header at offset {len(header)} "
                "(need 12 bytes)")
        if header[:4] != MAGIC:
            raise DatasetFormatError(
                f"{path}: bad magic {header[:4]!r} at offset 0 "
                f"(expected {MAGIC!r})")
        d, n = struct.unpack("<II", header[4:12])
        expected = 12 + 8 * d * n
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise DatasetFormatError(
                f"{path}: payload ends at offset {size}, expected {expected} "
                f"for d={d}, n={n}")
        # read straight into a freshly allocated (hence aligned) array: a
        # view into the file bytes would sit 12 bytes in, off the 8-byte
        # alignment BLAS needs
        values = np.empty(d * n, dtype="<f8")
        got = fh.readinto(memoryview(values).cast("B"))
    if got != 8 * d * n:
        raise DatasetFormatError(
            f"{path}: payload ends at offset {12 + got}, expected {expected} "
            f"for d={d}, n={n}")
    try:
        return DataMatrix(values.reshape((d, n), order="F"))
    except DimensionMismatchError:
        # DataMatrix checks finiteness on its one pass; find the offset only
        # when it has refused the data
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size == 0:
            raise
        raise DatasetFormatError(
            f"{path}: non-finite value at offset {12 + 8 * int(bad[0])}"
        ) from None
