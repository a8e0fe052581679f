"""Dataset file formats: headerless CSV (one data point per line) and the
little-endian float64 binary layout ``f64le``.

``save_dataset`` writes f64le files in the aligned "VRPA" layout, whose
payload starts at byte 16, and ``load_dataset`` maps them read-only: the
loaded matrix is a view of the file's pages, made without a copy, and the
mapping (with its file descriptor) is released when the matrix dies. The
legacy "VRPC" layout, whose 12-byte header leaves the payload off 8-byte
alignment, is still read, through a copy into fresh memory.

While the mapping lives it holds one open file descriptor on Python
3.10-3.12, where ``mmap`` keeps a duplicate of the one it was given; from
3.13 on it is mapped with ``trackfd=False`` and holds none. A caller that
keeps many loaded matrices alive on an older Python keeps as many
descriptors open.

A loaded f64le file must not be rewritten in place while its matrix lives:
the matrix would see the new bytes, or fault on a truncated page. The
writer never does that to a regular file, in either format: it writes a
temporary file in the directory of the target (symlinks resolved), which
must be writable, and renames it over the target. A FIFO or a device,
which is never mapped, is written through.
"""

from __future__ import annotations

import mmap
import os
import stat
import struct
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DatasetFormatError, DimensionMismatchError
from .matrix import DataMatrix

#: the aligned layout: magic, u32 d, u32 n, u32 reserved (0), payload at 16
MAGIC = b"VRPA"
HEADER = 16
#: the legacy layout: magic, u32 d, u32 n, payload at 12
LEGACY_MAGIC = b"VRPC"
LEGACY_HEADER = 12
_PAYLOAD_START = {MAGIC: HEADER, LEGACY_MAGIC: LEGACY_HEADER}
FORMATS = ("csv", "f64le")
#: from Python 3.13 a mapping need not keep a duplicate descriptor open
_MMAP_FLAGS = {"trackfd": False} if sys.version_info >= (3, 13) else {}


def load_dataset(path, fmt: str) -> DataMatrix:
    """Read a dataset; the max squared column norm is cached on load.

    csv:   one data point per line, d comma-separated decimal values,
           no header.
    f64le: magic "VRPA", u32-LE d, u32-LE n, u32-LE 0, then n*d
           little-endian float64 values, column after column, from byte
           16. The file is mapped read-only and the matrix is a view of
           the mapping (a file that cannot be mapped is read into memory).
           The legacy layout, magic "VRPC", u32-LE d, u32-LE n and the
           payload from byte 12, is read into memory. The layout is chosen
           by the magic.
    """
    if fmt not in FORMATS:
        raise DatasetFormatError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    path = Path(path)
    if fmt == "csv":
        return _load_csv(path)
    return _load_binary(path)


def save_dataset(X: DataMatrix, path, fmt: str) -> None:
    """Write ``X`` to ``path``; f64le files get the aligned layout.

    Both formats are written through ``_replacing``, so a matrix that maps
    the old file keeps its bytes.
    """
    if fmt not in FORMATS:
        raise DatasetFormatError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    if fmt == "csv":
        with _replacing(Path(path), "w", encoding="ascii") as fh:
            for i in range(X.n):
                fh.write(",".join(repr(float(v)) for v in X.data[:, i]))
                fh.write("\n")
        return
    with _replacing(Path(path), "wb") as fh:
        fh.write(MAGIC + struct.pack("<III", X.d, X.n, 0))
        # column after column: the F-ordered d x n store's own buffer,
        # written without a copy (its transpose is C-contiguous)
        fh.write(memoryview(X.data.T).cast("B"))


@contextmanager
def _replacing(path: Path, mode: str, encoding=None):
    """A file object whose contents replace ``path`` when the block ends.

    A regular or absent target (symlinks resolved, so a link keeps
    pointing at the new file) is written as a temporary file in its
    directory, created with the mode ``open(path, "wb")`` would give, and
    renamed over it; the temporary file is removed if the block fails. A
    FIFO or a device, which ``load_dataset`` never maps, is written
    through.
    """
    try:
        special = not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        special = False
    if special:
        with path.open(mode, encoding=encoding) as fh:
            yield fh
        return
    target, path = path, path.resolve()
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    # O_EXCL: never write through a file that already exists; mode 0o666
    # is narrowed by the umask, as open(..., "wb") does. A failure names
    # the target, not the temporary file.
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(target)) from None
    try:
        with open(fd, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _load_csv(path: Path) -> DataMatrix:
    rows = []
    width = None
    # a byte that is not ASCII decodes to a lone surrogate, so the line
    # that holds it can be named
    with path.open("r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                raise DatasetFormatError(f"{path}: line {lineno}: not ASCII")
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
        header = fh.read(HEADER)
        start = _PAYLOAD_START.get(header[:4])
        if start is None and len(header) >= 4:
            raise DatasetFormatError(
                f"{path}: bad magic {header[:4]!r} at offset 0 "
                f"(expected {MAGIC!r} or {LEGACY_MAGIC!r})")
        if start is None or len(header) < start:
            raise DatasetFormatError(
                f"{path}: truncated header at offset {len(header)} "
                f"(need {start or 4} bytes)")
        d, n = struct.unpack("<II", header[4:12])
        if start == HEADER:
            (reserved,) = struct.unpack("<I", header[12:16])
            if reserved != 0:
                raise DatasetFormatError(
                    f"{path}: reserved field {reserved} at offset 12 "
                    "(must be 0)")
        expected = start + 8 * d * n
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise DatasetFormatError(
                f"{path}: payload ends at offset {size}, expected {expected} "
                f"for d={d}, n={n}")
        values = _map_payload(fh, expected) if start == HEADER else None
        if values is None:
            values = _read_payload(fh, path, start, d, n)
    try:
        return DataMatrix(values.reshape((d, n), order="F"))
    except DimensionMismatchError:
        # DataMatrix checks finiteness on its one pass; find the offset only
        # when it has refused the data
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size == 0:
            raise
        raise DatasetFormatError(
            f"{path}: non-finite value at offset {start + 8 * int(bad[0])}"
        ) from None


def _map_payload(fh, length):
    """The aligned payload as a view of a read-only mapping of the file's
    first ``length`` bytes, or None when the file cannot be mapped.

    Before Python 3.13 the mapping holds a duplicate descriptor; both go
    when the last view of it does. The payload sits 16 bytes into a
    page-aligned mapping, so it is 8-byte aligned."""
    try:
        mapped = mmap.mmap(fh.fileno(), length, access=mmap.ACCESS_READ,
                           **_MMAP_FLAGS)
    except (OSError, ValueError):
        return None
    return np.frombuffer(mapped, dtype="<f8", offset=HEADER)


def _read_payload(fh, path, start, d, n):
    """The payload at byte ``start``, read into a freshly allocated (hence
    aligned) array: a view of the legacy layout's bytes would sit 12 bytes
    in, off the 8-byte alignment BLAS needs."""
    values = np.empty(d * n, dtype="<f8")
    fh.seek(start)
    got = fh.readinto(memoryview(values).cast("B"))
    if got != 8 * d * n:
        raise DatasetFormatError(
            f"{path}: payload ends at offset {start + got}, expected "
            f"{start + 8 * d * n} for d={d}, n={n}")
    return values
