"""Trace file round-trip.

One on-disk container, ``PIMTRACE`` version 1: a small ASCII header
followed by the five raw columns, each introduced by its typecode line::

    PIMTRACE\\n
    1 <byteorder> <n_pes> <n>\\n    version, producer endianness, PEs, refs
    b\\n <n bytes>                  pe column
    b\\n <n bytes>                  op column
    b\\n <n bytes>                  area column
    q\\n <8n bytes>                 address column
    b\\n <n bytes>                  flags column

The header's reference count fixes every column's byte offset, so any
range ``[lo, hi)`` of references is one ``seek`` + ``array.fromfile``
per column.  :func:`read_trace` reads ``[0, n)``;
:func:`iter_trace_chunks` streams ``[start, n)`` one bounded range at
a time, so a replay never holds more than one range in memory.  A file
is checked against its header when it is opened: one shorter than the
header requires raises :class:`TraceFormatError` before any reference
is read.

Arrays are written in machine byte order; the header records the byte
order, and a reader on a foreign-endian machine byteswaps the columns
it reads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import IO, Iterator, NamedTuple, Tuple, Union

from repro.trace.buffer import TraceBuffer

MAGIC = b"PIMTRACE"
VERSION = 1

#: Magic of the retired chunked container, which shared this prefix.
_RETIRED_MAGIC = MAGIC + b"C"

#: Default range size for :func:`iter_trace_chunks`.  Small enough that
#: one range of five columns (12 bytes/ref) stays well under a
#: megabyte, large enough that the per-range seeks are noise.
DEFAULT_CHUNK_REFS = 65_536


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed; ``byte_offset`` is the
    file position where it went bad, when known."""

    def __init__(self, message, byte_offset=None):
        super().__init__(message)
        self.byte_offset = byte_offset


class TraceHeader(NamedTuple):
    """A checked trace header and the column layout it implies."""

    n_pes: int
    n_refs: int
    #: The columns were written on a foreign-endian machine.
    swap: bool
    #: Byte offset of each column's first entry.
    offsets: Tuple[int, ...]


def write_trace(buffer: TraceBuffer, path: Union[str, Path]) -> None:
    """Serialize *buffer* to *path*."""
    path = Path(path)
    columns = buffer.columns()
    with path.open("wb") as fh:
        header = (
            f"{VERSION} {sys.byteorder} {buffer.n_pes} {len(buffer)}\n".encode("ascii")
        )
        fh.write(MAGIC + b"\n" + header)
        for column in columns:
            fh.write(column.typecode.encode("ascii"))
            fh.write(b"\n")
            column.tofile(fh)


def trace_header(path: Union[str, Path]) -> TraceHeader:
    """Parse and check *path*'s header without reading any reference."""
    path = Path(path)
    with path.open("rb") as fh:
        return _open(fh, path)


def read_trace(path: Union[str, Path]) -> TraceBuffer:
    """Deserialize a trace written by :func:`write_trace`."""
    path = Path(path)
    with path.open("rb") as fh:
        header = _open(fh, path)
        return _read_range(fh, path, header, 0, header.n_refs)


def iter_trace_chunks(
    path: Union[str, Path],
    chunk_refs: int = DEFAULT_CHUNK_REFS,
    start: int = 0,
) -> Iterator[TraceBuffer]:
    """Yield references ``[start, n)`` of the trace at *path* as
    consecutive ``chunk_refs``-sized :class:`TraceBuffer` ranges (the
    last one ragged), holding one range in memory at a time."""
    if chunk_refs < 1 or start < 0:
        raise ValueError(
            f"need chunk_refs >= 1 and start >= 0, got {chunk_refs}, {start}"
        )
    path = Path(path)
    with path.open("rb") as fh:
        header = _open(fh, path)
        for lo in range(start, header.n_refs, chunk_refs):
            hi = min(lo + chunk_refs, header.n_refs)
            yield _read_range(fh, path, header, lo, hi)


def _open(fh: IO[bytes], path: Path) -> TraceHeader:
    """Parse the header at the start of *fh* and check that the file
    holds every column it promises."""
    magic = fh.readline().rstrip(b"\n")
    if magic == _RETIRED_MAGIC:
        raise TraceFormatError(
            f"{path}: {magic.decode()} is the retired chunked trace "
            f"container; re-record the trace as a {MAGIC.decode()} file",
            byte_offset=0,
        )
    if magic != MAGIC:
        raise TraceFormatError(f"{path}: not a PIM trace file", byte_offset=0)
    offset = fh.tell()
    try:
        header = fh.readline().decode("ascii").split()
    except UnicodeDecodeError as error:
        raise TraceFormatError(
            f"{path}: non-ASCII header", byte_offset=offset
        ) from error
    if len(header) != 4:
        raise TraceFormatError(
            f"{path}: malformed header {header!r}", byte_offset=offset
        )
    version, byteorder, n_pes, n_refs = header
    try:
        version_num = int(version)
        pe_count = int(n_pes)
        count = int(n_refs)
    except ValueError as error:
        raise TraceFormatError(
            f"{path}: malformed header {header!r}", byte_offset=offset
        ) from error
    if version_num != VERSION:
        raise TraceFormatError(
            f"{path}: unsupported version {version}", byte_offset=offset
        )
    if byteorder not in ("little", "big"):
        raise TraceFormatError(
            f"{path}: unknown byte order {byteorder!r} in header",
            byte_offset=offset,
        )
    if pe_count < 1 or count < 0:
        raise TraceFormatError(
            f"{path}: malformed header {header!r}", byte_offset=offset
        )
    size = os.fstat(fh.fileno()).st_size
    offset = fh.tell()
    offsets = []
    for column in TraceBuffer().columns():
        fh.seek(offset)
        typecode = fh.read(2).decode("ascii", "replace")
        if typecode != column.typecode + "\n":
            raise TraceFormatError(
                f"{path}: column typecode {typecode.rstrip()!r}, expected "
                f"{column.typecode!r}",
                byte_offset=offset,
            )
        offset += 2
        offsets.append(offset)
        offset += count * column.itemsize
        if offset > size:
            have = (size - offsets[-1]) // column.itemsize
            raise TraceFormatError(
                f"{path}: truncated trace (column {column.typecode!r} has "
                f"{have} of {count} entries)",
                byte_offset=size,
            )
    return TraceHeader(
        pe_count, count, byteorder != sys.byteorder, tuple(offsets)
    )


def _read_range(
    fh: IO[bytes], path: Path, header: TraceHeader, lo: int, hi: int
) -> TraceBuffer:
    """References ``[lo, hi)`` of the opened trace *fh*."""
    buffer = TraceBuffer(n_pes=header.n_pes)
    for column, offset in zip(buffer.columns(), header.offsets):
        fh.seek(offset + lo * column.itemsize)
        try:
            # fromfile raises EOFError when whole items run out and
            # ValueError when the file ends mid-item: the file shrank
            # after it was opened.
            column.fromfile(fh, hi - lo)
        except (EOFError, ValueError) as error:
            raise TraceFormatError(
                f"{path}: truncated trace (column {column.typecode!r} "
                f"ends before reference {hi})",
                byte_offset=fh.tell(),
            ) from error
        if header.swap:
            # A foreign-endian file is converted in place rather than
            # rejected (single-byte columns are unaffected).
            column.byteswap()
    return buffer
