"""Trace file round-trip tests.

Fixed-example tests cover the header/typecode rejection paths; the
hypothesis properties at the bottom pin the stronger guarantees —
write→read identity for arbitrary buffers, ranged reads equal to the
matching slice for any range size, start and byte order, foreign-endian
byteswap transparency, and ``TraceFormatError`` (never a raw
``EOFError`` or ``ValueError``) on a file truncated at *any* byte
offset, raised when the file is opened.
"""

import sys
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.buffer import TraceBuffer
from repro.trace.events import Area, Op
from repro.trace.io import (
    MAGIC,
    TraceFormatError,
    iter_trace_chunks,
    read_trace,
    trace_header,
    write_trace,
)
from repro.trace.synthetic import generate_random_trace


def test_roundtrip_empty(tmp_path):
    buffer = TraceBuffer(n_pes=3)
    path = tmp_path / "empty.trace"
    write_trace(buffer, path)
    loaded = read_trace(path)
    assert loaded.n_pes == 3
    assert len(loaded) == 0


def test_roundtrip_content(tmp_path):
    buffer = generate_random_trace(5000, n_pes=4, seed=11)
    path = tmp_path / "t.trace"
    write_trace(buffer, path)
    loaded = read_trace(path)
    assert len(loaded) == len(buffer)
    assert list(loaded) == list(buffer)


def test_rejects_garbage(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_bytes(b"NOTATRACE\nstuff")
    with pytest.raises(TraceFormatError):
        read_trace(path)


def test_rejects_truncated_header(tmp_path):
    path = tmp_path / "trunc.trace"
    path.write_bytes(b"PIMTRACE\n1 little\n")
    with pytest.raises(TraceFormatError):
        read_trace(path)


def test_foreign_endian_roundtrip(tmp_path):
    # Fabricate the file a foreign-endian machine would have written:
    # same header/typecodes, multi-byte columns byteswapped, and the
    # opposite byte order recorded in the header.
    buffer = generate_random_trace(500, n_pes=4, seed=7)
    path = tmp_path / "native.trace"
    write_trace(buffer, path)
    foreign = {"little": "big", "big": "little"}[sys.byteorder]
    raw = path.read_bytes().replace(
        f" {sys.byteorder} ".encode("ascii"), f" {foreign} ".encode("ascii"), 1
    )
    addr_col = buffer.columns()[3]
    swapped = array("q", addr_col)
    swapped.byteswap()
    raw = raw.replace(addr_col.tobytes(), swapped.tobytes(), 1)
    foreign_path = tmp_path / "foreign.trace"
    foreign_path.write_bytes(raw)

    loaded = read_trace(foreign_path)
    assert list(loaded) == list(buffer)


def test_rejects_unknown_byteorder(tmp_path):
    buffer = TraceBuffer()
    buffer.append(0, Op.R, Area.HEAP, 1)
    path = tmp_path / "weird.trace"
    write_trace(buffer, path)
    raw = path.read_bytes().replace(
        f" {sys.byteorder} ".encode("ascii"), b" middle ", 1
    )
    path.write_bytes(raw)
    with pytest.raises(TraceFormatError, match="byte order"):
        read_trace(path)


def test_rejects_bad_version(tmp_path):
    buffer = TraceBuffer()
    buffer.append(0, Op.R, Area.HEAP, 1)
    path = tmp_path / "v.trace"
    write_trace(buffer, path)
    data = path.read_bytes().replace(b"\n1 ", b"\n9 ", 1)
    path.write_bytes(data)
    with pytest.raises(TraceFormatError):
        read_trace(path)


def test_rejects_non_numeric_header_fields(tmp_path):
    path = tmp_path / "nan.trace"
    path.write_bytes(b"PIMTRACE\n1 little four 10\n")
    with pytest.raises(TraceFormatError, match="malformed header"):
        read_trace(path)


def test_rejects_negative_counts(tmp_path):
    path = tmp_path / "neg.trace"
    path.write_bytes(b"PIMTRACE\n1 little 4 -1\n")
    with pytest.raises(TraceFormatError, match="malformed header"):
        read_trace(path)


def test_rejects_binary_header(tmp_path):
    path = tmp_path / "bin.trace"
    path.write_bytes(b"PIMTRACE\n\xff\xfe\x80\n")
    with pytest.raises(TraceFormatError):
        read_trace(path)


def test_truncated_column_names_the_shortfall(tmp_path):
    buffer = generate_random_trace(100, n_pes=2, seed=1)
    path = tmp_path / "cut.trace"
    write_trace(buffer, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 4])
    with pytest.raises(TraceFormatError, match="truncated"):
        read_trace(path)


# ---------------------------------------------------------------------------
# Ranged reads: the header fixes every column's offset.


def _write_foreign(buffer, path):
    """Write the file a foreign-endian producer would have written:
    its byte order in the header, multi-byte columns byteswapped."""
    foreign = {"little": "big", "big": "little"}[sys.byteorder]
    with path.open("wb") as fh:
        fh.write(
            MAGIC + f"\n1 {foreign} {buffer.n_pes} {len(buffer)}\n".encode()
        )
        for column in buffer.columns():
            swapped = array(column.typecode, column)
            swapped.byteswap()
            fh.write(column.typecode.encode("ascii") + b"\n")
            swapped.tofile(fh)


def test_chunked_roundtrip_and_sniffing(tmp_path):
    # A flat file read range by range is the file read whole ...
    buffer = generate_random_trace(5_000, n_pes=4, seed=11)
    path = tmp_path / "c.trace"
    write_trace(buffer, path)
    rows = [row for chunk in iter_trace_chunks(path, 700) for row in chunk]
    assert rows == list(read_trace(path)) == list(buffer)
    # ... and the magic line is sniffed: a file of the retired chunked
    # container is rejected by name, never misread.
    retired = tmp_path / "retired.trace"
    retired.write_bytes(
        MAGIC + b"C\n1 little 4\nC 0 1\nb\n\x00b\n\x00b\n\x00"
    )
    for read in (read_trace, trace_header, lambda p: next(iter_trace_chunks(p))):
        with pytest.raises(TraceFormatError, match="retired chunked") as info:
            read(retired)
        assert info.value.byte_offset == 0


def test_chunked_iteration_yields_bounded_chunks(tmp_path):
    buffer = generate_random_trace(5_000, n_pes=4, seed=3)
    path = tmp_path / "c.trace"
    write_trace(buffer, path)
    chunks = list(iter_trace_chunks(path, 700))
    sizes = [len(chunk) for chunk in chunks]
    assert sizes[:-1] == [700] * (len(sizes) - 1) and 0 < sizes[-1] <= 700
    assert all(chunk.n_pes == 4 for chunk in chunks)
    rebuilt = [row for chunk in chunks for row in chunk]
    assert rebuilt == list(buffer)
    tail = list(iter_trace_chunks(path, 700, start=4_321))
    assert [row for chunk in tail for row in chunk] == list(buffer)[4_321:]


def test_chunked_empty_roundtrip(tmp_path):
    path = tmp_path / "empty.trace"
    write_trace(TraceBuffer(n_pes=5), path)
    header = trace_header(path)
    assert (header.n_pes, header.n_refs) == (5, 0)
    assert list(iter_trace_chunks(path, 700)) == []
    assert list(iter_trace_chunks(path, 700, start=3)) == []


def test_flat_file_is_not_chunked(tmp_path):
    # One header, then each column once: the file is exactly as long as
    # the offset arithmetic says, 12 bytes per reference.
    buffer = generate_random_trace(100, n_pes=2, seed=1)
    path = tmp_path / "flat.trace"
    write_trace(buffer, path)
    header = trace_header(path)
    head = len(MAGIC) + len(f"\n1 {sys.byteorder} 2 100\n")
    assert header.offsets == (
        head + 2, head + 104, head + 206, head + 308, head + 1110
    )
    assert path.stat().st_size == head + 5 * 2 + 12 * 100


def test_ranged_reads_reject_bad_arguments(tmp_path):
    path = tmp_path / "t.trace"
    write_trace(generate_random_trace(10, n_pes=2, seed=1), path)
    for chunk_refs, start in ((0, 0), (5, -1)):
        with pytest.raises(ValueError):
            next(iter_trace_chunks(path, chunk_refs, start))


# ---------------------------------------------------------------------------
# Hypothesis properties.

_ref = st.tuples(
    st.integers(0, 7),  # pe
    st.sampled_from(sorted(Op)),  # op
    st.sampled_from(sorted(Area)),  # area
    st.integers(0, 2**40),  # address
    st.sampled_from([0, 1]),  # flags
)


def _buffer_from(refs, n_pes=8):
    buffer = TraceBuffer(n_pes=n_pes)
    for pe, op, area, addr, flags in refs:
        buffer.append(pe, op, area, addr, flags)
    return buffer


@settings(max_examples=60, deadline=None)
@given(refs=st.lists(_ref, max_size=200), n_pes=st.integers(1, 8))
def test_property_roundtrip_identity(tmp_path_factory, refs, n_pes):
    buffer = _buffer_from(refs, n_pes=n_pes)
    path = tmp_path_factory.mktemp("io") / "prop.trace"
    write_trace(buffer, path)
    loaded = read_trace(path)
    assert loaded.n_pes == buffer.n_pes
    assert list(loaded) == list(buffer)


@settings(max_examples=40, deadline=None)
@given(refs=st.lists(_ref, min_size=1, max_size=120))
def test_property_foreign_endian_roundtrip(tmp_path_factory, refs):
    # Fabricate the byte-for-byte file a foreign-endian producer would
    # have written: multi-byte columns byteswapped, its byte order in
    # the header.  The reader must reconstruct the original references.
    buffer = _buffer_from(refs)
    path = tmp_path_factory.mktemp("io") / "native.trace"
    write_trace(buffer, path)
    foreign = {"little": "big", "big": "little"}[sys.byteorder]
    raw = path.read_bytes().replace(
        f" {sys.byteorder} ".encode("ascii"), f" {foreign} ".encode("ascii"), 1
    )
    addr_col = buffer.columns()[3]
    swapped = array("q", addr_col)
    swapped.byteswap()
    raw = raw.replace(addr_col.tobytes(), swapped.tobytes(), 1)
    foreign_path = tmp_path_factory.mktemp("io") / "foreign.trace"
    foreign_path.write_bytes(raw)
    assert list(read_trace(foreign_path)) == list(buffer)


@settings(max_examples=80, deadline=None)
@given(
    refs=st.lists(_ref, max_size=120),
    chunk_refs=st.integers(1, 40),
    start=st.integers(0, 130),
    foreign=st.booleans(),
)
def test_property_chunked_roundtrip_identity(
    tmp_path_factory, refs, chunk_refs, start, foreign
):
    # Any range size, any start (past the end included), either byte
    # order: the ranges concatenate to the slice [start, n).
    buffer = _buffer_from(refs)
    path = tmp_path_factory.mktemp("io") / "prop.trace"
    if foreign:
        _write_foreign(buffer, path)
    else:
        write_trace(buffer, path)
    chunks = list(iter_trace_chunks(path, chunk_refs, start))
    assert all(0 < len(chunk) <= chunk_refs for chunk in chunks)
    streamed = [row for chunk in chunks for row in chunk]
    assert streamed == list(buffer.slice(start, len(buffer)))


@settings(max_examples=80, deadline=None)
@given(
    refs=st.lists(_ref, min_size=1, max_size=60),
    chunk_refs=st.integers(1, 16),
    cut=st.integers(0, 10**9),
)
def test_property_ranged_truncation_is_caught_at_open(
    tmp_path_factory, refs, chunk_refs, cut
):
    # Truncating a trace at any byte raises TraceFormatError carrying
    # the byte offset of the failure when the file is opened, before
    # the first range is handed out.
    buffer = _buffer_from(refs)
    path = tmp_path_factory.mktemp("io") / "whole.trace"
    write_trace(buffer, path)
    raw = path.read_bytes()
    cut = cut % len(raw)
    short = tmp_path_factory.mktemp("io") / "short.trace"
    short.write_bytes(raw[:cut])
    with pytest.raises(TraceFormatError) as info:
        next(iter_trace_chunks(short, chunk_refs))
    assert info.value.byte_offset is not None
    assert 0 <= info.value.byte_offset <= cut


@settings(max_examples=80, deadline=None)
@given(
    refs=st.lists(_ref, min_size=1, max_size=60),
    cut=st.integers(0, 10**9),
    data=st.data(),
)
def test_property_truncation_always_raises_trace_format_error(
    tmp_path_factory, refs, cut, data
):
    # Any strict prefix of a non-empty trace file is rejected with
    # TraceFormatError — never a raw EOFError, UnicodeDecodeError or
    # ValueError leaking from the parser internals.
    buffer = _buffer_from(refs)
    path = tmp_path_factory.mktemp("io") / "whole.trace"
    write_trace(buffer, path)
    raw = path.read_bytes()
    cut = cut % len(raw)  # strict prefix: 0 <= cut < len(raw)
    short = tmp_path_factory.mktemp("io") / "short.trace"
    short.write_bytes(raw[:cut])
    with pytest.raises(TraceFormatError):
        read_trace(short)
