"""Unit and property tests for TraceBuffer."""

import pytest
from hypothesis import given, strategies as st

from repro.trace.buffer import TraceBuffer
from repro.trace.events import Area, MemRef, Op


def test_empty_buffer():
    buffer = TraceBuffer(n_pes=4)
    assert len(buffer) == 0
    assert list(buffer) == []
    assert buffer.n_pes == 4


def test_invalid_pe_count():
    with pytest.raises(ValueError):
        TraceBuffer(n_pes=0)


def test_append_and_iterate():
    buffer = TraceBuffer(n_pes=2)
    buffer.append(0, Op.R, Area.HEAP, 100)
    buffer.append(1, Op.DW, Area.GOAL, 200, flags=1)
    assert len(buffer) == 2
    assert buffer[0] == (0, Op.R, Area.HEAP, 100, 0)
    assert buffer[1] == (1, Op.DW, Area.GOAL, 200, 1)


def test_append_ref_and_refs_roundtrip():
    buffer = TraceBuffer(n_pes=2)
    original = MemRef(1, Op.ER, Area.GOAL, 0x20000008, 0)
    buffer.append_ref(original)
    assert list(buffer.refs()) == [original]


def test_extend_preserves_order_and_pes():
    a = TraceBuffer(n_pes=2)
    a.append(0, Op.R, Area.HEAP, 1)
    b = TraceBuffer(n_pes=4)
    b.append(3, Op.W, Area.COMMUNICATION, 2)
    a.extend(b)
    assert len(a) == 2
    assert a.n_pes == 4
    assert a[1][0] == 3


def test_columns_are_live_views():
    buffer = TraceBuffer()
    buffer.append(0, Op.R, Area.HEAP, 7)
    pe, op, area, addr, flags = buffer.columns()
    assert list(addr) == [7]


@given(
    st.lists(
        st.tuples(
            st.integers(0, 7),
            st.sampled_from(list(Op)),
            st.sampled_from(list(Area)),
            st.integers(0, 2**40),
            st.integers(0, 1),
        ),
        max_size=200,
    )
)
def test_property_roundtrip_through_buffer(entries):
    buffer = TraceBuffer(n_pes=8)
    for entry in entries:
        buffer.append(*entry)
    assert len(buffer) == len(entries)
    for stored, original in zip(buffer, entries):
        assert stored == (
            original[0],
            int(original[1]),
            int(original[2]),
            original[3],
            original[4],
        )
