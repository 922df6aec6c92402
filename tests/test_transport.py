"""Wire codec, request handling, sessions, and the key-material boundary."""

import ast
import contextlib
import pathlib
import random
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eseds import core
from eseds import store as store_mod
from eseds import transport
from eseds.cipher import decrypt
from eseds.core import CoinSource, Domain, RangeQuery, insert, search_range
from eseds.store import DecoupledStore, DenseStore, load as load_store
from eseds.transport import (
    MAX_FRAME,
    Cells,
    CodecError,
    ErrorMsg,
    GetRange,
    InsertAt,
    Len,
    Length,
    LocalSession,
    Ok,
    RebalanceHint,
    Save,
    ServerError,
    StoreServer,
    TcpSession,
    TransportError,
    decode,
    encode,
    serve,
)

from helpers import RecordingSession

MESSAGES = [
    GetRange(0, 1),
    GetRange((1 << 64) - 2, (1 << 64) - 1),
    InsertAt(3, b"cellbytes"),
    InsertAt(0, b""),
    Length(),
    RebalanceHint(0),
    RebalanceHint(12),
    Save(),
    ErrorMsg(2, "rank 9 out of range"),
    ErrorMsg(1, ""),
    Cells(36, b"\x00" * 36),
    Cells(4, b"a" * 36 + b"bc\x00\x00"),
    Cells(36, b""),
    Ok(b""),
    Ok(b"\x01"),
    Len(0),
    Len((1 << 64) - 1),
]


@pytest.mark.parametrize("msg", MESSAGES, ids=lambda m: type(m).__name__ + repr(getattr(m, "j", "")))
def test_codec_round_trip(msg):
    assert decode(encode(msg)) == msg


def _frame(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


def test_decode_rejects_garbage():
    with pytest.raises(CodecError):
        decode(b"\x00\x00\x00\x01\xff")  # unknown opcode
    with pytest.raises(CodecError):
        decode(encode(Length())[:-1])  # truncated
    with pytest.raises(CodecError):
        decode(encode(Length()) + b"x")  # length mismatch
    frame = bytearray(encode(GetRange(2, 1)))
    frame[4:5] = b"\x99"
    with pytest.raises(CodecError):
        decode(bytes(frame))
    with pytest.raises(CodecError):
        decode(_frame(b"\x20\x00\x01" + b"\xff\xfe"))  # ERROR message not UTF-8


def test_retired_insert_opcode_is_unknown():
    # 0x03 once carried (u64 j_left, u64 j_right, cell blob)
    with pytest.raises(CodecError, match="unknown opcode 0x03"):
        decode(_frame(b"\x03" + bytes(16) + b"\x00\x00\x00\x01c"))


# one frame per opcode, byte for byte as docs/protocol.md lays it out:
# length, opcode, the fixed fields, then the rest of the frame
GOLDEN_FRAMES = [
    (GetRange(2, 3), "00000011 01 0000000000000002 0000000000000003"),
    (InsertAt(5, b"cell"), "0000000d 02 0000000000000005 63656c6c"),
    (Length(), "00000001 04"),
    (RebalanceHint(7), "00000009 05 0000000000000007"),
    (Save(), "00000001 06"),
    (ErrorMsg(2, "no"), "00000005 20 0002 6e6f"),
    (Cells(2, b"abcd"), "00000009 21 00000002 61626364"),
    (Ok(b"\x01"), "00000002 22 01"),
    (Len(5), "00000009 23 0000000000000005"),
]


@pytest.mark.parametrize("msg, frame", GOLDEN_FRAMES, ids=[type(msg).__name__ for msg, _ in GOLDEN_FRAMES])
def test_golden_frame_per_opcode(msg, frame):
    assert encode(msg) == bytes.fromhex(frame)
    assert decode(bytes.fromhex(frame)) == msg


def test_golden_frames_cover_every_opcode():
    assert sorted(bytes.fromhex(frame)[4] for _, frame in GOLDEN_FRAMES) == sorted(transport.LAYOUT)


@pytest.mark.parametrize(
    "msg",
    [GetRange(-1, 1), InsertAt(1 << 64, b"c"), Len(-3), ErrorMsg(70000, "x"), ErrorMsg(1, "\ud800")],
    ids=repr,
)
def test_encode_refuses_a_field_it_cannot_write(msg):
    with pytest.raises(CodecError, match="cannot encode"):
        encode(msg)


def test_len_carries_only_the_count():
    assert encode(Len(5)) == _frame(b"\x23" + (5).to_bytes(8, "big"))
    with pytest.raises(CodecError):  # a trailing mode byte is no longer part of LEN
        decode(_frame(b"\x23" + (5).to_bytes(8, "big") + b"\x01"))


def test_decode_rejects_trailing_payload():
    frame = bytearray(encode(Length()))
    frame += b"\x00"
    frame[0:4] = (len(frame) - 4).to_bytes(4, "big")
    with pytest.raises(CodecError):
        decode(bytes(frame))


def test_decode_rejects_truncated_or_trailing_cells():
    body = encode(Cells(2, b"abcd"))[4:]
    assert body == b"\x21" + b"\x00\x00\x00\x02" + b"ab" + b"cd"
    bad = [
        body[:3],  # width cut short
        body[:-1],  # second cell short of its payload
        body[:-3],  # first cell short of its payload
        b"\x21\x00\x00\x00\x03" + body[5:],  # width claims one byte more per cell
        body + b"\x00",  # trailing byte
        b"\x21\x00\x00\x00\x00" + body[5:],  # width 0
        b"\x21\x00\x00\x00\x05" + body[5:],  # width larger than the body
    ]
    for frame in map(_frame, bad):
        with pytest.raises(CodecError):
            decode(frame)


class _FixedRotation:
    def __init__(self, s: int):
        self.s = s

    def randrange(self, n: int) -> int:
        return self.s


def test_get_range_reads_cyclically_from_dense_and_decoupled_stores():
    dense = DenseStore([b"a", b"b", b"c", b"d"], rng=_FixedRotation(3))
    dense.insert_at(4, b"e")
    assert dense.logical_cells() == [b"d", b"e", b"a", b"b", b"c"]
    decoupled = DecoupledStore(index_bits=16)
    for i, cell in enumerate([b"p", b"q", b"r", b"s", b"t"]):
        decoupled.insert_at(i, cell)
    for store in (dense, decoupled):
        server, logical = StoreServer(store), store.logical_cells()
        for start in range(5):
            for count in range(1, 6):
                want = b"".join(logical[(start + i) % 5] for i in range(count))
                assert server.handle(GetRange(start, count)) == Cells(1, want)
    assert StoreServer(dense).handle(GetRange(3, 4)) == Cells(1, b"bcde")
    assert StoreServer(decoupled).handle(GetRange(4, 2)) == Cells(1, b"tp")


def test_encode_rejects_oversized():
    with pytest.raises(CodecError):
        encode(Cells(MAX_FRAME + 1, b"x" * (MAX_FRAME + 1)))


def _random_cells(rng, widths, counts):
    """A CELLS message: one width drawn from ``widths``, 0 to counts-1 cells."""
    width = rng.choice(widths)
    return Cells(width, rng.randbytes(width * rng.randrange(counts)))


def test_random_frame_round_trips():
    rng = random.Random(12)
    for _ in range(2000):
        msg = rng.choice(
            [
                GetRange(rng.randrange(1 << 64), rng.randrange(1 << 64)),
                InsertAt(rng.randrange(1 << 32), rng.randbytes(rng.randrange(64))),
                ErrorMsg(rng.randrange(1 << 16), "x" * rng.randrange(40)),
                _random_cells(rng, (1, 36), 5),
                Len(rng.randrange(1 << 64)),
            ]
        )
        assert decode(encode(msg)) == msg


def _decodes_or_codec_error(frame: bytes) -> None:
    try:
        msg = decode(frame)
    except CodecError:
        return
    assert isinstance(msg, (GetRange, InsertAt, Length, RebalanceHint, Save, ErrorMsg, Cells, Ok, Len))
    assert encode(msg) == frame  # a frame that decodes is the one encoding of its message


_CELLS_BODIES = st.builds(
    lambda width, data: b"\x21" + width.to_bytes(4, "big") + data,
    st.integers(0, 80) | st.integers(0, (1 << 32) - 1),
    st.binary(max_size=200),
)
_OPCODES = [
    transport.GET_RANGE, transport.INSERT_AT, transport.LENGTH, transport.REBALANCE_HINT, transport.SAVE,
    transport.ERROR, transport.CELLS, transport.OK, transport.LEN,
]
_BODIES = (
    st.builds(lambda op, rest: bytes([op]) + rest, st.sampled_from(_OPCODES), st.binary(max_size=64))
    | _CELLS_BODIES
)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.binary(max_size=128) | _BODIES.map(_frame))
def test_decode_of_any_bytes_returns_a_message_or_raises_codec_error(frame):
    _decodes_or_codec_error(frame)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.sampled_from(MESSAGES), st.data())
def test_decode_of_a_damaged_valid_frame_returns_a_message_or_raises_codec_error(msg, data):
    frame = encode(msg)
    cut = data.draw(st.integers(0, len(frame)))
    _decodes_or_codec_error(frame[:cut])  # truncated
    _decodes_or_codec_error(frame + data.draw(st.binary(min_size=1, max_size=40)))  # extended
    body = frame[4:] + data.draw(st.binary(max_size=40))
    _decodes_or_codec_error(_frame(body))  # extended, length prefix kept consistent
    at = data.draw(st.integers(0, len(frame) - 1))
    flipped = bytearray(frame)
    flipped[at] ^= data.draw(st.integers(1, 255))
    _decodes_or_codec_error(bytes(flipped))


def test_cells_bodies_of_width_zero_or_partial_cells_are_codec_errors():
    for body in (
        b"\x21" + bytes(4),  # width 0, no cells
        b"\x21" + bytes(4) + b"ab",  # width 0 with data
        b"\x21" + (5).to_bytes(4, "big") + b"abc",  # width larger than the body
        b"\x21" + (2).to_bytes(4, "big") + b"abc",  # a partial last cell
    ):
        with pytest.raises(CodecError):
            decode(_frame(body))
    assert decode(_frame(b"\x21" + (3).to_bytes(4, "big"))) == Cells(3, b"")


# ---------------------------------------------------------------------------
# server dispatch
# ---------------------------------------------------------------------------


def test_server_roundtrip_and_errors(tmp_path):
    store = DenseStore(rng=random.Random(1))
    server = StoreServer(store, save_path=str(tmp_path / "s.store"))
    assert server.handle(Length()) == Len(0)
    assert isinstance(server.handle(InsertAt(0, b"abc")), Ok)
    assert server.handle(GetRange(0, 1)) == Cells(3, b"abc")

    resp = server.handle(GetRange(5, 1))
    assert isinstance(resp, ErrorMsg) and resp.code == 2  # out of range
    resp = server.handle(InsertAt(2, b"xyz"))
    assert isinstance(resp, ErrorMsg) and resp.code == 2  # slot past the end
    resp = server.handle(RebalanceHint(0))
    assert isinstance(resp, ErrorMsg) and resp.code == 3  # wrong mode
    assert isinstance(server.handle(Save()), Ok)
    assert (tmp_path / "s.store").exists()


def test_an_over_cap_get_range_is_refused_before_the_store_reads(monkeypatch):
    n, width = 4, 36
    store = DenseStore([bytes([i]) * width for i in range(n)], rng=random.Random(7))
    reads = []
    real = store.get_range

    def get_range(start, count):
        reads.append((start, count))
        return real(start, count)

    monkeypatch.setattr(store, "get_range", get_range)
    monkeypatch.setattr(transport, "MAX_FRAME", 5 + 2 * width)  # room for 2 cells
    server = StoreServer(store)
    for start in range(-1, n + 2):
        for count in range(-1, n + 3):
            resp = server.handle(GetRange(start, count))
            if not (0 <= start < n and 1 <= count <= n):
                assert type(resp) is ErrorMsg and resp.code == 2, (start, count)  # out_of_range first
            elif count > 2:
                size = 5 + count * width
                assert resp == ErrorMsg(1, f"{count} cells need a {size}-byte frame, over the cap")
            else:
                assert type(resp) is Cells and len(resp.data) == count * width
    # the store read no range that was then refused for its size
    assert [(start, count) for start, count in reads if 0 <= start < n and 2 < count <= n] == []


def test_server_save_without_path():
    server = StoreServer(DenseStore())
    resp = server.handle(Save())
    assert isinstance(resp, ErrorMsg) and resp.code == 5


def test_a_failed_save_is_an_internal_error_and_the_session_goes_on(tmp_path, monkeypatch):
    def full(*args):
        raise OSError("disk full")

    monkeypatch.setattr(store_mod, "write_file", full)
    session = LocalSession(StoreServer(DenseStore([b"abc"]), save_path=str(tmp_path / "s.store")))
    with pytest.raises(ServerError) as info:
        session.save()
    assert info.value.code == transport.E_INTERNAL and info.value.message == "OSError: disk full"
    assert session.request(Length()) == Len(1)
    assert not (tmp_path / "s.store").exists()


def _hold_first_write(monkeypatch):
    """Patch the store writer so the first write waits until the returned
    ``release`` is set; ``writing`` is set once it waits."""
    writing, release = threading.Event(), threading.Event()
    write_records = store_mod.write_records
    calls = []

    def held(sink, records):
        calls.append(sink)
        if len(calls) == 1:
            writing.set()
            release.wait(10)
        write_records(sink, records)

    monkeypatch.setattr(store_mod, "write_records", held)
    return writing, release


def _in_thread(call, replies):
    thread = threading.Thread(target=lambda: replies.append(call()), daemon=True)
    thread.start()
    return thread


def test_save_answers_other_requests_while_it_writes(tmp_path, monkeypatch):
    path = tmp_path / "s.store"
    store = DenseStore([b"abc", b"def", b"ghi"], rng=random.Random(1))
    server = StoreServer(store, save_path=str(path))
    writing, release = _hold_first_write(monkeypatch)
    saved, answers = [], []
    saver = _in_thread(lambda: server.handle(Save()), saved)
    try:
        assert writing.wait(10)
        reader = _in_thread(lambda: (server.handle(GetRange(1, 2)), server.handle(Length())), answers)
        reader.join(10)
        assert not reader.is_alive()  # the store lock is free while the file is written
        assert answers == [(Cells(3, b"defghi"), Len(3))]
        assert saved == []  # SAVE answers only once its file is written
    finally:
        release.set()
        saver.join(10)
    assert not saver.is_alive() and saved == [Ok()]
    assert load_store(path) == store


def test_overlapping_saves_leave_the_later_state(tmp_path, monkeypatch):
    path = tmp_path / "s.store"
    store = DenseStore([b"abc"], rng=random.Random(1))
    server = StoreServer(store, save_path=str(path))
    writing, release = _hold_first_write(monkeypatch)
    first, inserted, second = [], [], []
    savers = [_in_thread(lambda: server.handle(Save()), first)]
    try:
        assert writing.wait(10)
        inserter = _in_thread(lambda: server.handle(InsertAt(1, b"def")), inserted)
        inserter.join(10)
        assert inserted == [Ok()]
        savers.append(_in_thread(lambda: server.handle(Save()), second))
        savers[1].join(0.2)  # time for the later SAVE to finish first, were it not kept in order
    finally:
        release.set()
        for saver in savers:
            saver.join(10)
    assert first == second == [Ok()]
    assert load_store(path) == store and len(store) == 2


def test_server_rebalance_hint_done_flag():
    store = DecoupledStore(index_bits=16, rng=random.Random(3))
    server = StoreServer(store)
    for l, cell in enumerate([b"a", b"b", b"c"]):
        assert server.handle(InsertAt(l, cell)) == Ok()
    assert server.handle(RebalanceHint(1)) == Ok(b"\x00")
    assert server.handle(RebalanceHint(1)) == Ok(b"\x00")
    assert server.handle(RebalanceHint(1)) == Ok(b"\x01")
    idx = store.sparse_indices()
    assert [b - a for a, b in zip(idx, idx[1:])] == [(1 << 16) // 4] * 2


def _stores_of_36_byte_cells():
    dense = DenseStore([bytes([i]) * 36 for i in range(3)], rng=random.Random(8))
    decoupled = DecoupledStore(index_bits=16, rng=random.Random(8))
    for i in range(3):
        decoupled.insert_at(i, bytes([i]) * 36)
    return dense, decoupled


@pytest.mark.parametrize("cell", [b"x" * 35, b""], ids=["35 bytes", "empty"])
def test_insert_of_another_width_is_refused_and_changes_nothing(cell):
    for store in _stores_of_36_byte_cells():
        before = store.logical_cells()
        resp = StoreServer(store).handle(InsertAt(1, cell))
        assert isinstance(resp, ErrorMsg) and resp.code == 1, store  # bad_request
        assert store.logical_cells() == before


def test_an_empty_store_takes_the_width_of_its_first_cell():
    for store in (DenseStore(rng=random.Random(9)), DecoupledStore(index_bits=16)):
        server = StoreServer(store)
        assert server.handle(InsertAt(0, b"")).code == 1
        assert server.handle(InsertAt(0, b"abcd")) == Ok()
        assert server.handle(InsertAt(1, b"abc")).code == 1
        assert server.handle(InsertAt(1, b"efgh")) == Ok()
        assert store.logical_cells() in ([b"abcd", b"efgh"], [b"efgh", b"abcd"])


class _FaultyStore(DenseStore):
    """A dense store whose ranged reads answer with one cell too many, one
    too few, or every cell a byte short (and the width one byte less)."""

    def __init__(self, cells, fault):
        super().__init__(cells, rng=random.Random(10))
        self.fault = fault
        self.cell_len = self.width
        if fault == "width":
            self.width -= 1

    def get_range(self, start, count):
        block, w = super().get_range(start, count), self.cell_len
        if self.fault == "more":
            return block + block[:w]
        if self.fault == "fewer":
            return block[:-w]
        return b"".join(block[i : i + w - 1] for i in range(0, len(block), w))


def _ask(msg):
    """A request generator of the one message ``msg``; returns its reply's payload."""
    return (yield msg)


@pytest.mark.parametrize("fault", ["more", "fewer", "width"])
def test_session_rejects_cells_replies_that_do_not_match_the_request(fault):
    # core's driver checks every reply of the server
    session = LocalSession(StoreServer(_FaultyStore([bytes([i]) * 36 for i in range(4)], fault)))
    with pytest.raises(TransportError):
        core._run(session, _ask(GetRange(1, 1)))
    with pytest.raises(TransportError):
        core._run(session, core._read(1, 3, 4))


class _Answers:
    """A session that answers every request with one fixed reply."""

    def __init__(self, reply):
        self.reply, self.sent = reply, []

    def request(self, msg):
        self.sent.append(msg)
        return self.reply


@pytest.mark.parametrize(
    "request_, reply, error",
    [
        (GetRange(1, 2), Cells(35, b"c" * 70), TransportError),  # the wrong width
        (GetRange(1, 2), Cells(36, b"c" * 36), TransportError),  # one cell short
        (GetRange(1, 2), ErrorMsg(2, "rank 9 out of range"), ServerError),
        (GetRange(1, 2), Len(2), TransportError),  # a Len where a Cells was due
        (Length(), Cells(36, b""), TransportError),
        (InsertAt(0, b"c" * 36), Len(1), TransportError),
        (InsertAt(0, b"c" * 36), ErrorMsg(1, "cell of another width"), ServerError),
        (InsertAt(0, b"c" * 36), Ok(b"\x00"), TransportError),  # an OK to INSERT_AT is empty
        (InsertAt(0, b"c" * 36), Ok(b"\x01"), TransportError),
        (Length(), Ok(), TransportError),
        (Length(), ErrorMsg(6, "internal"), ServerError),
    ],
)
def test_driver_raises_on_a_reply_that_does_not_answer_its_request(request_, reply, error):
    session = _Answers(reply)
    with pytest.raises(error) as exc:
        core._run(session, _ask(request_))
    assert type(exc.value) is error and session.sent == [request_]
    if error is ServerError:
        assert (exc.value.code, exc.value.message) == (reply.code, reply.message)


#: the reply type that answers each request, as docs/protocol.md's
#: "Responses" lists them
_ANSWERED_BY = {GetRange: Cells, InsertAt: Ok, Length: Len, RebalanceHint: Ok, Save: Ok}
_SENT = [GetRange(0, 2), InsertAt(0, b"c" * 36), Length(), RebalanceHint(3), Save()]


def _broken_replies():
    """Each request with each reply that breaks the protocol's rule for it,
    and the error the client must raise."""
    rows = []
    for msg in _SENT:
        name = type(msg).__name__
        for reply in (Cells(36, b"c" * 72), Ok(), Len(2)):
            if type(reply) is not _ANSWERED_BY[type(msg)]:
                rows.append(pytest.param(msg, reply, TransportError, id=f"{name}-{type(reply).__name__}"))
        rows.append(pytest.param(msg, ErrorMsg(4, "the store is full"), ServerError, id=f"{name}-ERROR"))
    rows += [
        pytest.param(GetRange(0, 2), Cells(36, b"c" * 36), TransportError, id="GetRange-one-cell-short"),
        pytest.param(InsertAt(0, b"c" * 36), Ok(b"\x00"), TransportError, id="InsertAt-OK-with-data"),
        pytest.param(Save(), Ok(b"\x00"), TransportError, id="Save-OK-with-data"),
        pytest.param(RebalanceHint(3), Ok(), TransportError, id="RebalanceHint-OK-of-0-bytes"),
        pytest.param(RebalanceHint(3), Ok(b"\x01\x01"), TransportError, id="RebalanceHint-OK-of-2-bytes"),
        pytest.param(RebalanceHint(3), Ok(b"\x02"), TransportError, id="RebalanceHint-OK-of-byte-2"),
    ]
    return rows


def _send(session, msg):
    """Send ``msg`` as eseds does: REBALANCE_HINT and SAVE through the
    session's own methods, every other request through core's driver."""
    if type(msg) is RebalanceHint:
        return session.rebalance(msg.batch)
    if type(msg) is Save:
        return session.save()
    return core._run(session, _ask(msg))


@pytest.mark.parametrize("over", ["local", "tcp"])
@pytest.mark.parametrize("request_, reply, error", _broken_replies())
def test_both_sessions_refuse_a_reply_that_breaks_the_rule_for_its_request(over, request_, reply, error, monkeypatch):
    handled = []

    def handle(msg):
        handled.append(msg)
        return reply

    with contextlib.ExitStack() as stack:
        if over == "local":
            server = StoreServer(DenseStore())
            session = LocalSession(server)
        else:
            tcp = stack.enter_context(_serving(DenseStore()))
            server = tcp.store_server
            session = stack.enter_context(TcpSession(*tcp.server_address))
        monkeypatch.setattr(server, "handle", handle)
        with pytest.raises(error) as exc:
            _send(session, request_)
    assert type(exc.value) is error and handled == [request_]
    if error is ServerError:
        assert (exc.value.code, exc.value.message) == (reply.code, reply.message)


def test_local_session_typed_helpers():
    # the driver sends back each request's payload: the cells' bytes, the
    # count, or the empty data of the OK that answers INSERT_AT
    store = DecoupledStore(index_bits=16, rng=random.Random(4))
    session = LocalSession(store)
    assert core._run(session, _ask(Length())) == 0
    assert core._run(session, _ask(InsertAt(0, b"z" * 36))) == b""
    assert store.sparse_indices() == [1 << 15]
    assert core._run(session, _ask(GetRange(0, 1))) == b"z" * 36
    assert core._run(session, _ask(Length())) == 1
    assert session.rebalance(0) is True
    with pytest.raises(ServerError) as exc:
        core._run(session, _ask(GetRange(9, 1)))
    assert exc.value.code == 2
    assert "out_of_range" in exc.value.category


def test_session_stats_count_fetches():
    store = DenseStore(rng=random.Random(5))
    session = LocalSession(store)
    session.request(InsertAt(0, b"a"))
    session.request(GetRange(0, 1))
    session.request(GetRange(0, 1))
    assert session.stats.cells_fetched == 2
    assert session.stats.requests_sent == 3
    assert session.stats.bytes_on_wire > 0
    session.request(InsertAt(0, b"b"))
    session.request(InsertAt(0, b"c"))
    assert bytes(sorted(session.request(GetRange(1, 3)).data)) == b"abc"
    assert session.stats.cells_fetched == 5  # cells, not requests
    assert session.stats.requests_sent == 6


# ---------------------------------------------------------------------------
# TCP
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _serving(store, save_path=None):
    server = serve(store, port=0, save_path=save_path)  # ephemeral port
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def tcp_server():
    store = DenseStore(rng=random.Random(6))
    with _serving(store) as server:
        yield server, store


@pytest.mark.parametrize("layout", ["dense", "decoupled"])
def test_tcp_matches_local(layout, key):
    def new_store():
        rng = random.Random(6)
        return DenseStore(rng=rng) if layout == "dense" else DecoupledStore(index_bits=8, rng=rng)

    store, twin = new_store(), new_store()
    dom = Domain(32)
    local = LocalSession(twin)
    with _serving(store) as server, TcpSession(*server.server_address) as remote:
        coins_a, coins_b = CoinSource(9), CoinSource(9)
        for v in [4, 9, 1, 9, 30]:
            insert(key, remote, v, dom, coins=coins_a)
            insert(key, local, v, dom, coins=coins_b)
        # nonces differ per encryption, but identical coins force identical
        # slot choices, so the decrypted layouts must match exactly
        got_plain = [decrypt(key, store.get_cell(j)) for j in range(len(store))]
        want_plain = [decrypt(key, twin.get_cell(j)) for j in range(len(twin))]
        assert got_plain == want_plain
        got = search_range(key, remote, RangeQuery(2, 9), dom)
        want = search_range(key, local, RangeQuery(2, 9), dom)
        assert got == want
        assert remote.request(Length()) == local.request(Length()) == Len(5)
        assert remote.stats == local.stats  # one request path counts both transports


def test_tcp_error_frames_surface_as_server_errors(tcp_server):
    server, _ = tcp_server
    host, port = server.server_address
    with TcpSession(host, port) as session:
        with pytest.raises(ServerError) as exc:
            core._run(session, _ask(GetRange(99, 1)))
        assert exc.value.code == 2
        assert session.request(Length()) == Len(0)  # connection still usable


def test_tcp_get_range_errors_leave_the_connection_usable(tcp_server, monkeypatch):
    server, store = tcp_server
    host, port = server.server_address
    for cell in (b"a" * 36, b"b" * 36, b"c" * 36):
        store.insert_at(0, cell)
    # room for 2 cells of 36 bytes per CELLS frame (opcode, width, cells)
    monkeypatch.setattr(transport, "MAX_FRAME", 5 + 2 * 36)
    with TcpSession(host, port) as session:
        for start, count, code in [(3, 1, 2), (0, 0, 2), (0, 4, 2), (0, 3, 1)]:
            resp = session.request(GetRange(start, count))
            assert isinstance(resp, ErrorMsg) and resp.code == code, (start, count)
            assert session.request(Length()) == Len(3)  # connection still usable
        logical = store.logical_cells()
        assert session.request(GetRange(2, 2)) == Cells(36, logical[2] + logical[0])
        want = b"".join(logical[1:] + logical[:1])
        assert core._run(session, core._read(1, 3, 3)) == want  # split in two
        assert (session.stats.requests_sent, session.stats.cells_fetched) == (11, 5)


def test_tcp_insert_of_another_width_leaves_the_connection_usable(tcp_server):
    server, store = tcp_server
    with TcpSession(*server.server_address) as session:
        assert session.request(InsertAt(0, b"a" * 36)) == Ok()
        for cell in (b"b" * 35, b""):
            with pytest.raises(ServerError) as exc:
                core._run(session, _ask(InsertAt(1, cell)))
            assert exc.value.category == "bad_request"
            assert session.request(Length()) == Len(1)  # the next request is still answered
        assert session.request(GetRange(0, 1)) == Cells(36, b"a" * 36)
    assert store.logical_cells() == [b"a" * 36]


def test_tcp_rejects_non_request_frames(tcp_server):
    server, _ = tcp_server
    host, port = server.server_address
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(encode(Cells(4, b"nope")))  # response opcode as a request
        resp = sock.recv(1 << 16)
    msg = decode(resp)
    assert isinstance(msg, ErrorMsg) and msg.code == 1


def test_tcp_answers_an_error_frame_that_is_not_utf8_with_bad_request(tcp_server):
    server, _ = tcp_server
    with socket.create_connection(server.server_address, timeout=5) as sock:
        sock.sendall(_frame(b"\x20\x00\x01" + b"\xff"))
        resp = sock.recv(1 << 16)
    msg = decode(resp)
    assert isinstance(msg, ErrorMsg) and msg.code == 1


def test_tcp_rejects_garbage_bytes(tcp_server):
    server, _ = tcp_server
    host, port = server.server_address
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(b"\x00\x00\x00\x02\xff\xff")
        resp = sock.recv(1 << 16)
    assert isinstance(decode(resp), ErrorMsg)


RAW_CLIENT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "raw_client.py"


def test_raw_client_script_speaks_the_documented_layout(tmp_path):
    # the script imports only socket, struct and sys, so it checks the
    # served bytes against docs/protocol.md and not against this codec;
    # it sends SAVE, so the server has a file to save to
    imports = [
        alias.name
        for node in ast.walk(ast.parse(RAW_CLIENT.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert sorted(imports) == ["socket", "struct", "sys"]
    store = DenseStore(rng=random.Random(6))
    with _serving(store, save_path=tmp_path / "s.db") as server:
        host, port = server.server_address
        run = subprocess.run(
            [sys.executable, str(RAW_CLIENT), f"{host}:{port}"], capture_output=True, text=True, timeout=60
        )
    assert run.returncode == 0, run.stdout + run.stderr
    assert store.logical_cells() == load_store(tmp_path / "s.db").logical_cells() == [bytes(range(36))]


def test_tcp_sockets_send_without_delay():
    served = []

    class Recording(transport._ConnectionHandler):
        def handle(self):
            served.append(self.request)  # the accepted socket
            super().handle()

    with _serving(DenseStore()) as server:
        server.RequestHandlerClass = Recording
        with TcpSession(*server.server_address) as session:
            assert session.request(Length()) == Len(0)  # the handler is serving
            for sock in (session._sock, *served):
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    assert len(served) == 1


def _read_until_closed(sock) -> bytes:
    chunks = []
    while chunk := sock.recv(1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def test_tcp_server_answers_back_to_back_requests_in_order(tcp_server):
    # two frames in one segment: the second is read after the first is answered
    server, store = tcp_server
    store.insert_at(0, b"a" * 36)
    with socket.create_connection(server.server_address, timeout=5) as sock:
        sock.sendall(encode(GetRange(0, 1)) + encode(Length()))
        sock.shutdown(socket.SHUT_WR)  # a clean close after the second frame
        assert _read_until_closed(sock) == encode(Cells(36, b"a" * 36)) + encode(Len(1))


def test_tcp_server_answers_a_request_sent_a_few_bytes_at_a_time(tcp_server):
    server, store = tcp_server
    store.insert_at(0, b"a" * 36)
    store.insert_at(1, b"b" * 36)
    frame = encode(GetRange(0, 2))
    with socket.create_connection(server.server_address, timeout=5) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for at in range(0, len(frame), 3):
            sock.sendall(frame[at : at + 3])
            time.sleep(0.005)
        sock.shutdown(socket.SHUT_WR)
        assert _read_until_closed(sock) == encode(Cells(36, b"".join(store.logical_cells())))


def test_tcp_server_refuses_a_declared_length_over_the_cap(tcp_server, monkeypatch):
    server, _ = tcp_server
    monkeypatch.setattr(transport, "MAX_FRAME", 100)
    with socket.create_connection(server.server_address, timeout=5) as sock:
        sock.sendall((101).to_bytes(4, "big"))  # the body is never sent
        msg = decode(_read_until_closed(sock))
    assert isinstance(msg, ErrorMsg) and msg.code == 1


def test_tcp_server_drops_a_client_that_resets_before_its_reply_quietly():
    # the store answers only after the client has reset the connection, so
    # the server's reply meets the reset; that must end the connection
    # without reaching socketserver's handle_error, and serve the next client
    entered, released = threading.Event(), threading.Event()

    class Held(DenseStore):
        def get_range(self, start, count):
            entered.set()
            released.wait(5)
            return super().get_range(start, count)

    with _serving(Held([b"a" * 36] * 4)) as server:
        errors, done = [], threading.Event()
        server.handle_error = lambda request, address: errors.append(sys.exc_info()[1])
        shutdown_request = server.shutdown_request

        def closed(request):  # called after handle_error, when the handler is done
            shutdown_request(request)
            done.set()

        server.shutdown_request = closed
        sock = socket.create_connection(server.server_address, timeout=5)
        sock.sendall(encode(GetRange(0, 4)))
        assert entered.wait(5)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()  # linger 0: the peer gets a reset, not a clean close
        time.sleep(0.05)
        released.set()
        assert done.wait(5)
        with TcpSession(*server.server_address) as session:
            assert session.request(Length()) == Len(4)
    assert errors == []


@contextlib.contextmanager
def _answering(reply: bytes):
    """A peer that reads one request, answers with raw ``reply`` bytes and
    closes; yields its address."""
    listener = socket.create_server(("127.0.0.1", 0))

    def answer():
        conn, _ = listener.accept()
        with conn:
            conn.recv(1 << 16)
            conn.sendall(reply)

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        thread.join(5)
        listener.close()


def test_tcp_session_rejects_a_response_over_the_cap():
    with _answering((MAX_FRAME + 1).to_bytes(4, "big")) as addr, TcpSession(*addr) as session:
        with pytest.raises(CodecError, match="exceeds"):
            session.request(Length())


@pytest.mark.parametrize("cut", [2, 6])  # inside the length prefix, inside the body
def test_tcp_session_reports_a_server_that_closes_mid_frame(cut):
    with _answering(encode(Len(7))[:cut]) as addr, TcpSession(*addr) as session:
        with pytest.raises(TransportError, match="mid-frame"):
            session.request(Length())


# ---------------------------------------------------------------------------
# key material boundary
# ---------------------------------------------------------------------------


def test_no_key_material_on_the_wire(key):
    dom = Domain(64)
    log = []
    session = RecordingSession(DenseStore(rng=random.Random(8)), log)
    coins = CoinSource(3)
    for v in [5, 17, 5, 40]:
        insert(key, session, v, dom, coins=coins)
    search_range(key, session, RangeQuery(4, 20), dom)
    session.request(Length())
    assert log, "wire log should have captured frames"
    key_bytes = key.bytes
    for _, frame in log:
        assert key_bytes not in frame
        assert key_bytes[:8] not in frame  # no partial leak either


def test_server_modules_never_touch_key_types():
    # the server-side modules must not even import the secret key type
    src_dir = pathlib.Path(__file__).resolve().parents[1] / "src" / "eseds"
    for name in ("store.py", "transport.py"):
        text = (src_dir / name).read_text()
        assert "SecretKey" not in text, f"{name} references key material"
        assert "decrypt" not in text, f"{name} can decrypt"


def test_secret_key_not_picklable_into_store_files(tmp_path, key):
    # a saved store holds only opaque cell bytes
    dom = Domain(16)
    store = DenseStore(rng=random.Random(9))
    session = LocalSession(store)
    insert(key, session, 3, dom, coins=CoinSource(0))
    path = tmp_path / "x.store"
    store.save(path)
    assert key.bytes not in path.read_bytes()
