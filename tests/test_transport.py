"""Wire codec, request handling, sessions, and the key-material boundary."""

import ast
import contextlib
import pathlib
import random
import socket
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eseds import transport
from eseds.cipher import decrypt
from eseds.core import CoinSource, Domain, RangeQuery, insert, search_range
from eseds.store import DecoupledStore, DenseStore
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


def test_server_save_without_path():
    server = StoreServer(DenseStore())
    resp = server.handle(Save())
    assert isinstance(resp, ErrorMsg) and resp.code == 5


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


@pytest.mark.parametrize("fault", ["more", "fewer", "width"])
def test_session_rejects_cells_replies_that_do_not_match_the_request(fault):
    session = LocalSession(StoreServer(_FaultyStore([bytes([i]) * 36 for i in range(4)], fault)))
    with pytest.raises(TransportError):
        session.get_cell(1, 36)
    with pytest.raises(TransportError):
        session.get_range(1, 3, 4, 36)


def test_local_session_typed_helpers():
    store = DecoupledStore(index_bits=16, rng=random.Random(4))
    session = LocalSession(store)
    assert session.length() == 0
    session.insert_at(0, b"zz")
    assert store.sparse_indices() == [1 << 15]
    assert session.get_cell(0, 2) == b"zz"
    assert session.length() == 1
    assert session.rebalance(0) is True
    with pytest.raises(ServerError) as exc:
        session.get_cell(9, 2)
    assert exc.value.code == 2
    assert "out_of_range" in exc.value.category


def test_session_stats_count_fetches():
    store = DenseStore(rng=random.Random(5))
    session = LocalSession(store)
    session.insert_at(0, b"a")
    session.get_cell(0, 1)
    session.get_cell(0, 1)
    assert session.stats.cells_fetched == 2
    assert session.stats.requests_sent == 3
    assert session.stats.bytes_on_wire > 0
    session.insert_at(0, b"b")
    session.insert_at(0, b"c")
    assert bytes(sorted(session.get_range(1, 3, 3, 1))) == b"abc"
    assert session.stats.cells_fetched == 5  # cells, not requests
    assert session.stats.requests_sent == 6


# ---------------------------------------------------------------------------
# TCP
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _serving(store):
    server = serve(store, port=0)  # ephemeral port
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
        assert remote.length() == local.length() == 5
        assert remote.stats == local.stats  # one request path counts both transports


def test_tcp_error_frames_surface_as_server_errors(tcp_server):
    server, _ = tcp_server
    host, port = server.server_address
    with TcpSession(host, port) as session:
        with pytest.raises(ServerError) as exc:
            session.get_cell(99, 36)
        assert exc.value.code == 2
        assert session.length() == 0  # connection still usable


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
            assert session.length() == 3  # connection still usable
        logical = store.logical_cells()
        assert session.request(GetRange(2, 2)) == Cells(36, logical[2] + logical[0])
        assert session.get_range(1, 3, 3, 36) == b"".join(logical[1:] + logical[:1])  # split in two
        assert (session.stats.requests_sent, session.stats.cells_fetched) == (11, 5)


def test_tcp_insert_of_another_width_leaves_the_connection_usable(tcp_server):
    server, store = tcp_server
    with TcpSession(*server.server_address) as session:
        session.insert_at(0, b"a" * 36)
        for cell in (b"b" * 35, b""):
            with pytest.raises(ServerError) as exc:
                session.insert_at(1, cell)
            assert exc.value.category == "bad_request"
            assert session.length() == 1  # the next request is still answered
        assert session.get_cell(0, 36) == b"a" * 36
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


def test_raw_client_script_speaks_the_documented_layout(tcp_server):
    # the script imports only socket, struct and sys, so it checks the
    # served bytes against docs/protocol.md and not against this codec
    imports = [
        alias.name
        for node in ast.walk(ast.parse(RAW_CLIENT.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert sorted(imports) == ["socket", "struct", "sys"]
    server, store = tcp_server
    host, port = server.server_address
    run = subprocess.run(
        [sys.executable, str(RAW_CLIENT), f"{host}:{port}"], capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert store.logical_cells() == [bytes(range(36))]


def test_tcp_sockets_send_without_delay():
    server = serve(DenseStore(), port=0)  # not serving: accept by hand below
    try:
        with TcpSession(*server.server_address) as session:
            conn, _ = server.get_request()
            with conn:
                for sock in (session._sock, conn):
                    assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    finally:
        server.server_close()


def _read_until_closed(sock) -> bytes:
    chunks = []
    while chunk := sock.recv(1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def test_tcp_server_refuses_a_declared_length_over_the_cap(tcp_server, monkeypatch):
    server, _ = tcp_server
    monkeypatch.setattr(transport, "MAX_FRAME", 100)
    with socket.create_connection(server.server_address, timeout=5) as sock:
        sock.sendall((101).to_bytes(4, "big"))  # the body is never sent
        msg = decode(_read_until_closed(sock))
    assert isinstance(msg, ErrorMsg) and msg.code == 1


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
            session.length()


def test_tcp_session_reports_a_server_that_closes_mid_frame():
    with _answering(encode(Len(7))[:6]) as addr, TcpSession(*addr) as session:
        with pytest.raises(TransportError, match="mid-frame"):
            session.length()


# ---------------------------------------------------------------------------
# key material boundary
# ---------------------------------------------------------------------------


def test_no_key_material_on_the_wire(key):
    dom = Domain(64)
    log = []
    session = LocalSession(DenseStore(rng=random.Random(8)), wire_log=log)
    coins = CoinSource(3)
    for v in [5, 17, 5, 40]:
        insert(key, session, v, dom, coins=coins)
    search_range(key, session, RangeQuery(4, 20), dom)
    session.length()
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
