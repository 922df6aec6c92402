"""Wire codec, request handling, sessions, and the key-material boundary."""

import pathlib
import random
import socket
import threading

import pytest

from eseds import transport
from eseds.cipher import Ciphertext, decrypt
from eseds.core import CoinSource, Domain, RangeQuery, insert, search_range
from eseds.store import DecoupledStore, DenseStore
from eseds.transport import (
    DEFAULT_PORT,
    MAX_FRAME,
    NONE_RANK,
    Cells,
    CodecError,
    ErrorMsg,
    GetRange,
    InsertAt,
    InsertBetween,
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
    InsertBetween(None, 0, b"c"),
    InsertBetween(4, 5, b"c"),
    InsertBetween(7, None, b"c"),
    InsertBetween(None, None, b"c"),
    Length(),
    RebalanceHint(0),
    RebalanceHint(12),
    Save(),
    ErrorMsg(2, "rank 9 out of range"),
    ErrorMsg(1, ""),
    Cells((b"\x00" * 36,)),
    Cells((b"a" * 36, b"", b"bc", b"")),
    Cells(()),
    Ok(b""),
    Ok(b"\x01"),
    Len(0, 0),
    Len((1 << 64) - 1, 4),
]


@pytest.mark.parametrize("msg", MESSAGES, ids=lambda m: type(m).__name__ + repr(getattr(m, "j", "")))
def test_codec_round_trip(msg):
    assert decode(encode(msg)) == msg


def test_codec_none_rank_sentinel():
    frame = encode(InsertBetween(None, 3, b"x"))
    assert NONE_RANK.to_bytes(8, "big") in frame
    assert decode(frame).j_left is None


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


def test_decode_rejects_trailing_payload():
    frame = bytearray(encode(Length()))
    frame += b"\x00"
    frame[0:4] = (len(frame) - 4).to_bytes(4, "big")
    with pytest.raises(CodecError):
        decode(bytes(frame))


def _frame(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


def test_decode_rejects_truncated_or_trailing_cells():
    body = encode(Cells((b"ab", b"")))[4:]
    assert body == b"\x21" + b"\x00\x00\x00\x02" + b"\x00\x00\x00\x02ab" + b"\x00\x00\x00\x00"
    bad = [
        body[:3],  # count cut short
        body[:-4],  # second blob missing
        body[:-5],  # first blob short of its payload
        b"\x21\x00\x00\x00\x03" + body[5:],  # count claims one blob more
        body + b"\x00",  # trailing byte
        b"\x21\x00\x00\x00\x01" + body[5:],  # count claims one blob less
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
    dense = DenseStore([b"a", b"b", b"c", b"d"])
    dense.insert_at(4, b"e", rotation_coins=_FixedRotation(3))
    assert dense.logical_cells() == [b"d", b"e", b"a", b"b", b"c"]
    decoupled = DecoupledStore(index_bits=16)
    for i, cell in enumerate([b"p", b"q", b"r", b"s", b"t"]):
        decoupled.insert_between(i - 1 if i else None, None, cell)
    for store in (dense, decoupled):
        server, logical = StoreServer(store), store.logical_cells()
        for start in range(5):
            for count in range(1, 6):
                want = tuple(logical[(start + i) % 5] for i in range(count))
                assert server.handle(GetRange(start, count)) == Cells(want)
    assert StoreServer(dense).handle(GetRange(3, 4)) == Cells((b"b", b"c", b"d", b"e"))
    assert StoreServer(decoupled).handle(GetRange(4, 2)) == Cells((b"t", b"p"))


def test_encode_rejects_oversized():
    with pytest.raises(CodecError):
        encode(Cells((b"x" * (MAX_FRAME + 1),)))


def test_random_frame_round_trips():
    rng = random.Random(12)
    for _ in range(2000):
        msg = rng.choice(
            [
                GetRange(rng.randrange(1 << 64), rng.randrange(1 << 64)),
                InsertAt(rng.randrange(1 << 32), rng.randbytes(rng.randrange(64))),
                InsertBetween(
                    None if rng.random() < 0.3 else rng.randrange(1 << 32),
                    None if rng.random() < 0.3 else rng.randrange(1 << 32),
                    rng.randbytes(rng.randrange(64)),
                ),
                ErrorMsg(rng.randrange(1 << 16), "x" * rng.randrange(40)),
                Cells(tuple(rng.randbytes(rng.choice((0, 36))) for _ in range(rng.randrange(5)))),
                Len(rng.randrange(1 << 64), rng.randrange(5)),
            ]
        )
        assert decode(encode(msg)) == msg


# ---------------------------------------------------------------------------
# server dispatch
# ---------------------------------------------------------------------------


def test_server_roundtrip_and_errors(tmp_path):
    store = DenseStore(rng=random.Random(1))
    server = StoreServer(store, save_path=str(tmp_path / "s.store"))
    assert server.handle(Length()) == Len(0, 0)
    assert isinstance(server.handle(InsertAt(0, b"abc")), Ok)
    assert server.handle(GetRange(0, 1)) == Cells((b"abc",))

    resp = server.handle(GetRange(5, 1))
    assert isinstance(resp, ErrorMsg) and resp.code == 2  # out of range
    resp = server.handle(InsertBetween(None, None, b"x"))
    assert isinstance(resp, ErrorMsg) and resp.code == 3  # wrong mode
    resp = server.handle(RebalanceHint(0))
    assert isinstance(resp, ErrorMsg) and resp.code == 3
    assert isinstance(server.handle(Save()), Ok)
    assert (tmp_path / "s.store").exists()


def test_server_save_without_path():
    server = StoreServer(DenseStore())
    resp = server.handle(Save())
    assert isinstance(resp, ErrorMsg) and resp.code == 5


def test_server_rebalance_hint_done_flag():
    store = DecoupledStore(index_bits=16, rng=random.Random(3))
    server = StoreServer(store)
    server.handle(InsertBetween(None, None, b"a"))
    server.handle(InsertBetween(0, None, b"b"))
    server.handle(InsertBetween(1, None, b"c"))
    assert server.handle(RebalanceHint(1)) == Ok(b"\x00")
    assert server.handle(RebalanceHint(1)) == Ok(b"\x00")
    assert server.handle(RebalanceHint(1)) == Ok(b"\x01")
    idx = store.sparse_indices()
    assert [b - a for a, b in zip(idx, idx[1:])] == [(1 << 16) // 4] * 2


def test_local_session_typed_helpers():
    store = DecoupledStore(index_bits=16, rng=random.Random(4))
    session = LocalSession(store)
    assert session.length() == 0
    sparse = session.insert_between(None, None, b"zz")
    assert sparse == 1 << 15
    assert session.get_cell(0) == b"zz"
    assert session.length_and_mode() == (1, 1)
    assert session.rebalance(0) is True
    with pytest.raises(ServerError) as exc:
        session.get_cell(9)
    assert exc.value.code == 2
    assert "out_of_range" in exc.value.category


def test_session_stats_count_fetches():
    store = DenseStore(rng=random.Random(5))
    session = LocalSession(store)
    session.insert_at(0, b"a")
    session.get_cell(0)
    session.get_cell(0)
    assert session.stats.cells_fetched == 2
    assert session.stats.requests_sent == 3
    assert session.stats.bytes_on_wire > 0
    session.insert_at(0, b"b")
    session.insert_at(0, b"c")
    assert sorted(session.get_range(1, 3, 3, 1)) == [b"a", b"b", b"c"]
    assert session.stats.cells_fetched == 5  # cells, not requests
    assert session.stats.requests_sent == 6


# ---------------------------------------------------------------------------
# TCP
# ---------------------------------------------------------------------------


@pytest.fixture
def tcp_server():
    store = DenseStore(rng=random.Random(6))
    server = serve(store, port=0)  # ephemeral port
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, store
    finally:
        server.shutdown()
        server.server_close()


def test_tcp_matches_local(tcp_server, key):
    server, store = tcp_server
    host, port = server.server_address
    dom = Domain(32)

    twin = DenseStore(rng=random.Random(6))
    local = LocalSession(twin)
    with TcpSession(host, port) as remote:
        coins_a, coins_b = CoinSource(9), CoinSource(9)
        for v in [4, 9, 1, 9, 30]:
            insert(key, remote, v, dom, coins=coins_a)
            insert(key, local, v, dom, coins=coins_b)
        # nonces differ per encryption, but identical coins force identical
        # slot choices, so the decrypted layouts must match exactly
        got_plain = [decrypt(key, Ciphertext.from_bytes(store.get_cell(j))) for j in range(len(store))]
        want_plain = [decrypt(key, Ciphertext.from_bytes(twin.get_cell(j))) for j in range(len(twin))]
        assert got_plain == want_plain
        got = search_range(key, remote, RangeQuery(2, 9), dom)
        want = search_range(key, local, RangeQuery(2, 9), dom)
        assert got == want
        assert remote.length_and_mode() == local.length_and_mode()


def test_tcp_error_frames_surface_as_server_errors(tcp_server):
    server, _ = tcp_server
    host, port = server.server_address
    with TcpSession(host, port) as session:
        with pytest.raises(ServerError) as exc:
            session.get_cell(99)
        assert exc.value.code == 2
        assert session.length() == 0  # connection still usable


def test_tcp_get_range_errors_leave_the_connection_usable(tcp_server, monkeypatch):
    server, store = tcp_server
    host, port = server.server_address
    for cell in (b"a" * 36, b"b" * 36, b"c" * 36):
        store.insert_at(0, cell)
    # room for 2 cells of 36 bytes per CELLS frame (opcode, count, blobs)
    monkeypatch.setattr(transport, "MAX_FRAME", 5 + 2 * (4 + 36))
    with TcpSession(host, port) as session:
        for start, count, code in [(3, 1, 2), (0, 0, 2), (0, 4, 2), (0, 3, 1)]:
            resp = session.request(GetRange(start, count))
            assert isinstance(resp, ErrorMsg) and resp.code == code, (start, count)
            assert session.length() == 3  # connection still usable
        logical = store.logical_cells()
        assert session.request(GetRange(2, 2)) == Cells((logical[2], logical[0]))
        assert session.get_range(1, 3, 3, 36) == logical[1:] + logical[:1]  # split in two
        assert (session.stats.requests_sent, session.stats.cells_fetched) == (11, 5)


def test_tcp_rejects_non_request_frames(tcp_server):
    server, _ = tcp_server
    host, port = server.server_address
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(encode(Cells((b"nope",))))  # response opcode as a request
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


def test_tcp_session_env_defaults(tcp_server, monkeypatch):
    server, _ = tcp_server
    host, port = server.server_address
    monkeypatch.setenv("ESEDS_ADDR", host)
    monkeypatch.setenv("ESEDS_PORT", str(port))
    with TcpSession() as session:  # address comes from the environment
        assert session.length() == 0
    assert DEFAULT_PORT == 7487


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
