"""Client/server boundary: binary framing, an in-process session, and TCP.

Frame layout: u32 big-endian length ‖ u8 opcode ‖ payload, where the length
covers opcode + payload.  All integers on the wire are big-endian.  Cells are
opaque length-prefixed byte strings; sparse indices travel as 32-byte
big-endian regardless of the store's configured index width.  No frame may
exceed 16 MiB: the server refuses a GET_RANGE whose answer would, and the
client splits larger reads.  Key material has no encoding in this protocol
at all.
"""

from __future__ import annotations

import os
import socket
import socketserver
import struct
import threading
from dataclasses import dataclass, field

from . import store as store_mod

MAX_FRAME = 16 * 1024 * 1024  # opcode + payload
DEFAULT_PORT = 7487

# request opcodes
GET_RANGE = 0x01
INSERT_AT = 0x02
INSERT_BETWEEN = 0x03
LENGTH = 0x04
REBALANCE_HINT = 0x05
SAVE = 0x06
# response opcodes
ERROR = 0x20
CELLS = 0x21
OK = 0x22
LEN = 0x23

#: u64 sentinel standing in for an open end in INSERT_BETWEEN
NONE_RANK = (1 << 64) - 1

SPARSE_WIRE_LEN = 32

# error codes carried by ERROR frames
E_BAD_REQUEST = 1
E_OUT_OF_RANGE = 2
E_WRONG_MODE = 3
E_STORE_FULL = 4
E_NO_SAVE_PATH = 5
E_INTERNAL = 6

ERROR_NAMES = {
    E_BAD_REQUEST: "bad_request",
    E_OUT_OF_RANGE: "out_of_range",
    E_WRONG_MODE: "wrong_mode",
    E_STORE_FULL: "store_full",
    E_NO_SAVE_PATH: "no_save_path",
    E_INTERNAL: "internal",
}


class TransportError(Exception):
    """Framing or connection failure."""


class CodecError(TransportError):
    """Malformed frame: bad opcode, truncated or trailing payload, oversize."""


class ServerError(TransportError):
    """An ERROR response from the server, surfaced client-side."""

    def __init__(self, code: int, message: str):
        super().__init__(f"{ERROR_NAMES.get(code, code)}: {message}")
        self.code = code
        self.category = ERROR_NAMES.get(code, str(code))
        self.message = message


# ---------------------------------------------------------------------------
# messages (slotted: a frozen dataclass without slots takes about twice as
# long to build, and every request builds two messages on each side)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GetRange:
    """``count`` cells read cyclically from index ``start``."""

    start: int
    count: int


@dataclass(frozen=True, slots=True)
class InsertAt:
    l: int
    cell: bytes


@dataclass(frozen=True, slots=True)
class InsertBetween:
    j_left: int | None
    j_right: int | None
    cell: bytes


@dataclass(frozen=True, slots=True)
class Length:
    pass


@dataclass(frozen=True, slots=True)
class RebalanceHint:
    batch: int = 0  # 0 = run the pass to completion


@dataclass(frozen=True, slots=True)
class Save:
    pass


@dataclass(frozen=True, slots=True)
class ErrorMsg:
    code: int
    message: str


@dataclass(frozen=True, slots=True)
class Cells:
    cells: tuple[bytes, ...]


@dataclass(frozen=True, slots=True)
class Ok:
    data: bytes = b""


@dataclass(frozen=True, slots=True)
class Len:
    count: int
    mode: int


Message = GetRange | InsertAt | InsertBetween | Length | RebalanceHint | Save | ErrorMsg | Cells | Ok | Len

REQUEST_OPCODES = {GET_RANGE, INSERT_AT, INSERT_BETWEEN, LENGTH, REBALANCE_HINT, SAVE}

_U8, _U16, _U32, _U64 = (struct.Struct(fmt) for fmt in (">B", ">H", ">I", ">Q"))
_U64X2 = struct.Struct(">QQ")
_GET_RANGE = struct.Struct(">BQQ")
_CELLS = struct.Struct(">BI")


def _u64(x: int) -> bytes:
    return _U64.pack(x)


def _blob(b: bytes) -> bytes:
    return _U32.pack(len(b)) + b


def _rank(j: int | None) -> bytes:
    return _u64(NONE_RANK if j is None else j)


def encode(msg: Message) -> bytes:
    """Serialize a message to a complete frame (length prefix included)."""
    if isinstance(msg, GetRange):
        body = _GET_RANGE.pack(GET_RANGE, msg.start, msg.count)
    elif isinstance(msg, Cells):
        parts = [_CELLS.pack(CELLS, len(msg.cells))]
        for cell in msg.cells:
            parts += (_U32.pack(len(cell)), cell)
        body = b"".join(parts)
    elif isinstance(msg, InsertAt):
        body = bytes([INSERT_AT]) + _u64(msg.l) + _blob(msg.cell)
    elif isinstance(msg, InsertBetween):
        body = bytes([INSERT_BETWEEN]) + _rank(msg.j_left) + _rank(msg.j_right) + _blob(msg.cell)
    elif isinstance(msg, Length):
        body = bytes([LENGTH])
    elif isinstance(msg, RebalanceHint):
        body = bytes([REBALANCE_HINT]) + _u64(msg.batch)
    elif isinstance(msg, Save):
        body = bytes([SAVE])
    elif isinstance(msg, ErrorMsg):
        body = bytes([ERROR]) + struct.pack(">H", msg.code) + _blob(msg.message.encode())
    elif isinstance(msg, Ok):
        body = bytes([OK]) + _blob(msg.data)
    elif isinstance(msg, Len):
        body = bytes([LEN]) + _u64(msg.count) + bytes([msg.mode])
    else:
        raise CodecError(f"cannot encode {type(msg).__name__}")
    if len(body) > MAX_FRAME:
        raise CodecError(f"frame of {len(body)} bytes exceeds the 16 MiB cap")
    return struct.pack(">I", len(body)) + body


class _Reader:
    """Bounds-checked cursor over a frame, starting past its length prefix."""

    def __init__(self, buf: bytes, pos: int):
        self._buf = buf
        self._pos = pos

    def take(self, n: int) -> bytes:
        pos = self._pos
        if pos + n > len(self._buf):
            raise CodecError("truncated frame")
        self._pos = pos + n
        return self._buf[pos : pos + n]

    def unpack(self, fmt: struct.Struct) -> tuple:
        pos = self._pos
        if pos + fmt.size > len(self._buf):
            raise CodecError("truncated frame")
        self._pos = pos + fmt.size
        return fmt.unpack_from(self._buf, pos)

    def u8(self) -> int:
        return self.unpack(_U8)[0]

    def u16(self) -> int:
        return self.unpack(_U16)[0]

    def u32(self) -> int:
        return self.unpack(_U32)[0]

    def u64(self) -> int:
        return self.unpack(_U64)[0]

    def blob(self) -> bytes:
        return self.take(self.u32())

    def blobs(self) -> tuple[bytes, ...]:
        """A u32 count, then that many blobs."""
        (count,) = self.unpack(_U32)
        buf, pos, end = self._buf, self._pos, len(self._buf)
        out = []
        for _ in range(count):  # inlined blob(): this loop decodes every cell read
            if pos + 4 > end:
                raise CodecError("truncated frame")
            (size,) = _U32.unpack_from(buf, pos)
            pos += 4 + size
            if pos > end:
                raise CodecError("truncated frame")
            out.append(buf[pos - size : pos])
        self._pos = pos
        return tuple(out)

    def rank(self) -> int | None:
        j = self.u64()
        return None if j == NONE_RANK else j

    def done(self) -> None:
        if self._pos != len(self._buf):
            raise CodecError("trailing bytes in frame")


def decode(frame: bytes) -> Message:
    """Parse a complete frame back into a message, rejecting any malformation."""
    if len(frame) < 5:
        raise CodecError("frame shorter than header")
    (length,) = _U32.unpack_from(frame)
    if length > MAX_FRAME:
        raise CodecError(f"declared length {length} exceeds the 16 MiB cap")
    if length != len(frame) - 4:
        raise CodecError("frame length mismatch")
    r = _Reader(frame, 4)
    opcode = r.u8()
    msg: Message
    if opcode == GET_RANGE:
        msg = GetRange(*r.unpack(_U64X2))
    elif opcode == CELLS:
        msg = Cells(r.blobs())
    elif opcode == INSERT_AT:
        msg = InsertAt(r.u64(), r.blob())
    elif opcode == INSERT_BETWEEN:
        msg = InsertBetween(r.rank(), r.rank(), r.blob())
    elif opcode == LENGTH:
        msg = Length()
    elif opcode == REBALANCE_HINT:
        msg = RebalanceHint(r.u64())
    elif opcode == SAVE:
        msg = Save()
    elif opcode == ERROR:
        code = r.u16()
        msg = ErrorMsg(code, r.blob().decode())
    elif opcode == OK:
        msg = Ok(r.blob())
    elif opcode == LEN:
        msg = Len(r.u64(), r.u8())
    else:
        raise CodecError(f"unknown opcode 0x{opcode:02x}")
    r.done()
    return msg


# ---------------------------------------------------------------------------
# server side
# ---------------------------------------------------------------------------


class StoreServer:
    """Owns a store, serializes access, and answers protocol requests.

    Both the in-process session and the TCP server route through
    handle(), so the two transports cannot diverge behaviorally.
    """

    def __init__(self, store, *, save_path=None):
        self.store = store
        self.save_path = save_path
        self._lock = threading.Lock()

    def handle(self, msg: Message) -> Message:
        try:
            with self._lock:
                return self._dispatch(msg)
        except store_mod.OutOfRange as e:
            return ErrorMsg(E_OUT_OF_RANGE, str(e))
        except store_mod.ModeError as e:
            return ErrorMsg(E_WRONG_MODE, str(e))
        except store_mod.StoreFull as e:
            return ErrorMsg(E_STORE_FULL, str(e))
        except store_mod.StoreError as e:
            return ErrorMsg(E_BAD_REQUEST, str(e))
        except Exception as e:  # pragma: no cover - defensive
            return ErrorMsg(E_INTERNAL, f"{type(e).__name__}: {e}")

    def _dispatch(self, msg: Message) -> Message:
        store = self.store
        if isinstance(msg, GetRange):
            cells = store.get_range(msg.start, msg.count)
            size = 5 + 4 * len(cells) + sum(map(len, cells))  # opcode, count, blobs
            if size > MAX_FRAME:
                return ErrorMsg(E_BAD_REQUEST, f"{msg.count} cells need a {size}-byte frame, over the cap")
            return Cells(tuple(cells))
        if isinstance(msg, InsertAt):
            if store.mode != store_mod.MODE_DENSE:
                raise store_mod.ModeError("INSERT_AT requires a dense store")
            store.insert_at(msg.l, msg.cell)
            return Ok()
        if isinstance(msg, InsertBetween):
            if store.mode != store_mod.MODE_DECOUPLED:
                raise store_mod.ModeError("INSERT_BETWEEN requires a decoupled store")
            sparse = store.insert_between(msg.j_left, msg.j_right, msg.cell)
            return Ok(sparse.to_bytes(SPARSE_WIRE_LEN, "big"))
        if isinstance(msg, Length):
            return Len(len(store), store.mode)
        if isinstance(msg, RebalanceHint):
            if store.mode != store_mod.MODE_DECOUPLED:
                raise store_mod.ModeError("REBALANCE_HINT requires a decoupled store")
            return Ok(bytes([store.rebalance_step(msg.batch)]))
        if isinstance(msg, Save):
            if self.save_path is None:
                return ErrorMsg(E_NO_SAVE_PATH, "server has no configured save path")
            store.save(self.save_path)
            return Ok()
        return ErrorMsg(E_BAD_REQUEST, f"{type(msg).__name__} is not a request")


# ---------------------------------------------------------------------------
# client sessions
# ---------------------------------------------------------------------------


@dataclass
class SessionStats:
    requests_sent: int = 0
    cells_fetched: int = 0
    bytes_on_wire: int = 0


class _SessionBase:
    """Typed helpers shared by both transports."""

    stats: SessionStats

    def request(self, msg: Message) -> Message:
        raise NotImplementedError

    def _expect(self, msg: Message, want: type) -> Message:
        resp = self.request(msg)
        if isinstance(resp, ErrorMsg):
            raise ServerError(resp.code, resp.message)
        if not isinstance(resp, want):
            raise TransportError(f"expected {want.__name__}, got {type(resp).__name__}")
        return resp

    def get_cell(self, j: int) -> bytes:
        return self._expect(GetRange(j, 1), Cells).cells[0]

    def get_range(self, start: int, count: int, n: int, cell_len: int) -> list[bytes]:
        """``count`` cells of ``cell_len`` bytes read cyclically from index
        ``start`` of an ``n``-cell store, in as few GET_RANGE requests as
        the frame cap allows."""
        per = max(1, (MAX_FRAME - 5) // (4 + cell_len))
        out: list[bytes] = []
        for off in range(0, count, per):
            out += self._expect(GetRange((start + off) % n, min(per, count - off)), Cells).cells
        return out

    def insert_at(self, l: int, cell: bytes) -> None:
        self._expect(InsertAt(l, cell), Ok)

    def insert_between(self, j_left: int | None, j_right: int | None, cell: bytes) -> int:
        resp = self._expect(InsertBetween(j_left, j_right, cell), Ok)
        return int.from_bytes(resp.data, "big")

    def length(self) -> int:
        return self._expect(Length(), Len).count

    def length_and_mode(self) -> tuple[int, int]:
        resp = self._expect(Length(), Len)
        return resp.count, resp.mode

    def rebalance(self, batch: int = 0) -> bool:
        resp = self._expect(RebalanceHint(batch), Ok)
        return bool(resp.data and resp.data[0])

    def save(self) -> None:
        self._expect(Save(), Ok)


class LocalSession(_SessionBase):
    """In-process transport that still runs the full codec both ways, so a
    sequence of operations exercises exactly the bytes TCP would carry."""

    def __init__(self, store_or_server, *, save_path=None, wire_log: list | None = None):
        if isinstance(store_or_server, StoreServer):
            self._server = store_or_server
        else:
            self._server = StoreServer(store_or_server, save_path=save_path)
        self.stats = SessionStats()
        self.wire_log = wire_log

    @property
    def store(self):
        return self._server.store

    def request(self, msg: Message) -> Message:
        out = encode(msg)
        self.stats.requests_sent += 1
        self.stats.bytes_on_wire += len(out)
        if self.wire_log is not None:
            self.wire_log.append(("send", out))
        resp_frame = encode(self._server.handle(decode(out)))
        self.stats.bytes_on_wire += len(resp_frame)
        if self.wire_log is not None:
            self.wire_log.append(("recv", resp_frame))
        resp = decode(resp_frame)
        if isinstance(resp, Cells):
            self.stats.cells_fetched += len(resp.cells)
        return resp


class TcpSession(_SessionBase):
    """One TCP connection, strict request/response."""

    def __init__(self, host: str | None = None, port: int | None = None):
        host = host if host is not None else os.environ.get("ESEDS_ADDR", "127.0.0.1")
        port = port if port is not None else int(os.environ.get("ESEDS_PORT", DEFAULT_PORT))
        self._sock = socket.create_connection((host, port))
        _no_delay(self._sock)
        self.stats = SessionStats()

    def close(self) -> None:
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def request(self, msg: Message) -> Message:
        out = encode(msg)
        self._sock.sendall(out)
        self.stats.requests_sent += 1
        self.stats.bytes_on_wire += len(out)
        header = self._recv_exact(4)
        (length,) = struct.unpack(">I", header)
        if length > MAX_FRAME:
            raise CodecError(f"response length {length} exceeds the 16 MiB cap")
        frame = header + self._recv_exact(length)
        self.stats.bytes_on_wire += len(frame)
        resp = decode(frame)
        if isinstance(resp, Cells):
            self.stats.cells_fetched += len(resp.cells)
        return resp

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        while n:
            chunk = self._sock.recv(n)
            if not chunk:
                raise TransportError("connection closed mid-frame")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)


# ---------------------------------------------------------------------------
# TCP server
# ---------------------------------------------------------------------------


class _ConnectionHandler(socketserver.BaseRequestHandler):
    def handle(self):
        sock = self.request
        server: StoreServer = self.server.store_server  # type: ignore[attr-defined]
        while True:
            header = _recv_exact_or_none(sock, 4)
            if header is None:
                return
            (length,) = struct.unpack(">I", header)
            if length > MAX_FRAME:
                sock.sendall(encode(ErrorMsg(E_BAD_REQUEST, "frame exceeds the 16 MiB cap")))
                return
            body = _recv_exact_or_none(sock, length)
            if body is None:
                return
            try:
                msg = decode(header + body)
            except CodecError as e:
                # fail-safe: report, then drop the connection; store untouched
                sock.sendall(encode(ErrorMsg(E_BAD_REQUEST, str(e))))
                return
            if not isinstance(msg, (GetRange, InsertAt, InsertBetween, Length, RebalanceHint, Save)):
                sock.sendall(encode(ErrorMsg(E_BAD_REQUEST, f"{type(msg).__name__} is not a request")))
                return
            sock.sendall(encode(server.handle(msg)))


def _recv_exact_or_none(sock: socket.socket, n: int) -> bytes | None:
    chunks = []
    while n:
        try:
            chunk = sock.recv(n)
        except OSError:
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _no_delay(sock: socket.socket) -> None:
    """Send each frame at once: Nagle's algorithm would hold a small frame
    back until the peer acknowledges the previous one."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class EsedsTcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, addr, store_server: StoreServer):
        super().__init__(addr, _ConnectionHandler)
        self.store_server = store_server

    def get_request(self):
        sock, addr = super().get_request()
        _no_delay(sock)
        return sock, addr


def serve(store, host: str = "127.0.0.1", port: int = DEFAULT_PORT, *, save_path=None) -> EsedsTcpServer:
    """Bind and return a server; caller runs serve_forever() or uses it as a
    context manager in tests (serve_forever on a background thread)."""
    return EsedsTcpServer((host, port), StoreServer(store, save_path=save_path))
