"""Client/server boundary: binary framing, an in-process session, and TCP.

Frame layout: u32 big-endian length ‖ u8 opcode ‖ payload, where the length
covers opcode + payload.  Every payload is the message's fixed-width fields,
then, for INSERT_AT, ERROR, CELLS and OK, the rest of the frame as its last
field; ``LAYOUT`` is the one table of them.  All integers on the wire are
big-endian.  Cells are opaque byte strings of one width per store, so a
range of them travels as one block: the width, then the cells back to back.
The store's layout (dense or decoupled) stays on the server: every request
means the same on both.  No frame may exceed 16 MiB: the server refuses a
GET_RANGE whose answer would, and the client splits larger reads.  Key
material has no encoding in this protocol at all.
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading
from dataclasses import dataclass, fields
from functools import partial
from operator import attrgetter

from . import store as store_mod

MAX_FRAME = 16 * 1024 * 1024  # opcode + payload
DEFAULT_PORT = 7487

# request opcodes
GET_RANGE = 0x01
INSERT_AT = 0x02  # 0x03 (a retired insert) must not be reused
LENGTH = 0x04
REBALANCE_HINT = 0x05
SAVE = 0x06
# response opcodes
ERROR = 0x20
CELLS = 0x21
OK = 0x22
LEN = 0x23

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
    """Cells of ``width`` bytes each, back to back in ``data``."""

    width: int
    data: bytes


@dataclass(frozen=True, slots=True)
class Ok:
    data: bytes = b""


@dataclass(frozen=True, slots=True)
class Len:
    count: int


Message = GetRange | InsertAt | Length | RebalanceHint | Save | ErrorMsg | Cells | Ok | Len

#: The codec's one table.  Each opcode's row holds its message type, the
#: struct of its fixed fields and whether the rest of the frame is its last
#: field.  A frame is the fixed fields in the order the type declares them,
#: then the rest, if the row says there is one.
LAYOUT: dict[int, tuple[type, struct.Struct, bool]] = {
    GET_RANGE: (GetRange, struct.Struct(">QQ"), False),
    INSERT_AT: (InsertAt, struct.Struct(">Q"), True),
    LENGTH: (Length, struct.Struct(">"), False),
    REBALANCE_HINT: (RebalanceHint, struct.Struct(">Q"), False),
    SAVE: (Save, struct.Struct(">"), False),
    ERROR: (ErrorMsg, struct.Struct(">H"), True),
    CELLS: (Cells, struct.Struct(">I"), True),
    OK: (Ok, struct.Struct(">"), True),
    LEN: (Len, struct.Struct(">Q"), False),
}

_HEAD = struct.Struct(">IB")  # length, opcode


def _getter(names: list[str]):
    """A function of a message that returns its ``names`` fields as a tuple
    (``attrgetter`` alone returns a bare value for one name)."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        one = attrgetter(names[0])
        return lambda msg: (one(msg),)
    return lambda msg: ()


def _encoding(opcode: int, cls: type, fixed: struct.Struct, rest: bool) -> tuple:
    """How ``encode`` writes a message of type ``cls``: the opcode, the frame
    length without the rest, a getter of every field, whether the last field
    is the rest, and a packer.  Without a rest the packer writes the whole
    frame, with its length and opcode bound in; with one, only the fixed
    fields."""
    getter = _getter([f.name for f in fields(cls)])
    if rest:
        return opcode, 1 + fixed.size, getter, True, fixed.pack
    head = struct.Struct(_HEAD.format + fixed.format.lstrip(">"))
    return opcode, 1 + fixed.size, getter, False, partial(head.pack, 1 + fixed.size, opcode)


_ENCODING = {row[0]: _encoding(opcode, *row) for opcode, row in LAYOUT.items()}


def encode(msg: Message) -> bytes:
    """Serialize a message to a complete frame (length prefix included).
    Raises CodecError for a message that has no frame: a field its struct
    cannot pack, ERROR text with no UTF-8 form, or a frame over the cap.
    CELLS are written as given: a store's cells are whole cells of its one
    width, and ``decode`` refuses any that are not."""
    try:
        opcode, length, getter, rest, pack = _ENCODING[type(msg)]
    except KeyError:
        raise CodecError(f"cannot encode {type(msg).__name__}") from None
    try:
        values = getter(msg)
        if not rest:
            return pack(*values)
        tail = values[-1]
        if opcode == ERROR:
            tail = tail.encode()
        length += len(tail)
        if length > MAX_FRAME:
            raise CodecError(f"frame of {length} bytes exceeds the 16 MiB cap")
        return _HEAD.pack(length, opcode) + pack(*values[:-1]) + tail
    except (struct.error, UnicodeEncodeError) as e:
        raise CodecError(f"cannot encode {type(msg).__name__}: {e}") from None


def decode(frame: bytes) -> Message:
    """Parse a complete frame back into a message, rejecting any malformation."""
    size = len(frame)
    if size < 5:
        raise CodecError("frame shorter than header")
    length, opcode = _HEAD.unpack_from(frame)
    if length > MAX_FRAME:
        raise CodecError(f"declared length {length} exceeds the 16 MiB cap")
    if length != size - 4:
        raise CodecError("frame length mismatch")
    try:
        cls, fixed, rest = LAYOUT[opcode]
    except KeyError:
        raise CodecError(f"unknown opcode 0x{opcode:02x}") from None
    end = 5 + fixed.size
    if size < end:
        raise CodecError("truncated frame")
    values = fixed.unpack_from(frame, 5)
    if not rest:
        if size != end:
            raise CodecError("trailing bytes in frame")
        return cls(*values)
    tail = frame[end:]
    if opcode == CELLS:
        width = values[0]
        if width < 1 or len(tail) % width:
            raise CodecError(f"{len(tail)} bytes are not whole cells of width {width}")
    elif opcode == ERROR:
        try:
            tail = tail.decode()
        except UnicodeDecodeError as e:
            raise CodecError(f"ERROR message is not UTF-8: {e}") from None
    return cls(*values, tail)


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
            data = store.get_range(msg.start, msg.count)
            size = 5 + len(data)  # opcode, width, cells
            if size > MAX_FRAME:
                return ErrorMsg(E_BAD_REQUEST, f"{msg.count} cells need a {size}-byte frame, over the cap")
            return Cells(store.width, data)
        if isinstance(msg, InsertAt):
            store.insert_at(msg.l, msg.cell)
            return Ok()
        if isinstance(msg, Length):
            return Len(len(store))
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
    """The one request path and the typed helpers shared by both transports.
    A transport supplies only ``_exchange``: one request frame in, one
    response frame out."""

    stats: SessionStats

    def _exchange(self, frame: bytes) -> bytes:
        raise NotImplementedError

    def request(self, msg: Message) -> Message:
        out = encode(msg)
        stats = self.stats
        stats.requests_sent += 1
        stats.bytes_on_wire += len(out)
        frame = self._exchange(out)
        stats.bytes_on_wire += len(frame)
        resp = decode(frame)
        if isinstance(resp, Cells):
            stats.cells_fetched += len(resp.data) // resp.width
        return resp

    def _expect(self, msg: Message, want: type) -> Message:
        resp = self.request(msg)
        if isinstance(resp, ErrorMsg):
            raise ServerError(resp.code, resp.message)
        if not isinstance(resp, want):
            raise TransportError(f"expected {want.__name__}, got {type(resp).__name__}")
        return resp

    def _cells(self, msg: GetRange, cell_len: int) -> bytes:
        resp = self._expect(msg, Cells)
        if resp.width != cell_len or len(resp.data) != msg.count * cell_len:
            raise TransportError(
                f"asked for {msg.count} cells of {cell_len} bytes, got {len(resp.data)} bytes "
                f"of {resp.width}-byte cells"
            )
        return resp.data

    def get_cell(self, j: int, cell_len: int) -> bytes:
        """The ``cell_len`` bytes of cell ``j``."""
        return self._cells(GetRange(j, 1), cell_len)

    def get_range(self, start: int, count: int, n: int, cell_len: int) -> bytes:
        """``count`` cells of ``cell_len`` bytes read cyclically from index
        ``start`` of an ``n``-cell store, back to back, in as few GET_RANGE
        requests as the frame cap allows."""
        per = max(1, (MAX_FRAME - 5) // cell_len)
        return b"".join(
            self._cells(GetRange((start + off) % n, min(per, count - off)), cell_len)
            for off in range(0, count, per)
        )

    def insert_at(self, l: int, cell: bytes) -> None:
        self._expect(InsertAt(l, cell), Ok)

    def length(self) -> int:
        return self._expect(Length(), Len).count

    def rebalance(self, batch: int = 0) -> bool:
        resp = self._expect(RebalanceHint(batch), Ok)
        return bool(resp.data and resp.data[0])

    def save(self) -> None:
        self._expect(Save(), Ok)


class LocalSession(_SessionBase):
    """In-process transport that still runs the full codec both ways, so a
    sequence of operations exercises exactly the bytes TCP would carry."""

    def __init__(self, store_or_server, *, wire_log: list | None = None):
        if isinstance(store_or_server, StoreServer):
            self._server = store_or_server
        else:
            self._server = StoreServer(store_or_server)
        self.stats = SessionStats()
        self.wire_log = wire_log

    @property
    def store(self):
        return self._server.store

    def _exchange(self, frame: bytes) -> bytes:
        resp = encode(self._server.handle(decode(frame)))
        if self.wire_log is not None:
            self.wire_log.extend((("send", frame), ("recv", resp)))
        return resp


class TcpSession(_SessionBase):
    """One TCP connection, strict request/response."""

    def __init__(self, host: str, port: int):
        self._sock = socket.create_connection((host, port))
        _no_delay(self._sock)
        self.stats = SessionStats()

    def close(self) -> None:
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _exchange(self, frame: bytes) -> bytes:
        self._sock.sendall(frame)
        resp = read_frame(self._sock)
        if resp is None:
            raise TransportError("connection closed before the response")
        return resp


def read_frame(sock: socket.socket) -> bytes | None:
    """One whole frame from ``sock``, length prefix included, or None when
    the peer closed cleanly between frames.  Raises CodecError on a declared
    length over the cap, before reading the body, and TransportError when
    the peer closes mid-frame."""
    frame = bytearray()
    want = 4
    while len(frame) < want:
        chunk = sock.recv(want - len(frame))
        if not chunk:
            if frame:
                raise TransportError("connection closed mid-frame")
            return None
        frame += chunk
        if want == 4 and len(frame) == 4:
            length = int.from_bytes(frame, "big")
            if length > MAX_FRAME:
                raise CodecError(f"declared length {length} exceeds the 16 MiB cap")
            want += length
    return bytes(frame)


# ---------------------------------------------------------------------------
# TCP server
# ---------------------------------------------------------------------------


_REQUESTS = (GetRange, InsertAt, Length, RebalanceHint, Save)


class _ConnectionHandler(socketserver.BaseRequestHandler):
    def handle(self):
        sock = self.request
        server: StoreServer = self.server.store_server  # type: ignore[attr-defined]
        while True:
            try:
                frame = read_frame(sock)
                if frame is None:
                    return
                msg = decode(frame)
                if not isinstance(msg, _REQUESTS):
                    raise CodecError(f"{type(msg).__name__} is not a request")
            except CodecError as e:
                # fail-safe: report, then drop the connection; store untouched
                sock.sendall(encode(ErrorMsg(E_BAD_REQUEST, str(e))))
                return
            except (TransportError, OSError):  # the client left mid-frame or reset
                return
            sock.sendall(encode(server.handle(msg)))


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
