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
# messages (slotted and not frozen: a frozen dataclass sets every field
# through object.__setattr__ and takes about twice as long to build, and
# every request builds two messages on each side)
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class GetRange:
    """``count`` cells read cyclically from index ``start``."""

    start: int
    count: int


@dataclass(slots=True)
class InsertAt:
    l: int
    cell: bytes


@dataclass(slots=True)
class Length:
    pass


@dataclass(slots=True)
class RebalanceHint:
    batch: int = 0  # 0 = run the pass to completion


@dataclass(slots=True)
class Save:
    pass


@dataclass(slots=True)
class ErrorMsg:
    code: int
    message: str


@dataclass(slots=True)
class Cells:
    """Cells of ``width`` bytes each, back to back in ``data``."""

    width: int
    data: bytes


@dataclass(slots=True)
class Ok:
    data: bytes = b""


@dataclass(slots=True)
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

#: the bytes of a CELLS frame besides its cells and length prefix: the
#: opcode and the width
CELLS_OVERHEAD = 1 + LAYOUT[CELLS][1].size


def _getter(names: list[str]):
    """A function of a message that returns its ``names`` fields as a tuple
    (``attrgetter`` alone returns a bare value for one name)."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        one = attrgetter(names[0])
        return lambda msg: (one(msg),)
    return lambda msg: ()


def _head(fixed: struct.Struct) -> struct.Struct:
    """The struct of a frame up to its rest: length, opcode, then the fixed
    fields; the whole frame when there is no rest."""
    return struct.Struct(_HEAD.format + fixed.format.lstrip(">"))


def _encoding(opcode: int, cls: type, fixed: struct.Struct, rest: bool) -> tuple:
    """How ``encode`` writes a message of type ``cls``: the opcode, the frame
    length without the rest, a getter of every field, whether the last field
    is the rest, and a packer of the frame up to its rest.  Without a rest
    the packer writes the whole frame, with its length and opcode bound in;
    with one, it takes the length and opcode first."""
    getter = _getter([f.name for f in fields(cls)])
    head = _head(fixed)
    if rest:
        return opcode, 1 + fixed.size, getter, True, head.pack
    return opcode, 1 + fixed.size, getter, False, partial(head.pack, 1 + fixed.size, opcode)


_ENCODING = {row[0]: _encoding(opcode, *row) for opcode, row in LAYOUT.items()}

#: opcode -> (message type, struct of the frame up to its rest, whether the
#: rest of the frame is the last field): ``decode`` reads the length, the
#: opcode and the fixed fields in one unpack
_DECODING = {opcode: (cls, _head(fixed), rest) for opcode, (cls, fixed, rest) in LAYOUT.items()}


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
        return pack(length, opcode, *values[:-1]) + tail
    except (struct.error, UnicodeEncodeError) as e:
        raise CodecError(f"cannot encode {type(msg).__name__}: {e}") from None


def decode(frame: bytes) -> Message:
    """Parse a complete frame back into a message, rejecting any malformation."""
    size = len(frame)
    row = _DECODING.get(frame[4]) if size > 4 else None
    if row is not None:
        cls, head, rest = row
        end = head.size
        if size == end or (rest and size > end):
            values = head.unpack_from(frame)  # length, opcode, fixed fields
            if values[0] == size - 4 <= MAX_FRAME:
                if not rest:
                    return cls(*values[2:])
                tail = frame[end:]
                if cls is Cells:
                    width = values[2]
                    if width < 1 or len(tail) % width:
                        raise CodecError(f"{len(tail)} bytes are not whole cells of width {width}")
                elif cls is ErrorMsg:
                    try:
                        tail = tail.decode()
                    except UnicodeDecodeError as e:
                        raise CodecError(f"ERROR message is not UTF-8: {e}") from None
                return cls(*values[2:], tail)
    raise _malformed(frame)


def _malformed(frame: bytes) -> CodecError:
    """Why ``decode`` cannot parse ``frame``: the first of its checks, in
    order, that the frame fails."""
    size = len(frame)
    if size < 5:
        return CodecError("frame shorter than header")
    length, opcode = _HEAD.unpack_from(frame)
    if length > MAX_FRAME:
        return CodecError(f"declared length {length} exceeds the 16 MiB cap")
    if length != size - 4:
        return CodecError("frame length mismatch")
    if opcode not in LAYOUT:
        return CodecError(f"unknown opcode 0x{opcode:02x}")
    if size < 5 + LAYOUT[opcode][1].size:
        return CodecError("truncated frame")
    return CodecError("trailing bytes in frame")


#: The one request table: each request's reply type and, for an OK, the data
#: it may carry; a CELLS holds the ``count`` cells asked for (docs/protocol.md).
ANSWERS: dict[type, tuple[type, frozenset[bytes] | None]] = {
    GetRange: (Cells, None),
    InsertAt: (Ok, frozenset({b""})),
    Length: (Len, None),
    RebalanceHint: (Ok, frozenset({b"\x00", b"\x01"})),
    Save: (Ok, frozenset({b""})),
}


def answer(msg: Message, resp: Message):
    """The payload of ``resp``, the reply to the request ``msg``: the cells'
    bytes, the count or the OK's data.  An ERROR raises ServerError, and any
    other reply that breaks ``msg``'s row of ANSWERS raises TransportError."""
    (want, oks), kind = ANSWERS[type(msg)], type(resp)
    if kind is Cells is want:
        if len(resp.data) == msg.count * resp.width:
            return resp.data
        raise TransportError(f"asked for {msg.count} cells, got {len(resp.data) // resp.width}")
    if kind is Len is want:
        return resp.count
    if kind is Ok is want and resp.data in oks:
        return resp.data
    if kind is ErrorMsg:
        raise ServerError(resp.code, resp.message)
    raise TransportError(f"{msg!r:.40} answered by {resp!r:.80}")


# ---------------------------------------------------------------------------
# server side
# ---------------------------------------------------------------------------


class StoreServer:
    """Owns a store, serializes access, and answers protocol requests.

    Both the in-process session and the TCP server route through
    handle(), so the two transports cannot diverge behaviorally.

    SAVE holds the store lock only while it takes the store's records; it
    writes them after releasing it, so other requests are answered during
    the disk I/O.  ``_save_lock``, taken before the records, keeps SAVEs in
    order, so the file a later SAVE leaves holds the later state.
    """

    def __init__(self, store, *, save_path=None):
        self.store = store
        self.save_path = save_path
        self._lock = threading.Lock()
        self._save_lock = threading.Lock()

    def handle(self, msg: Message) -> Message:
        try:
            if type(msg) is Save:
                return self._save()
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
        except Exception as e:  # a failed save, or a fault in the store
            return ErrorMsg(E_INTERNAL, f"{type(e).__name__}: {e}")

    def _dispatch(self, msg: Message) -> Message:
        store = self.store
        kind = type(msg)
        if kind is GetRange:
            start, count = msg.start, msg.count
            size = CELLS_OVERHEAD + count * store.width
            # refuse an answer over the cap before reading it; a range the
            # store would refuse is left to the store, so it stays out_of_range
            if size > MAX_FRAME and 0 <= start < len(store) and count <= len(store):
                return ErrorMsg(E_BAD_REQUEST, f"{count} cells need a {size}-byte frame, over the cap")
            return Cells(store.width, store.get_range(start, count))
        if kind is InsertAt:
            store.insert_at(msg.l, msg.cell)
            return Ok()
        if kind is Length:
            return Len(len(store))
        if kind is RebalanceHint:
            if store.mode != store_mod.MODE_DECOUPLED:
                raise store_mod.ModeError("REBALANCE_HINT requires a decoupled store")
            return Ok(bytes([store.rebalance_step(msg.batch)]))
        return ErrorMsg(E_BAD_REQUEST, f"{type(msg).__name__} is not a request")

    def _save(self) -> Message:
        """Write the store to ``save_path``; answers after the write, its
        fsync and the rename are done."""
        if self.save_path is None:
            return ErrorMsg(E_NO_SAVE_PATH, "server has no configured save path")
        with self._save_lock:
            with self._lock:
                store = self.store
                snapshot = store.mode, store.domain_bits, store.records()
            store_mod.write_file(self.save_path, *snapshot)
        return Ok()


# ---------------------------------------------------------------------------
# client sessions
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class SessionStats:
    requests_sent: int = 0
    cells_fetched: int = 0
    bytes_on_wire: int = 0


class _SessionBase:
    """The one request path, shared by both transports: ``request`` sends a
    message and returns the raw reply, which ``answer`` checks.  A transport
    supplies only ``_exchange``: one request frame in, one response out."""

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
        if type(resp) is Cells:
            stats.cells_fetched += len(resp.data) // resp.width
        return resp

    def rebalance(self, batch: int = 0) -> bool:
        return answer(msg := RebalanceHint(batch), self.request(msg)) == b"\x01"

    def save(self) -> None:
        answer(msg := Save(), self.request(msg))


class LocalSession(_SessionBase):
    """In-process transport that still runs the full codec both ways, so a
    sequence of operations exercises exactly the bytes TCP would carry."""

    def __init__(self, store_or_server):
        server = store_or_server
        self._server = server if isinstance(server, StoreServer) else StoreServer(server)
        self.stats = SessionStats()

    @property
    def store(self):
        return self._server.store

    def _exchange(self, frame: bytes) -> bytes:
        return encode(self._server.handle(decode(frame)))


class TcpSession(_SessionBase):
    """One TCP connection, strict request/response."""

    def __init__(self, host: str, port: int):
        self._sock = socket.create_connection((host, port))
        # send each frame at once: Nagle's algorithm would hold a small frame
        # back until the peer acknowledges the previous one
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("rb")
        self.stats = SessionStats()

    def close(self) -> None:
        self._rfile.close()
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _exchange(self, frame: bytes) -> bytes:
        self._sock.sendall(frame)
        resp = read_frame(self._rfile)
        if resp is None:
            raise TransportError("connection closed before the response")
        return resp


def read_frame(rfile) -> bytes | None:
    """One whole frame from the buffered socket file ``rfile``, length prefix
    included, or None when the peer closed cleanly between frames.  Raises
    CodecError on a declared length over the cap, before reading the body,
    and TransportError when the peer closes mid-frame."""
    head = rfile.read(4)
    if not head:
        return None
    if len(head) == 4:
        length = int.from_bytes(head, "big")
        if length > MAX_FRAME:
            raise CodecError(f"declared length {length} exceeds the 16 MiB cap")
        body = rfile.read(length)
        if len(body) == length:
            return head + body
    raise TransportError("connection closed mid-frame")


# ---------------------------------------------------------------------------
# TCP server
# ---------------------------------------------------------------------------


class _ConnectionHandler(socketserver.StreamRequestHandler):
    disable_nagle_algorithm = True  # send each reply at once

    def handle(self):
        sock, rfile = self.connection, self.rfile
        server: StoreServer = self.server.store_server  # type: ignore[attr-defined]
        try:
            while True:
                try:
                    frame = read_frame(rfile)
                    if frame is None:
                        return
                    msg = decode(frame)
                    if type(msg) not in ANSWERS:
                        raise CodecError(f"{type(msg).__name__} is not a request")
                except CodecError as e:
                    # fail-safe: report, then drop the connection; store untouched
                    sock.sendall(encode(ErrorMsg(E_BAD_REQUEST, str(e))))
                    return
                sock.sendall(encode(server.handle(msg)))
        except (TransportError, OSError):  # the client left mid-frame or reset, even before its reply
            return


class EsedsTcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, addr, store_server: StoreServer):
        super().__init__(addr, _ConnectionHandler)
        self.store_server = store_server


def serve(store, host: str = "127.0.0.1", port: int = DEFAULT_PORT, *, save_path=None) -> EsedsTcpServer:
    """Bind and return a server; caller runs serve_forever() or uses it as a
    context manager in tests (serve_forever on a background thread)."""
    return EsedsTcpServer((host, port), StoreServer(store, save_path=save_path))
