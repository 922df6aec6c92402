"""Check a running eseds server against the frame layout in docs/protocol.md.

The client is written from the document alone: it imports nothing from
eseds, only ``socket`` and ``struct``, so a change to the codec that the
document does not describe shows up here.  The server must hold an empty
store.  On one connection the script checks that

- LENGTH is answered by LEN 0;
- INSERT_AT(0, a 36-byte cell) is answered by OK;
- GET_RANGE(0, 1) is answered by CELLS(36, that cell);
- a CELLS frame sent as a request is answered by ERROR bad_request, after
  which the server closes the connection.

Usage: python3 scripts/raw_client.py HOST:PORT
Exits 0 when every answer matches, and 1 with the first mismatch otherwise.
"""

import socket
import struct
import sys

GET_RANGE, INSERT_AT, LENGTH = 0x01, 0x02, 0x04
ERROR, CELLS, OK, LEN = 0x20, 0x21, 0x22, 0x23
BAD_REQUEST = 1


def frame(opcode: int, payload: bytes = b"") -> bytes:
    """u32 length (of opcode and payload), u8 opcode, payload."""
    return struct.pack(">IB", 1 + len(payload), opcode) + payload


def recv_exact(sock: socket.socket, n: int) -> bytes:
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise SystemExit(f"connection closed after {len(data)} of {n} bytes")
        data += chunk
    return data


def exchange(sock: socket.socket, request: bytes) -> bytes:
    sock.sendall(request)
    (length,) = struct.unpack(">I", recv_exact(sock, 4))
    return struct.pack(">I", length) + recv_exact(sock, length)


def expect(what: str, got: bytes, want: bytes) -> None:
    if got != want:
        raise SystemExit(f"{what}: got {got.hex()}, want {want.hex()}")
    print(f"ok  {what}")


def main(addr: str) -> None:
    host, _, port = addr.rpartition(":")
    cell = bytes(range(36))
    with socket.create_connection((host or "127.0.0.1", int(port)), timeout=10) as sock:
        expect("LENGTH -> LEN 0", exchange(sock, frame(LENGTH)), frame(LEN, struct.pack(">Q", 0)))
        expect(
            "INSERT_AT(0, 36 bytes) -> OK",
            exchange(sock, frame(INSERT_AT, struct.pack(">Q", 0) + cell)),
            frame(OK),
        )
        expect(
            "GET_RANGE(0, 1) -> CELLS(36, the cell)",
            exchange(sock, frame(GET_RANGE, struct.pack(">QQ", 0, 1))),
            frame(CELLS, struct.pack(">I", 36) + cell),
        )
        resp = exchange(sock, frame(CELLS, struct.pack(">I", 36) + cell))
        expect("CELLS as a request -> ERROR bad_request", resp[4:7], struct.pack(">BH", ERROR, BAD_REQUEST))
        try:
            print(f"    message: {resp[7:].decode()}")
        except UnicodeDecodeError:
            raise SystemExit(f"the ERROR message is not UTF-8: {resp[7:].hex()}") from None
        if sock.recv(1):
            raise SystemExit("the server kept the connection open after a codec error")
        print("ok  the server closed the connection")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    main(sys.argv[1])
