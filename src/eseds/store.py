"""Server-side state: cell arrays, the sparse-index decoupled layout, persistence.

The server never interprets cell contents.  Cells are opaque byte strings
handed over by the client, all of one width per store, fixed by the first
cell (from the constructor, ``load`` or the first insert); the only structure
the server maintains is their order.  Both stores take the same insert,
``insert_at(l, cell)`` at logical slot ``0 <= l <= n``, and lay the cells
out their own way (dense mode: an array with shift-insert plus a fresh
random rotation per insert; decoupled mode: an ordered map from sparse
indices to cells with midpoint insertion and a background rebalancer).

A decoupled rebalance pass is built beside the live entries and swapped in
by its last step, so reads between steps see the pre-pass order.
"""

from __future__ import annotations

import io
import os
import random
import secrets
import stat
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice

MAGIC = b"ESEDS\x00"
VERSION = 1

MODE_DENSE = 0
MODE_DECOUPLED = 1
MODE_DET = 2
MODE_OPE = 3
MODE_FHOPE = 4

#: sparse index width used when none is configured (256-bit index space)
DEFAULT_INDEX_BITS = 256

_HEADER = struct.Struct("<HBHQ")  # version, mode, domain_bits, count
_BLOB_LEN = struct.Struct("<I")

#: records joined into one write by ``write_records``
RECORDS_PER_WRITE = 4096


class StoreError(Exception):
    """Base class for store failures."""


class OutOfRange(StoreError):
    """A logical index or rank is out of range."""


class ModeError(StoreError):
    """Operation invoked on a store of the wrong mode."""


class StoreFull(StoreError):
    """The sparse index space cannot hold another cell even after rebalance."""


class FormatError(StoreError):
    """Persisted data is malformed (bad magic/version, truncated, trailing)."""


# ---------------------------------------------------------------------------
# persistence helpers shared by all modes (legacy transform files reuse them)
# ---------------------------------------------------------------------------


def read_exact(src: io.BufferedIOBase, n: int) -> bytes:
    buf = src.read(n)
    if buf is None or len(buf) != n:
        raise FormatError("truncated store file")
    return buf


def write_header(sink: io.BufferedIOBase, mode: int, domain_bits: int, count: int) -> None:
    sink.write(MAGIC)
    sink.write(_HEADER.pack(VERSION, mode, domain_bits, count))


def read_header(src: io.BufferedIOBase) -> tuple[int, int, int]:
    """Returns (mode, domain_bits, count); raises FormatError on mismatch."""
    if read_exact(src, len(MAGIC)) != MAGIC:
        raise FormatError("bad magic: not a store file")
    version, mode, domain_bits, count = _HEADER.unpack(read_exact(src, _HEADER.size))
    if version != VERSION:
        raise FormatError(f"unsupported store version {version}")
    return mode, domain_bits, count


def blob(data: bytes) -> bytes:
    """``data`` framed as a blob: u32 length, then the bytes."""
    return _BLOB_LEN.pack(len(data)) + data


def write_records(sink: io.BufferedIOBase, records) -> None:
    """Write already framed records, ``RECORDS_PER_WRITE`` of them joined per
    write, so a save makes few writes and never holds the whole file."""
    records = iter(records)
    while chunk := b"".join(islice(records, RECORDS_PER_WRITE)):
        sink.write(chunk)


def read_blob(src: io.BufferedIOBase) -> bytes:
    (n,) = _BLOB_LEN.unpack(read_exact(src, 4))
    return read_exact(src, n)


def expect_eof(src: io.BufferedIOBase) -> None:
    if src.read(1):
        raise FormatError("trailing bytes after store records")


def _one_width(cells, error: type[StoreError] = StoreError) -> int:
    """The width every one of ``cells`` has, or 0 when there are none;
    raises ``error`` if they differ in width or one is empty."""
    widths = set(map(len, cells))
    if len(widths) > 1 or 0 in widths:
        raise error(f"cells differ in width or are empty: widths {min(widths)}..{max(widths)}")
    return widths.pop() if widths else 0


def _width_after(width: int, cell: bytes) -> int:
    """The width of a store of ``width``-byte cells (0 while it has none)
    once it takes ``cell``; an empty cell, or one of another width, raises."""
    if not cell or (width and len(cell) != width):
        raise StoreError(f"a {len(cell)}-byte cell in a store of {width}-byte cells")
    return len(cell)


class _as_reader:
    """Accept either a binary stream or a filesystem path."""

    def __init__(self, source):
        self._source = source
        self._owned = None

    def __enter__(self):
        if hasattr(self._source, "read"):
            return self._source
        self._owned = open(self._source, "rb")
        return self._owned

    def __exit__(self, *exc):
        if self._owned is not None:
            self._owned.close()


@contextmanager
def _as_writer(sink):
    """Accept a binary stream, written as it is, or a filesystem path, written
    atomically: the file is written to a uniquely named temp file beside the
    target, which is flushed, fsynced and renamed over the target with the
    target's permission bits.  If writing fails the temp file is removed and
    the target is left as it was."""
    if hasattr(sink, "write"):
        yield sink
        return
    target = os.path.realpath(sink)
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".{name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as out:
            if os.path.exists(target):
                os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
            yield out
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# dense mode
# ---------------------------------------------------------------------------


class DenseStore:
    """Array of cells with shift-insert and a fresh uniform rotation per insert.

    The rotation is kept as a logical start offset instead of physically
    copying the array: cell j lives at ``_cells[(_start + j) % n]``.  Save
    materializes the logical order, so files always load with offset 0.
    """

    mode = MODE_DENSE
    domain_bits = 0  # no sparse indices in this mode

    def __init__(self, cells: list[bytes] | None = None, *, rng: random.Random | None = None):
        self._cells: list[bytes] = list(cells) if cells else []
        self.width = _one_width(self._cells)
        self._start = 0
        self._rng = rng if rng is not None else random.SystemRandom()

    def __len__(self) -> int:
        return len(self._cells)

    def get_cell(self, j: int) -> bytes:
        n = len(self._cells)
        if not 0 <= j < n:
            raise OutOfRange(f"index {j} out of range for {n} cells")
        return self._cells[(self._start + j) % n]

    def get_range(self, start: int, count: int) -> bytes:
        """Logical cells start, start+1, ... (count of them, wrapping past n-1) as one block."""
        cells, n = self._cells, len(self._cells)
        if not (0 <= start < n and 1 <= count <= n):
            raise OutOfRange(f"range of {count} from {start} out of range for {n} cells")
        p = (self._start + start) % n
        end = p + count
        return b"".join(cells[p:end] if end <= n else cells[p:] + cells[: end - n])

    def insert_at(self, l: int, cell: bytes) -> None:
        """Insert at logical slot l (0 <= l <= n), then rotate by a fresh
        uniform offset drawn from the server's randomness."""
        width = _width_after(self.width, cell)
        n = len(self._cells)
        if not 0 <= l <= n:
            raise OutOfRange(f"slot {l} out of range for {n} cells")
        logical = [self.get_cell(j) for j in range(n)]
        logical.insert(l, bytes(cell))
        s = self._rng.randrange(n + 1)
        # logical cell j of the rotated array is logical[(j + s) % (n + 1)];
        # storing the post-insert array with start offset s realizes exactly that
        self._cells = logical
        self._start = s
        self.width = width

    def logical_cells(self) -> list[bytes]:
        return self._cells[self._start :] + self._cells[: self._start]

    def save(self, sink) -> None:
        with _as_writer(sink) as out:
            cells = self.logical_cells()
            write_header(out, self.mode, self.domain_bits, len(cells))
            write_records(out, map(blob, cells))

    @classmethod
    def _load_records(cls, src, count: int) -> "DenseStore":
        store = cls()
        store._cells = [read_blob(src) for _ in range(count)]
        expect_eof(src)
        return store

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenseStore):
            return NotImplemented
        return self.logical_cells() == other.logical_cells()


# ---------------------------------------------------------------------------
# decoupled mode
# ---------------------------------------------------------------------------


@dataclass
class _Entry:
    sparse: int
    cell: bytes


class DecoupledStore:
    """Sorted map from sparse indices to cells; rank = position in sparse order.

    Inserts go to the midpoint of the two neighboring sparse indices and so
    return immediately; a gap of <= 1 leaves no free midpoint and triggers a
    synchronous local rebalance of the smallest enclosing region with enough
    slack.  A background full pass re-spaces all entries equidistantly and
    applies a fresh rotation.
    """

    mode = MODE_DECOUPLED

    def __init__(self, index_bits: int = DEFAULT_INDEX_BITS, *, rng: random.Random | None = None):
        if not 8 <= index_bits <= 1 << 15 or index_bits % 8:
            raise StoreError(f"index_bits must be a multiple of 8 in [8, 32768], got {index_bits}")
        self.domain_bits = index_bits
        self.width = 0  # no cells yet
        self._entries: list[_Entry] = []
        self._rng = rng if rng is not None else random.SystemRandom()
        # pass in progress: its cells in rotated rank order, and the re-spaced
        # entries built so far
        self._pass: tuple[list[bytes], list[_Entry]] | None = None
        self.collisions = 0  # forced local rebalances observed (test visibility)

    @property
    def index_space(self) -> int:
        return 1 << self.domain_bits

    def __len__(self) -> int:
        return len(self._entries)

    def get_cell(self, j: int) -> bytes:
        if not 0 <= j < len(self._entries):
            raise OutOfRange(f"rank {j} out of range for {len(self._entries)} cells")
        return self._entries[j].cell

    def get_range(self, start: int, count: int) -> bytes:
        """Cells of ranks start, start+1, ... (count of them, wrapping past n-1) as one block."""
        entries, n = self._entries, len(self._entries)
        if not (0 <= start < n and 1 <= count <= n):
            raise OutOfRange(f"range of {count} from {start} out of range for {n} cells")
        end = start + count
        return b"".join([e.cell for e in entries[start:end]] + [e.cell for e in entries[: max(0, end - n)]])

    def sparse_indices(self) -> list[int]:
        return [e.sparse for e in self._entries]

    def logical_cells(self) -> list[bytes]:
        return [e.cell for e in self._entries]

    def _gap(self, l: int) -> tuple[int, int]:
        """Sparse indices of ranks l-1 and l, with the ends of the index
        space standing in past the ends of the store."""
        entries = self._entries
        lo = entries[l - 1].sparse if l else 0
        hi = entries[l].sparse if l < len(entries) else self.index_space
        return lo, hi

    def insert_at(self, l: int, cell: bytes) -> None:
        """Store the cell at rank l (0 <= l <= n), at the midpoint sparse
        index between ranks l-1 and l.  A gap of <= 1 is recovered by a
        synchronous local rebalance and a single retry."""
        width = _width_after(self.width, cell)
        n = len(self._entries)
        if not 0 <= l <= n:
            raise OutOfRange(f"slot {l} out of range for {n} cells")
        lo, hi = self._gap(l)
        if hi - lo <= 1:
            self.collisions += 1
            self._local_rebalance(l)
            lo, hi = self._gap(l)
            if hi - lo <= 1:
                raise StoreFull("sparse index space exhausted")
        self._entries.insert(l, _Entry((hi - lo) // 2 + lo, bytes(cell)))
        self._pass = None  # a pass in progress restarts from the new order
        self.width = width

    def _local_rebalance(self, l: int) -> None:
        """Re-space the smallest window of ranks around slot l so every gap
        inside it is >= 2, growing the window until there is slack."""
        n = len(self._entries)
        wl, wr = max(0, l - 1), min(l, n - 1)
        while True:
            lo = 0 if wl == 0 else self._entries[wl - 1].sparse
            hi = self.index_space if wr == n - 1 else self._entries[wr + 1].sparse
            count = wr - wl + 1
            step = (hi - lo) // (count + 1)
            if step >= 2:
                break
            if wl == 0 and wr == n - 1:
                raise StoreFull("sparse index space exhausted")
            wl = max(0, wl - 1)
            wr = min(n - 1, wr + 1)
        for i in range(count):
            self._entries[wl + i].sparse = lo + (i + 1) * step

    # -- background rebalancer ------------------------------------------------

    def rebalance_step(self, batch: int) -> bool:
        """Advance the rebalance pass by up to ``batch`` entries (batch <= 0
        finishes it); True when this step completed the pass.

        A pass starts on the first step, or the first after a mutation: it
        draws one rotation offset and snapshots the cells in rotated rank
        order.  Post-rotation rank p gets sparse index (p+1) * floor(space/(n+1)),
        so every gap is exactly the step and the division remainder sits above
        the top entry.  The new entries are built beside ``_entries`` and swapped
        in by the step that completes the pass, so reads between steps see the
        pre-pass order and no live entry is touched mid-pass.
        """
        if self._pass is None:
            n = len(self._entries)
            rotation = self._rng.randrange(n) if n else 0
            if n and self.index_space // (n + 1) < 1:
                raise StoreFull("too many cells for the sparse index space")
            cells = [e.cell for e in self._entries]
            self._pass = (cells[rotation:] + cells[:rotation], [])
        cells, built = self._pass
        n = len(cells)
        step = self.index_space // (n + 1)
        end = n if batch <= 0 else min(len(built) + batch, n)
        built.extend(_Entry((p + 1) * step, cells[p]) for p in range(len(built), end))
        if end < n:
            return False
        self._entries, self._pass = built, None
        return True

    def rebalance(self) -> None:
        """Run one complete pass."""
        self.rebalance_step(0)

    def save(self, sink) -> None:
        with _as_writer(sink) as out:
            write_header(out, self.mode, self.domain_bits, len(self._entries))
            width = self.domain_bits // 8
            records = (e.sparse.to_bytes(width, "big") + blob(e.cell) for e in self._entries)
            write_records(out, records)

    @classmethod
    def _load_records(cls, src, domain_bits: int, count: int) -> "DecoupledStore":
        store = cls(domain_bits)
        width = domain_bits // 8
        prev = -1
        for _ in range(count):
            sparse = int.from_bytes(read_exact(src, width), "big")
            if sparse <= prev:
                raise FormatError("sparse indices not strictly increasing")
            prev = sparse
            store._entries.append(_Entry(sparse, read_blob(src)))
        expect_eof(src)
        return store

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecoupledStore):
            return NotImplemented
        return self.domain_bits == other.domain_bits and [
            (e.sparse, e.cell) for e in self._entries
        ] == [(e.sparse, e.cell) for e in other._entries]


def load(source):
    """Load a dense or decoupled store from a path or binary stream."""
    with _as_reader(source) as src:
        return load_records(src, *read_header(src))


def load_records(src, mode: int, domain_bits: int, count: int):
    """The dense or decoupled store whose records follow a header already
    read from ``src``; the one parser of cell-store records.  Every cell of
    a store has one width of at least one byte."""
    if mode == MODE_DENSE:
        store = DenseStore._load_records(src, count)
    elif mode == MODE_DECOUPLED:
        store = DecoupledStore._load_records(src, domain_bits, count)
    else:
        raise ModeError(f"mode {mode} is a legacy transform file, not a cell store")
    store.width = _one_width(store.logical_cells(), FormatError)
    return store
