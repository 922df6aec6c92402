"""Server-side state: cell arrays, the sparse-index decoupled layout, persistence.

The server never interprets cell contents.  Cells are opaque byte strings
handed over by the client; the only structure the server maintains is their
order (dense mode: an array with shift-insert plus a fresh random rotation
per insert; decoupled mode: an ordered map from sparse indices to cells with
midpoint insertion and a background rebalancer).

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


class MidpointCollision(StoreError):
    """No free sparse index strictly between the two neighbors."""


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


def peek_mode(source) -> int:
    """Mode byte of a store file, without loading the records."""
    with _as_reader(source) as src:
        mode, _, _ = read_header(src)
        return mode


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
        self._start = 0
        self._rng = rng if rng is not None else random.SystemRandom()

    def __len__(self) -> int:
        return len(self._cells)

    def get_cell(self, j: int) -> bytes:
        n = len(self._cells)
        if not 0 <= j < n:
            raise OutOfRange(f"index {j} out of range for {n} cells")
        return self._cells[(self._start + j) % n]

    def get_range(self, start: int, count: int) -> list[bytes]:
        """Logical cells start, start+1, ... (count of them, wrapping past n-1)."""
        cells, n = self._cells, len(self._cells)
        if not (0 <= start < n and 1 <= count <= n):
            raise OutOfRange(f"range of {count} from {start} out of range for {n} cells")
        p = (self._start + start) % n
        end = p + count
        return cells[p:end] if end <= n else cells[p:] + cells[: end - n]

    def insert_at(self, l: int, cell: bytes, rotation_coins=None) -> None:
        """Insert at logical slot l (0 <= l <= n), then rotate by a fresh
        uniform offset drawn from the server's randomness."""
        n = len(self._cells)
        if not 0 <= l <= n:
            raise OutOfRange(f"slot {l} out of range for {n} cells")
        logical = [self.get_cell(j) for j in range(n)]
        logical.insert(l, bytes(cell))
        coins = rotation_coins if rotation_coins is not None else self._rng
        s = coins.randrange(n + 1)
        # logical cell j of the rotated array is logical[(j + s) % (n + 1)];
        # storing the post-insert array with start offset s realizes exactly that
        self._cells = logical
        self._start = s

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

    def get_range(self, start: int, count: int) -> list[bytes]:
        """Cells of ranks start, start+1, ... (count of them, wrapping past n-1)."""
        entries, n = self._entries, len(self._entries)
        if not (0 <= start < n and 1 <= count <= n):
            raise OutOfRange(f"range of {count} from {start} out of range for {n} cells")
        end = start + count
        return [e.cell for e in entries[start:end]] + [e.cell for e in entries[: max(0, end - n)]]

    def sparse_indices(self) -> list[int]:
        return [e.sparse for e in self._entries]

    def logical_cells(self) -> list[bytes]:
        return [e.cell for e in self._entries]

    def _bounds(self, j_left: int | None, j_right: int | None) -> tuple[int, int]:
        n = len(self._entries)
        if j_left is None and j_right is None:
            if n:
                raise OutOfRange("both ends open on a non-empty store")
        elif j_left is None:
            if j_right != 0:
                raise OutOfRange("left sentinel requires right rank 0")
        elif j_right is None:
            if j_left != n - 1:
                raise OutOfRange(f"right sentinel requires left rank {n - 1}")
        elif j_right != j_left + 1:
            raise OutOfRange(f"ranks {j_left},{j_right} are not adjacent")
        if j_left is not None and not 0 <= j_left < n:
            raise OutOfRange(f"rank {j_left} out of range")
        if j_right is not None and not 0 <= j_right < n:
            raise OutOfRange(f"rank {j_right} out of range")
        lo = 0 if j_left is None else self._entries[j_left].sparse
        hi = self.index_space if j_right is None else self._entries[j_right].sparse
        return lo, hi

    def insert_between(
        self, j_left: int | None, j_right: int | None, cell: bytes, *, auto_rebalance: bool = True
    ) -> int:
        """Store the cell at the midpoint sparse index between two adjacent
        ranks (None = virtual bound of the index space).  Returns the sparse
        index used.  With auto_rebalance the gap<=1 collision is recovered by
        a synchronous local rebalance and a single retry."""
        lo, hi = self._bounds(j_left, j_right)
        if hi - lo <= 1:
            if not auto_rebalance:
                raise MidpointCollision(f"no free index between {lo} and {hi}")
            self.collisions += 1
            self._local_rebalance(j_left, j_right)
            lo, hi = self._bounds(j_left, j_right)
            if hi - lo <= 1:
                raise StoreFull("sparse index space exhausted")
        sparse = (hi - lo) // 2 + lo
        rank = j_right if j_right is not None else len(self._entries)
        self._entries.insert(rank, _Entry(sparse, bytes(cell)))
        self._pass = None  # a pass in progress restarts from the new order
        return sparse

    def _local_rebalance(self, j_left: int | None, j_right: int | None) -> None:
        """Re-space the smallest window of ranks enclosing the collision so
        every gap inside it is >= 2, growing the window until there is slack."""
        n = len(self._entries)
        wl = j_left if j_left is not None else 0
        wr = j_right if j_right is not None else n - 1
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
    read from ``src``; the one parser of cell-store records."""
    if mode == MODE_DENSE:
        return DenseStore._load_records(src, count)
    if mode == MODE_DECOUPLED:
        return DecoupledStore._load_records(src, domain_bits, count)
    raise ModeError(f"mode {mode} is a legacy transform file, not a cell store")


def save(store, sink) -> None:
    store.save(sink)
