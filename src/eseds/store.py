"""Server-side state: cell arrays, the sparse-index decoupled layout, and the
store-file format.

The server never interprets cell contents.  Cells are opaque byte strings
handed over by the client, all of one width per store, fixed by the first
cell (from the constructor, ``load`` or the first insert); the only structure
the server maintains is their order.  Both stores take the same insert,
``insert_at(l, cell)`` at logical slot ``0 <= l <= n``, and lay the cells
out their own way (dense mode: an array with shift-insert plus a fresh
random rotation per insert; decoupled mode: sparse indices and cells in
two parallel lists, with midpoint insertion and a background rebalancer).

A decoupled rebalance pass only counts its hints down; the hint that ends it
re-spaces and rotates the live entries at once, so reads between hints see
the pre-pass order and an insert between hints does not restart the pass.

This module owns the file format (docs/formats.md) of all five modes:
``RECORDS`` gives each mode's record, ``write_file`` and ``load_file`` are the
one writer and reader.  A layout is its ``mode`` plus ``records()``, its
record columns, and ``from_records``, which takes them back; saving and
equality come from the ``Layout`` base.  Both server stores share one cell
array (``_CellArray``): its reads, its logical order and insert's width
and slot check.
"""

from __future__ import annotations

import os
import random
import stat
import struct
from contextlib import contextmanager, nullcontext
from itertools import islice
from operator import itemgetter

from .cipher import CELL_LEN

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

#: records joined into one write by ``write_records``, and read at once by ``load_file``
RECORDS_PER_WRITE = 4096

#: the most bytes ``load_file`` asks for in one read: a chunk's size comes
#: from the first cell's declared width, which a corrupt file sets at will
MAX_READ = 1 << 20

CELL, SPARSE, NEXT = "cell", "sparse", "next"  # the fields of a record

#: each mode's record fields in file order, and the width its cells must have
#: (0: any one width of at least a byte); docs/formats.md lays each field out
RECORDS = {
    MODE_DENSE: ((CELL,), 0),
    MODE_DECOUPLED: ((SPARSE, CELL), 0),
    MODE_DET: ((CELL, CELL, NEXT), CELL_LEN),
    MODE_OPE: ((CELL, CELL, NEXT), CELL_LEN),
    MODE_FHOPE: ((CELL,), CELL_LEN),
}


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
# the store-file codec, shared by all modes
# ---------------------------------------------------------------------------


def _index_bits_ok(mode: int, bits: int) -> bool:
    """An index width is a multiple of 8 in [8, 32768] in decoupled mode, 0 in any other."""
    return 8 <= bits <= 1 << 15 and bits % 8 == 0 if mode == MODE_DECOUPLED else bits == 0


def _record(fields: tuple[str, ...], width: int, index_bytes: int) -> tuple[struct.Struct, list[int]]:
    """The struct of a record of ``fields`` with ``width``-byte cells, which
    skips the cells' lengths, and the offset of each cell's length."""
    formats = [{CELL: f"4x{width}s", SPARSE: f"{index_bytes}s", NEXT: "q"}[f] for f in fields]
    offsets = [struct.calcsize("<" + "".join(formats[:i])) for i, f in enumerate(fields) if f is CELL]
    return struct.Struct("<" + "".join(formats)), offsets


def write_records(sink, records) -> None:
    """Write already framed records, ``RECORDS_PER_WRITE`` of them joined per
    write, so a save makes few writes and never holds the whole file."""
    records = iter(records)
    while chunk := b"".join(islice(records, RECORDS_PER_WRITE)):
        sink.write(chunk)


def write_file(sink, mode: int, domain_bits: int, columns: list[list]) -> None:
    """Write the header, then a record per row of ``columns`` (a list per field of the
    mode's record) to a binary stream as it is, or to a path atomically."""
    encode = {CELL: lambda cell: _BLOB_LEN.pack(len(cell)) + cell, NEXT: struct.Struct("<q").pack,
              SPARSE: lambda sparse: sparse.to_bytes(domain_bits // 8, "big")}
    encoded = [map(encode[field], column) for field, column in zip(RECORDS[mode][0], columns)]
    with _as_writer(sink) as out:
        out.write(MAGIC + _HEADER.pack(VERSION, mode, domain_bits, len(columns[0])))
        write_records(out, map(b"".join, zip(*encoded)))


class Layout:
    """What every store-file layout shares.  A layout is its ``mode`` plus
    ``records()``, its record columns, and the classmethod ``from_records``
    that takes them back; saving and equality come from here."""

    mode: int
    domain_bits = 0  # the sparse index width: 0 in every mode but decoupled

    def save(self, sink) -> None:
        """Write the layout to a binary stream as it is, or to a path atomically."""
        write_file(sink, self.mode, self.domain_bits, self.records())

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.domain_bits == other.domain_bits and self.records() == other.records()


def _read_exact(src, n: int) -> bytes:
    buf = src.read(n)
    if buf is None or len(buf) != n:
        raise FormatError("truncated store file")
    return buf


def _read_upto(src, n: int) -> bytes:
    """The next ``n`` bytes of ``src``, read ``MAX_READ`` at most at a time;
    fewer only where the file ends."""
    parts = []
    while n > 0 and (part := src.read(min(n, MAX_READ))):
        parts.append(part)
        n -= len(part)
    return b"".join(parts)


def _read_header(src) -> tuple[int, int, int]:
    """Returns (mode, domain_bits, count); raises FormatError on mismatch."""
    if _read_exact(src, len(MAGIC)) != MAGIC:
        raise FormatError("bad magic: not a store file")
    version, mode, domain_bits, count = _HEADER.unpack(_read_exact(src, _HEADER.size))
    if version != VERSION:
        raise FormatError(f"unsupported store version {version}")
    if not _index_bits_ok(mode, domain_bits):
        raise FormatError(f"index width {domain_bits} is not valid in mode {mode}")
    return mode, domain_bits, count


def _chunk_error(data: bytes, size: int, offsets: list[int], fixed: int, width: int) -> FormatError:
    """Why ``data`` is not whole ``size``-byte records of ``width``-byte cells
    with their lengths at ``offsets``: its first bad cell length, else truncation."""
    for at in range(0, len(data), size):
        for off in offsets:
            if at + off + _BLOB_LEN.size <= len(data):
                (got,) = _BLOB_LEN.unpack_from(data, at + off)
                if got != width or not got:
                    return FormatError(f"cell must be {fixed} bytes, got {got}" if fixed else
                                       f"cells differ in width or are empty: widths {min(width, got)}..{max(width, got)}")
    return FormatError("truncated store file")


def _read_records(src, mode: int, index_bits: int, count: int) -> list[list]:
    """The ``count`` records after the header, one list per field, sparse
    indices as ints.  Cells have the width the mode fixes, else the first
    cell's.  The first record is read alone, then up to ``RECORDS_PER_WRITE``
    per chunk: no chunk is sized from the count, or from a width unread, and
    no read asks for over ``MAX_READ`` bytes, whatever width the first cell
    declares.  Each record's tuple is dropped once read: kept, they make the
    GC run full passes."""
    fields, fixed = RECORDS[mode]
    columns: list[list] = [[] for _ in fields]
    if count:
        first = _record(fields, 0, index_bits // 8)[1][0]
        pending = _read_exact(src, first + _BLOB_LEN.size)
        width = fixed or _BLOB_LEN.unpack_from(pending, first)[0]
        record, offsets = _record(fields, width, index_bits // 8)
        size, length = record.size, _BLOB_LEN.pack(width)
        done, per_read = 0, 1
        while done < count:
            k = min(count - done, per_read)
            data = pending + _read_upto(src, k * size - len(pending))
            if len(data) != k * size:
                raise _chunk_error(data, size, offsets, fixed, width)
            # every cell length in the chunk is ``width``: byte i of each is one strided slice
            if not width or any(data[at + i :: size] != length[i : i + 1] * k for at in offsets for i in range(4)):
                raise _chunk_error(data, size, offsets, fixed, width)
            for j, (field, column) in enumerate(zip(fields, columns)):
                values = map(itemgetter(j), record.iter_unpack(data))
                column.extend([int.from_bytes(b, "big") for b in values] if field is SPARSE else values)
            done += k
            pending, per_read = b"", RECORDS_PER_WRITE
    if src.read(1):
        raise FormatError("trailing bytes after store records")
    return columns


def _one_width(cells) -> int:
    """The width every one of ``cells`` has, or 0 when there are none;
    raises StoreError if they differ in width or one is empty."""
    widths = set(map(len, cells))
    if len(widths) > 1 or 0 in widths:
        raise StoreError(f"cells differ in width or are empty: widths {min(widths)}..{max(widths)}")
    return widths.pop() if widths else 0


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
    tmp = os.path.join(head, f".{name}.{os.urandom(8).hex()}.tmp")
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
# the cell array both server stores hold
# ---------------------------------------------------------------------------


class _CellArray(Layout):
    """The cells of a server store, all of one width (0 while it has none).
    Logical cell j is ``_cells[(_start + j) % n]``; a decoupled store keeps
    ``_start`` at 0, so its sparse indices stay aligned with ``_cells`` by rank."""

    def __init__(self, cells: list[bytes] | None = None, *, rng: random.Random | None = None):
        self._cells: list[bytes] = list(map(bytes, cells)) if cells else []
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
        """Logical cells start, start+1, ... (count of them, wrapping past n-1)
        as one block.  One cell is returned as it is stored."""
        cells, n = self._cells, len(self._cells)
        if not (0 <= start < n and 1 <= count <= n):
            raise OutOfRange(f"range of {count} from {start} out of range for {n} cells")
        p = (self._start + start) % n
        if count == 1:
            return cells[p]
        end = p + count
        return b"".join(cells[p:end] if end <= n else cells[p:] + cells[: end - n])

    def logical_cells(self) -> list[bytes]:
        return self._cells[self._start :] + self._cells[: self._start]

    def _check_slot(self, l: int, cell: bytes) -> int:
        """The store's width once ``cell`` goes in at slot l.  An empty cell,
        or one of another width, raises StoreError; a slot outside 0..n
        raises OutOfRange."""
        if not cell or (self.width and len(cell) != self.width):
            raise StoreError(f"a {len(cell)}-byte cell in a store of {self.width}-byte cells")
        n = len(self._cells)
        if not 0 <= l <= n:
            raise OutOfRange(f"slot {l} out of range for {n} cells")
        return len(cell)


# ---------------------------------------------------------------------------
# dense mode
# ---------------------------------------------------------------------------


class DenseStore(_CellArray):
    """Array of cells with shift-insert and a fresh uniform rotation per insert.

    The rotation is a logical start offset, so applying it is O(1).  The
    insert itself still rebuilds the whole list in O(n), through
    ``get_cell``.  The rebuild stays until the benchmark runs a fixed
    operation count (ROADMAP items 1-2): a cheaper insert runs more
    operations per timed second, and a run of an O(1) insert read as a 27%
    rise of the gated ``write-dense`` search tail.  Save materializes the
    logical order, so files always load with offset 0.
    """

    mode = MODE_DENSE

    def insert_at(self, l: int, cell: bytes) -> None:
        """Insert at logical slot l (0 <= l <= n), then rotate by a fresh
        uniform offset drawn from the server's randomness."""
        width = self._check_slot(l, cell)
        n = len(self._cells)
        logical = [self.get_cell(j) for j in range(n)]
        logical.insert(l, bytes(cell))
        s = self._rng.randrange(n + 1)
        # logical cell j of the rotated array is logical[(j + s) % (n + 1)];
        # storing the post-insert array with start offset s realizes exactly that
        self._cells = logical
        self._start = s
        self.width = width

    def records(self) -> list[list]:
        return [self.logical_cells()]  # one column: the cells in logical order

    @classmethod
    def from_records(cls, domain_bits: int, columns: list[list]) -> "DenseStore":
        return cls(*columns)


# ---------------------------------------------------------------------------
# decoupled mode
# ---------------------------------------------------------------------------


class DecoupledStore(_CellArray):
    """Sparse indices and cells in two parallel lists; rank = list position.

    An insert takes the midpoint of the two neighboring sparse indices and
    moves no other entry.  A gap of <= 1 leaves no free midpoint: then the
    insert first re-spaces the whole store, O(n), with the rule a completed
    rebalance pass uses.  That leaves every gap at least
    2**(bits - ceil(log2(n+1))), so the next re-spacing takes at least
    bits - ceil(log2(n+1)) - 1 inserts into one gap.  A snapshot taken after
    one shows equal gaps, not where the inserts went.  A background full pass
    re-spaces the same way and also applies a fresh rotation.
    """

    mode = MODE_DECOUPLED

    def __init__(self, index_bits: int = DEFAULT_INDEX_BITS, *, rng: random.Random | None = None):
        if not _index_bits_ok(MODE_DECOUPLED, index_bits):
            raise StoreError(f"index_bits must be a multiple of 8 in [8, 32768], got {index_bits}")
        super().__init__(rng=rng)
        self.domain_bits = index_bits
        self._sparse: list[int] = []
        self._pass_left: int | None = None  # entries the pass in progress has yet to cover
        self.collisions = 0  # inserts that found a full gap; read by tests and the benchmark

    @property
    def index_space(self) -> int:
        return 1 << self.domain_bits

    def sparse_indices(self) -> list[int]:
        return list(self._sparse)

    def _gap(self, l: int) -> tuple[int, int]:
        """Sparse indices of ranks l-1 and l, with the ends of the index
        space standing in past the ends of the store."""
        sparse = self._sparse
        lo = sparse[l - 1] if l else 0
        hi = sparse[l] if l < len(sparse) else self.index_space
        return lo, hi

    def insert_at(self, l: int, cell: bytes) -> None:
        """Store the cell at rank l (0 <= l <= n), at the midpoint sparse
        index between ranks l-1 and l.  A gap of <= 1 re-spaces the whole
        store first, without rotating it or touching a pass in progress."""
        width = self._check_slot(l, cell)
        lo, hi = self._gap(l)
        if hi - lo <= 1:
            self.collisions += 1
            self._respace(2)  # so that every gap has a free midpoint
            lo, hi = self._gap(l)
        self._sparse.insert(l, (hi - lo) // 2 + lo)
        self._cells.insert(l, bytes(cell))
        self.width = width

    def _respace(self, least: int) -> None:
        """Give rank p sparse index (p+1) * floor(space/(n+1)), so every gap
        is exactly that step and the division remainder sits above the top
        entry; a step below ``least`` raises StoreFull and changes nothing."""
        n = len(self._sparse)
        step = self.index_space // (n + 1)
        if step < least:
            raise StoreFull("too many cells for the sparse index space")
        self._sparse = list(range(step, (n + 1) * step, step))

    # -- background rebalancer ------------------------------------------------

    def rebalance_step(self, batch: int) -> bool:
        """Count the rebalance pass down by ``batch`` entries (batch <= 0
        finishes it); True when this step completed the pass.

        A pass covers the n entries the store holds at its first step.  The
        step that completes it does the whole O(n) work: ``_respace`` of the
        live entries, then one rotation draw that rotates the cells.
        Until then no entry moves, so reads between steps see the pre-pass
        order, and an insert between steps neither restarts nor extends the
        pass: the result depends only on the live cells and the rotation.
        """
        left = len(self._cells) if self._pass_left is None else self._pass_left
        if 0 < batch < left:
            self._pass_left = left - batch
            return False
        self._pass_left = None
        self._respace(1)
        n = len(self._cells)
        rotation = self._rng.randrange(n) if n else 0
        self._cells = self._cells[rotation:] + self._cells[:rotation]
        return True

    def rebalance(self) -> None:
        """Run one complete pass."""
        self.rebalance_step(0)

    def records(self) -> list[list]:
        return [self.sparse_indices(), self.logical_cells()]

    @classmethod
    def from_records(cls, domain_bits: int, columns: list[list]) -> "DecoupledStore":
        store = cls(domain_bits)
        store._sparse, store._cells = columns
        if not all(map(int.__lt__, store._sparse, store._sparse[1:])):
            raise FormatError("sparse indices not strictly increasing")
        store.width = _one_width(store._cells)
        return store


def load_file(source, layouts: dict):
    """The store in ``source``, a path or binary stream: a cell store, or a
    layout of ``layouts`` (mode byte -> class); other modes raise ModeError."""
    with nullcontext(source) if hasattr(source, "read") else open(source, "rb") as src:
        mode, domain_bits, count = _read_header(src)
        layout = {MODE_DENSE: DenseStore, MODE_DECOUPLED: DecoupledStore, **layouts}.get(mode)
        if layout is None:
            legacy = f"mode {mode} is a legacy transform file, not a cell store"
            raise ModeError(legacy if mode in RECORDS else f"unknown store mode {mode}")
        return layout.from_records(domain_bits, _read_records(src, mode, domain_bits, count))


def load(source):
    """Load a dense or decoupled store from a path or binary stream; modes 2-4 raise ModeError."""
    return load_file(source, {})
