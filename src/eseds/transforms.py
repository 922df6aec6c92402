"""Legacy encrypted layouts rebuilt as attack targets.

Three weaker schemes are reproduced in the same cell-array shape so the
attacks module can be pointed at any of them: deterministic encryption
(keyed-PRF bucket per distinct value, duplicates chained), deterministic
order-preserving placement (distinct values at their sorted rank), and
frequency-hiding order-preserving placement (one cell per occurrence,
sorted, ties in coin order).  Each build also records the true plaintext
per position, which stays in memory for scoring and is never serialized.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cipher import CELL_LEN, SecretKey, decrypt, encrypt, prf
from .core import CoinSource
from .store import (
    MODE_DECOUPLED,
    MODE_DENSE,
    MODE_DET,
    MODE_FHOPE,
    MODE_OPE,
    FormatError,
    ModeError,
    _as_reader,
    _as_writer,
    blob,
    expect_eof,
    read_blob,
    read_exact,
    read_header,
    write_header,
    write_records,
)
from . import store as store_mod

import struct

_NEXT = struct.Struct("<q")

NO_NEXT = -1


def _read_cell(src) -> bytes:
    """One cell blob of a transform file; the file is outside input, so its
    width is checked here."""
    cell = read_blob(src)
    if len(cell) != CELL_LEN:
        raise FormatError(f"cell must be {CELL_LEN} bytes, got {len(cell)}")
    return cell


@dataclass
class ChainSlot:
    """One occupied table slot: sealed keyword, sealed row id, chain link."""

    kw_ct: bytes
    id_ct: bytes
    next: int  # slot index of the next duplicate, NO_NEXT at chain end


@dataclass(frozen=True)
class LeakageView:
    """Exactly what a snapshot adversary sees.

    kind "det": positions are PRF buckets, classes group chained duplicates,
    order carries no information.  kind "ope": positions are sorted ranks of
    the distinct values, same chain classes.  kind "fhope": positions are
    sorted ranks of occurrences, every ciphertext unique.  kind "main": the
    array is freshly rotated, so nothing but its length is exposed.
    """

    kind: str
    n: int
    classes: tuple[int, ...] | None = None  # per-position chain label, None = all unique

    def class_labels(self) -> list[int]:
        if self.classes is not None:
            return list(self.classes)
        return list(range(self.n))


def _derive_chains(slots: list[ChainSlot]) -> tuple[int, ...]:
    """Label each position with its chain's head slot, using only pointers."""
    labels = [-1] * len(slots)
    pointed_to = {s.next for s in slots if s.next != NO_NEXT}
    for head in range(len(slots)):
        if head in pointed_to:
            continue
        j = head
        while j != NO_NEXT:
            labels[j] = head
            j = slots[j].next
    if any(l < 0 for l in labels):
        raise FormatError("chain pointers do not cover the table")
    return tuple(labels)


class _ChainTable:
    """Shared behavior of the two chained layouts."""

    kind: str
    mode: int

    def __init__(self, slots: list[ChainSlot], cell_values: list[int] | None):
        self.slots = slots
        self.cell_values = cell_values  # in-memory truth for scoring; never saved

    def __len__(self) -> int:
        return len(self.slots)

    def decrypt_cell(self, key: SecretKey, j: int) -> int:
        return decrypt(key, self.slots[j].kw_ct)

    def leakage_view(self) -> LeakageView:
        return LeakageView(self.kind, len(self.slots), _derive_chains(self.slots))

    def save(self, sink) -> None:
        with _as_writer(sink) as out:
            write_header(out, self.mode, 0, len(self.slots))
            write_records(
                out, (blob(s.kw_ct) + blob(s.id_ct) + _NEXT.pack(s.next) for s in self.slots)
            )

    @classmethod
    def _load_records(cls, src, count: int):
        slots = []
        for _ in range(count):
            kw, rid = _read_cell(src), _read_cell(src)
            (nxt,) = _NEXT.unpack(read_exact(src, _NEXT.size))
            slots.append(ChainSlot(kw, rid, nxt))
        expect_eof(src)
        return cls(slots, None)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.slots == other.slots


class DetEseds(_ChainTable):
    """Deterministic layout: distinct value at slot prf(k, value, n)."""

    kind = "det"
    mode = MODE_DET

    def lookup(self, key: SecretKey, keyword: int) -> list[int]:
        """Row ids of every occurrence of the keyword, by probing from its
        PRF bucket to the chain head, then following the chain."""
        n = len(self.slots)
        if n == 0:
            return []
        start = prf(key, keyword, n)
        for i in range(n):
            j = (start + i) % n
            if decrypt(key, self.slots[j].kw_ct) == keyword:
                ids = []
                while j != NO_NEXT:
                    ids.append(decrypt(key, self.slots[j].id_ct))
                    j = self.slots[j].next
                return ids
        return []


class OpeEseds(_ChainTable):
    """Order-revealing layout: distinct value i at its sorted rank."""

    kind = "ope"
    mode = MODE_OPE

    def head_order(self) -> list[int]:
        """Chain labels in ascending head position: the leaked value order."""
        return sorted(set(_derive_chains(self.slots)))


class FhopeEseds:
    """Frequency-hiding order-preserving layout: one cell per occurrence,
    sorted, equal values in coin order."""

    kind = "fhope"
    mode = MODE_FHOPE

    def __init__(self, cells: list[bytes], cell_values: list[int] | None):
        self.cells = cells
        self.cell_values = cell_values

    def __len__(self) -> int:
        return len(self.cells)

    def decrypt_cell(self, key: SecretKey, j: int) -> int:
        return decrypt(key, self.cells[j])

    def leakage_view(self) -> LeakageView:
        return LeakageView(self.kind, len(self.cells))

    def save(self, sink) -> None:
        with _as_writer(sink) as out:
            write_header(out, self.mode, 0, len(self.cells))
            write_records(out, (blob(c) for c in self.cells))

    @classmethod
    def _load_records(cls, src, count: int) -> "FhopeEseds":
        cells = [_read_cell(src) for _ in range(count)]
        expect_eof(src)
        return cls(cells, None)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FhopeEseds):
            return NotImplemented
        return self.cells == other.cells


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _occupy(taken: list[bool], start: int) -> int:
    """First free slot at or cyclically after start (the table never fills
    beyond its element count, so a free slot always exists)."""
    n = len(taken)
    j = start % n
    while taken[j]:
        j = (j + 1) % n
    taken[j] = True
    return j


def build_det(
    key: SecretKey, plaintexts: list[int], domain_size: int, row_ids: list[int] | None = None
) -> DetEseds:
    """n-slot table, one slot per occurrence: the first occurrence of each
    distinct value heads a chain at its PRF bucket (next free slot if a
    different value's chain already claimed it; the probe path is leakage
    this layout accepts), duplicates extend the chain."""
    n = len(plaintexts)
    if row_ids is None:
        row_ids = list(range(n))
    if len(row_ids) != n:
        raise ValueError("one row id per plaintext required")
    slots: list[ChainSlot | None] = [None] * n
    values: list[int | None] = [None] * n
    taken = [False] * n
    tail: dict[int, int] = {}  # value -> last slot of its chain
    for m, rid in zip(plaintexts, row_ids):
        if m in tail:
            j = _occupy(taken, tail[m] + 1)
            slots[tail[m]].next = j
        else:
            j = _occupy(taken, prf(key, m, n))
        slots[j] = ChainSlot(
            encrypt(key, m, domain_size), encrypt(key, rid, 1 << 64), NO_NEXT
        )
        values[j] = m
        tail[m] = j
    return DetEseds(slots, values)


def build_ope(key: SecretKey, plaintexts: list[int], domain_size: int) -> OpeEseds:
    """Distinct values head chains at their sorted rank (indices 0..d-1);
    duplicate cells fill the remaining slots in value order."""
    n = len(plaintexts)
    distinct = sorted(set(plaintexts))
    counts = {v: plaintexts.count(v) for v in distinct}
    slots: list[ChainSlot | None] = [None] * n
    values: list[int | None] = [None] * n
    next_free = len(distinct)
    rid = 0
    for rank, v in enumerate(distinct):
        j = rank
        slots[j] = ChainSlot(encrypt(key, v, domain_size), encrypt(key, rid, 1 << 64), NO_NEXT)
        values[j] = v
        rid += 1
        for _ in range(counts[v] - 1):
            slots[j].next = next_free
            j = next_free
            slots[j] = ChainSlot(encrypt(key, v, domain_size), encrypt(key, rid, 1 << 64), NO_NEXT)
            values[j] = v
            rid += 1
            next_free += 1
    return OpeEseds(slots, values)


def build_fhope(
    key: SecretKey, plaintexts: list[int], domain_size: int, coins: CoinSource | None = None
) -> FhopeEseds:
    """One cell per occurrence in sorted order; the order of equal values is
    decided by coin flips, so the decrypted sequence is sorted either way."""
    if coins is None:
        coins = CoinSource()
    order = sorted(range(len(plaintexts)), key=lambda i: plaintexts[i])
    # re-draw the order of each equal-value run from the coins
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and plaintexts[order[j]] == plaintexts[order[i]]:
            j += 1
        run = order[i:j]
        for t in range(len(run) - 1, 0, -1):  # Fisher-Yates on the run
            s = coins.randrange(t + 1)
            run[t], run[s] = run[s], run[t]
        order[i:j] = run
        i = j
    cells = [encrypt(key, plaintexts[i], domain_size) for i in order]
    values = [plaintexts[i] for i in order]
    out = FhopeEseds(cells, values)
    out.placement = order  # occurrence index per position, for tie tests
    return out


def leakage_view(target) -> LeakageView:
    """Snapshot leakage of any transform or of a main cell store."""
    if hasattr(target, "leakage_view"):
        return target.leakage_view()
    if getattr(target, "mode", None) in (MODE_DENSE, MODE_DECOUPLED):
        return LeakageView("main", len(target))
    raise TypeError(f"no leakage view for {type(target).__name__}")


def load_any(source):
    """Load any store-family file: cell stores and legacy transform tables."""
    with _as_reader(source) as src:
        mode, domain_bits, count = read_header(src)
        if mode in (MODE_DENSE, MODE_DECOUPLED):
            return store_mod.load_records(src, mode, domain_bits, count)
        if mode in (MODE_DET, MODE_OPE):
            cls = DetEseds if mode == MODE_DET else OpeEseds
            return cls._load_records(src, count)
        if mode == MODE_FHOPE:
            return FhopeEseds._load_records(src, count)
        raise ModeError(f"unknown store mode {mode}")
