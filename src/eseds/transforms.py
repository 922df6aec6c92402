"""Legacy encrypted layouts rebuilt as attack targets, and the lab's target table.

Three weaker schemes are reproduced in the same cell-array shape so the
attacks module can be pointed at any of them: deterministic encryption
(keyed-PRF bucket per distinct value, duplicates chained), deterministic
order-preserving placement (distinct values at their sorted rank), and
frequency-hiding order-preserving placement (one cell per occurrence,
sorted, ties in coin order).  A layout holds only ciphertexts and links.

``store`` owns the file format of these layouts too.  Each layout here is
its ``mode`` plus ``records()``, its record columns, and ``from_records``,
which takes them back; saving and equality come from ``store.Layout``.

``TARGETS`` is the lab's table of the four structures it attacks (the
three layouts and the main rotated store): each row builds one and returns
what a snapshot of it shows and the cell at each position, and
``build_target`` decrypts those cells into the truth that scores a guess.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import groupby

from .cipher import SecretKey, decrypt, encrypt, prf
from .core import CoinSource, Domain
from .store import MODE_DET, MODE_FHOPE, MODE_OPE
from .store import DenseStore, FormatError, Layout, load_file

NO_NEXT = -1


@dataclass
class ChainSlot:
    """One occupied table slot: sealed keyword, sealed row id, chain link."""

    kw_ct: bytes
    id_ct: bytes
    next: int  # slot index of the next duplicate, NO_NEXT at chain end


def _derive_chains(slots: list[ChainSlot]) -> tuple[int, ...]:
    """Label each position with its chain's head slot, using only pointers.
    Raises FormatError unless each link is NO_NEXT or a slot, no slot is
    linked to twice (so no walk loops) and every slot is reached from a head."""
    links = [s.next for s in slots if s.next != NO_NEXT]
    pointed_to = set(links)
    if len(pointed_to) < len(links) or not all(0 <= j < len(slots) for j in links):
        raise FormatError("chain links out of range or shared")
    labels = [-1] * len(slots)
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


class _ChainTable(Layout):
    """Shared behavior of the two chained layouts."""

    def __init__(self, slots: list[ChainSlot]):
        self.slots = slots

    def __len__(self) -> int:
        return len(self.slots)

    def records(self) -> list[list]:
        slots = self.slots  # keyword cells, row-id cells and links, by slot
        return [[s.kw_ct for s in slots], [s.id_ct for s in slots], [s.next for s in slots]]

    @classmethod
    def from_records(cls, domain_bits: int, columns: list[list]):
        slots = [ChainSlot(*fields) for fields in zip(*columns)]
        _derive_chains(slots)  # a file's links must form chains that cover the table
        return cls(slots)


class DetEseds(_ChainTable):
    """Deterministic layout: distinct value at slot prf(k, value, n)."""

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

    mode = MODE_OPE


class FhopeEseds(Layout):
    """Frequency-hiding order-preserving layout: one cell per occurrence,
    sorted, equal values in coin order."""

    mode = MODE_FHOPE

    def __init__(self, cells: list[bytes]):
        self.cells = cells

    def __len__(self) -> int:
        return len(self.cells)

    def records(self) -> list[list]:
        return [list(self.cells)]  # one column: the cells in sorted order

    @classmethod
    def from_records(cls, domain_bits: int, columns: list[list]) -> "FhopeEseds":
        return cls(*columns)


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


def build_det(key: SecretKey, plaintexts: list[int], domain_size: int) -> DetEseds:
    """n-slot table, one slot per occurrence: the first occurrence of each
    distinct value heads a chain at its PRF bucket (next free slot if a
    different value's chain already claimed it; the probe path is leakage
    this layout accepts), duplicates extend the chain.  Row ids are the
    occurrence index."""
    n = len(plaintexts)
    slots: list[ChainSlot | None] = [None] * n
    taken = [False] * n
    tail: dict[int, int] = {}  # value -> last slot of its chain
    for rid, m in enumerate(plaintexts):
        if m in tail:
            j = _occupy(taken, tail[m] + 1)
            slots[tail[m]].next = j
        else:
            j = _occupy(taken, prf(key, m, n))
        slots[j] = ChainSlot(
            bytes(encrypt(key, m, domain_size)), bytes(encrypt(key, rid, 1 << 64)), NO_NEXT
        )
        tail[m] = j
    return DetEseds(slots)


def build_ope(key: SecretKey, plaintexts: list[int], domain_size: int) -> OpeEseds:
    """Distinct values head chains at their sorted rank (indices 0..d-1);
    duplicate cells fill the remaining slots in value order."""
    n = len(plaintexts)
    counts = Counter(plaintexts)
    distinct = sorted(counts)
    slots: list[ChainSlot | None] = [None] * n
    next_free = len(distinct)
    rid = 0
    for rank, v in enumerate(distinct):
        j = rank
        slots[j] = ChainSlot(
            bytes(encrypt(key, v, domain_size)), bytes(encrypt(key, rid, 1 << 64)), NO_NEXT
        )
        rid += 1
        for _ in range(counts[v] - 1):
            slots[j].next = next_free
            j = next_free
            slots[j] = ChainSlot(
                bytes(encrypt(key, v, domain_size)), bytes(encrypt(key, rid, 1 << 64)), NO_NEXT
            )
            rid += 1
            next_free += 1
    return OpeEseds(slots)


def build_fhope(
    key: SecretKey, plaintexts: list[int], domain_size: int, coins: CoinSource | None = None
) -> FhopeEseds:
    """One cell per occurrence in sorted order; the order of equal values is
    decided by coin flips, so the decrypted sequence is sorted either way."""
    if coins is None:
        coins = CoinSource()
    value, order = plaintexts.__getitem__, []
    for _, run in groupby(sorted(range(len(plaintexts)), key=value), key=value):
        run = list(run)
        coins.shuffle(run)  # the order of equal values, drawn from the coins
        order += run
    cells = [bytes(encrypt(key, plaintexts[i], domain_size)) for i in order]
    out = FhopeEseds(cells)
    out.placement = order  # occurrence index per position, for tie tests
    return out


def bulk_store(key: SecretKey, values: list[int], dom: Domain, rng: random.Random) -> DenseStore:
    """Encrypted store holding the values in rotated sorted order."""
    ordered = sorted(values)
    cells = [encrypt(key, v, dom.size) for v in ordered]
    rot = rng.randrange(len(cells)) if cells else 0
    return DenseStore(cells[rot:] + cells[:rot])


def _unlinked(cells: list[bytes]) -> tuple[tuple[int, ...], list[bytes]]:
    """A row's result where a snapshot labels each position by itself."""
    return tuple(range(len(cells))), cells


def _chained(table: _ChainTable) -> tuple[tuple[int, ...], list[bytes]]:
    """A row's result where a position's label is its chain's head slot."""
    return _derive_chains(table.slots), [s.kw_ct for s in table.slots]


#: The lab's targets by name.  Each row takes (key, multiset, dom, rng),
#: builds the target over the multiset and returns (labels, cells): what a
#: snapshot shows, one class label per position, equal labels for cells a
#: snapshot shows to hold equal values, and the cell at each position.
#: Only main_eseds and fhope draw from rng.
#:
#: DET and OPE chain duplicates, so a position's label is its chain's head
#: slot; an OPE head sits at its value's rank, so ascending labels are the
#: value order.  FHOPE and the main store label each position by itself:
#: every cell is a fresh ciphertext.  A main store's order starts at a
#: uniformly random rotation, except that a decoupled store's sparse
#: indices show which cells came since its last re-spacing, because each
#: insert takes the midpoint of its gap.
TARGETS = {
    "main_eseds": lambda key, multiset, dom, rng: _unlinked(
        bulk_store(key, multiset, dom, rng).logical_cells()
    ),
    "fhope": lambda key, multiset, dom, rng: _unlinked(
        build_fhope(key, multiset, dom.size, coins=CoinSource(rng.getrandbits(64))).cells
    ),
    "ope": lambda key, multiset, dom, rng: _chained(build_ope(key, multiset, dom.size)),
    "det": lambda key, multiset, dom, rng: _chained(build_det(key, multiset, dom.size)),
}


def build_target(name: str, key: SecretKey, multiset: list[int], dom: Domain, rng: random.Random):
    """The named target's snapshot labels over the multiset, and its truth:
    the plaintext at each position, decrypted from the row's cells."""
    if name not in TARGETS:
        raise ValueError(f"unknown target {name!r}")
    labels, cells = TARGETS[name](key, multiset, dom, rng)
    return labels, [decrypt(key, cell) for cell in cells]


def load_any(source):
    """Load any store-family file: cell stores and legacy transform tables."""
    return load_file(source, {MODE_DET: DetEseds, MODE_OPE: OpeEseds, MODE_FHOPE: FhopeEseds})
