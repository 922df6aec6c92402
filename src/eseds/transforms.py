"""Legacy encrypted layouts rebuilt as attack targets, and the lab's target table.

Three weaker schemes are reproduced in the same cell-array shape so the
attacks module can be pointed at any of them: deterministic encryption
(keyed-PRF bucket per distinct value, duplicates chained), deterministic
order-preserving placement (distinct values at their sorted rank), and
frequency-hiding order-preserving placement (one cell per occurrence,
sorted, ties in coin order).  Each build also records the true plaintext
per position, which stays in memory for scoring and is never serialized.

``store`` owns the file format of these layouts too: each layout here only
turns itself into record columns (``records()``) and back (``from_records``).

``TARGETS`` names the four structures the attack lab builds (the three
layouts and the main rotated store), ``build_target`` is the one place
that builds them and says which plaintext sits at each position, and
``leakage_view`` is all that a snapshot of any of them shows.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from .cipher import SecretKey, decrypt, encrypt, prf
from .core import CoinSource, Domain
from .store import MODE_DECOUPLED, MODE_DENSE, MODE_DET, MODE_FHOPE, MODE_OPE
from .store import DenseStore, FormatError, load_file, save_layout

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


class _ChainTable:
    """Shared behavior of the two chained layouts."""

    mode: int
    domain_bits = 0  # no sparse indices in a transform file

    def __init__(self, slots: list[ChainSlot], cell_values: list[int] | None):
        self.slots = slots
        self.cell_values = cell_values  # in-memory truth for scoring; never saved

    def __len__(self) -> int:
        return len(self.slots)

    def records(self) -> list[list]:
        slots = self.slots  # keyword cells, row-id cells and links, by slot
        return [[s.kw_ct for s in slots], [s.id_ct for s in slots], [s.next for s in slots]]

    @classmethod
    def from_records(cls, domain_bits: int, columns: list[list]):
        slots = [ChainSlot(*fields) for fields in zip(*columns)]
        _derive_chains(slots)  # a file's links must form chains that cover the table
        return cls(slots, None)

    save = save_layout

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.slots == other.slots


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


class FhopeEseds:
    """Frequency-hiding order-preserving layout: one cell per occurrence,
    sorted, equal values in coin order."""

    mode = MODE_FHOPE
    domain_bits = 0

    def __init__(self, cells: list[bytes], cell_values: list[int] | None):
        self.cells = cells
        self.cell_values = cell_values

    def __len__(self) -> int:
        return len(self.cells)

    def records(self) -> list[list]:
        return [list(self.cells)]  # one column: the cells in sorted order

    @classmethod
    def from_records(cls, domain_bits: int, columns: list[list]) -> "FhopeEseds":
        return cls(*columns, None)

    save = save_layout

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
            bytes(encrypt(key, m, domain_size)), bytes(encrypt(key, rid, 1 << 64)), NO_NEXT
        )
        values[j] = m
        tail[m] = j
    return DetEseds(slots, values)


def build_ope(key: SecretKey, plaintexts: list[int], domain_size: int) -> OpeEseds:
    """Distinct values head chains at their sorted rank (indices 0..d-1);
    duplicate cells fill the remaining slots in value order."""
    n = len(plaintexts)
    counts = Counter(plaintexts)
    distinct = sorted(counts)
    slots: list[ChainSlot | None] = [None] * n
    values: list[int | None] = [None] * n
    next_free = len(distinct)
    rid = 0
    for rank, v in enumerate(distinct):
        j = rank
        slots[j] = ChainSlot(
            bytes(encrypt(key, v, domain_size)), bytes(encrypt(key, rid, 1 << 64)), NO_NEXT
        )
        values[j] = v
        rid += 1
        for _ in range(counts[v] - 1):
            slots[j].next = next_free
            j = next_free
            slots[j] = ChainSlot(
                bytes(encrypt(key, v, domain_size)), bytes(encrypt(key, rid, 1 << 64)), NO_NEXT
            )
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
    cells = [bytes(encrypt(key, plaintexts[i], domain_size)) for i in order]
    values = [plaintexts[i] for i in order]
    out = FhopeEseds(cells, values)
    out.placement = order  # occurrence index per position, for tie tests
    return out


def bulk_store(key: SecretKey, values: list[int], dom: Domain, rng: random.Random) -> DenseStore:
    """Encrypted store holding the values in rotated sorted order."""
    ordered = sorted(values)
    cells = [encrypt(key, v, dom.size) for v in ordered]
    rot = rng.randrange(len(cells)) if cells else 0
    return DenseStore(cells[rot:] + cells[:rot])


TARGETS = ("main_eseds", "fhope", "ope", "det")


def build_target(name: str, key: SecretKey, multiset: list[int], dom: Domain, rng: random.Random):
    """Build the named target over the multiset and return it with its truth,
    the plaintext at each position.  Only main_eseds and fhope draw from rng."""
    if name == "main_eseds":
        store = bulk_store(key, multiset, dom, rng)
        return store, [decrypt(key, cell) for cell in store.logical_cells()]
    if name == "fhope":
        target = build_fhope(key, multiset, dom.size, coins=CoinSource(rng.getrandbits(64)))
    elif name == "ope":
        target = build_ope(key, multiset, dom.size)
    elif name == "det":
        target = build_det(key, multiset, dom.size)
    else:
        raise ValueError(f"unknown target {name!r}")
    return target, list(target.cell_values)


def leakage_view(target) -> tuple[int, ...]:
    """What a snapshot shows: one class label per position, equal labels
    for cells a snapshot shows to hold equal values.

    DET and OPE chain duplicates, so a position's label is its chain's head
    slot; an OPE head sits at its value's rank, so ascending labels are the
    value order.  FHOPE and the main stores label each position by itself:
    every cell is a fresh ciphertext.  A main store's order starts at a
    uniformly random rotation, except that a decoupled store's sparse
    indices show which cells came since its last re-spacing, because each
    insert takes the midpoint of its gap."""
    if isinstance(target, _ChainTable):
        return _derive_chains(target.slots)
    if isinstance(target, FhopeEseds) or getattr(target, "mode", None) in (MODE_DENSE, MODE_DECOUPLED):
        return tuple(range(len(target)))
    raise TypeError(f"no leakage view for {type(target).__name__}")


def load_any(source):
    """Load any store-family file: cell stores and legacy transform tables."""
    return load_file(source, {MODE_DET: DetEseds, MODE_OPE: OpeEseds, MODE_FHOPE: FhopeEseds})
