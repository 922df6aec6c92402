"""The server's view of each operation, simulated from its stated leakage.

The "Security boundary" of docs/protocol.md states the leakage L of each
operation on a store of distinct values, with w the index of the smallest
value: n, w and the positions of its answer.  That is

- search [a, b] with read-back: n, w, the number of values below a and the
  number of matches;
- top-k: n, w and k;
- insert of m: n, w and the slot it lands in, which the server reads in
  INSERT_AT anyway.

For each operation the simulator gets only L.  It builds a dense store of
the rank codes 3i + 2 (i < n) over a domain of 3n + 3, rotated so that
the smallest sits at index w, runs the real client on it over a
``RecordingSession``, and returns the request frames.
They must equal the frames the client sends to the real store, of either
layout.  INSERT_AT is compared by its slot and the length of its cell,
which is sealed under a fresh nonce.  An insert's bisection probes are a
function of its result, whatever its predicate, so the simulator inserts
whatever value lands in the given slot.  Small domains make a = Dec(C[0]),
b + 1 = Dec(C[0]) and an insert value already stored occur often, so each
run checks that they did.  Slot 0, which only a tie with C[0] reaches, has a
test of its own.
"""

from __future__ import annotations

import random

import pytest

from eseds.cipher import decrypt, encrypt
from eseds.core import (
    CoinSource,
    Domain,
    RangeQuery,
    in_cyclic_range,
    insert,
    read_values,
    search_range,
    top_k,
)
from eseds.store import DenseStore
from eseds.transport import INSERT_AT

from helpers import RecordingSession
from instancelib import direct_store, insert_all

INSTANCES = 40
SEARCHES = 8  # per instance, then two top-k and one insert


def _requests(log: list) -> list:
    """Request frames in order; an INSERT_AT as its header and slot, and its cell's length."""
    return [
        (frame[:13], len(frame) - 13) if frame[4] == INSERT_AT else frame
        for direction, frame in log
        if direction == "send"
    ]


def _slot(log: list) -> int:
    """The slot the last INSERT_AT request names: its u64 after the opcode."""
    return int.from_bytes(_requests(log)[-1][0][5:13], "big")


def _simulated(key, n: int, w: int):
    """Session over the rank codes 3i + 2 over 3n + 3, the smallest at index
    w, with its wire log, its domain and the code of C[0]."""
    dom = Domain(3 * n + 3)
    log: list = []
    cells = [encrypt(key, 3 * ((j - w) % n) + 2, dom.size) for j in range(n)]
    return RecordingSession(DenseStore(cells), log), log, dom, 3 * (-w % n) + 2


def simulate_search(key, n, w, below, matches) -> list:
    session, log, dom, _ = _simulated(key, n, w)
    # a sits just below the value of rank `below`; b sits at the bottom of
    # the gap under rank (below + matches) mod n.  Gap 0 runs from 3n
    # through 1, so its bottom is 3n.  When a and b share a gap, no match
    # puts a at or before b, and n matches put b before a.
    if matches == 0:
        a = b = 3 * (below % n or n)
    else:
        a, b = 3 * below + 1, 3 * ((below + matches) % n or n)
    read_values(key, session, search_range(key, session, RangeQuery(a, b), dom), dom)
    return _requests(log)


def simulate_top_k(key, n, w, k) -> list:
    session, log, dom, _ = _simulated(key, n, w)
    top_k(key, session, k, dom)
    return _requests(log)


class _TiesFirst:
    """Coins that put an inserted value before every cell equal to it."""

    def bit(self) -> int:
        return 0


def simulate_insert(key, n, w, slot) -> list:
    # reading starts at C[0] on distinct values, so slot l > 0 follows the
    # code at index l - 1 and takes that code plus 1, which lies in the gap
    # above it; slot 0 comes before C[0], which only a tie with C[0] reaches
    session, log, dom, head = _simulated(key, n, w)
    if slot == 0:
        insert(key, session, head, dom, coins=_TiesFirst())
    else:
        insert(key, session, 3 * ((slot - 1 - w) % n) + 3, dom)
    return _requests(log)


def _snapshot(key, store) -> tuple[list[int], int]:
    """The plaintexts in index order and the index of the smallest."""
    values = [decrypt(key, store.get_cell(j)) for j in range(len(store))]
    return values, values.index(min(values))


@pytest.mark.parametrize("domain_bits", [6, 8])
@pytest.mark.parametrize("layout", ["dense", "decoupled"])
def test_request_frames_equal_the_simulators(key, layout, domain_bits):
    dom = Domain.from_bits(domain_bits)
    rng = random.Random(f"leakage/{layout}/{domain_bits}")
    mismatches = []
    seen = {"a = Dec(C[0])": 0, "b + 1 = Dec(C[0])": 0, "no match": 0, "all match": 0, "tie": 0}
    for _ in range(INSTANCES):
        n = rng.randrange(1, 65)
        _, store = insert_all(key, rng.sample(range(dom.size), n), dom, rng.getrandbits(64), layout)
        if layout == "decoupled":
            store.rebalance()  # a full pass applies a fresh rotation
        log: list = []
        session = RecordingSession(store, log)

        for _ in range(SEARCHES):
            a, b = rng.randrange(dom.size), rng.randrange(dom.size)
            values, w = _snapshot(key, store)
            leak = (n, w, sum(v < a for v in values), sum(in_cyclic_range(v, a, b, dom) for v in values))
            seen["a = Dec(C[0])"] += a == values[0]
            seen["b + 1 = Dec(C[0])"] += (b + 1) % dom.size == values[0]
            seen["no match"] += leak[3] == 0
            seen["all match"] += leak[3] == n
            log.clear()
            read_values(key, session, search_range(key, session, RangeQuery(a, b), dom), dom)
            if _requests(log) != simulate_search(key, *leak):
                mismatches.append(("search", a, b, values))

        for k in (1, rng.randrange(1, n + 1)):
            values, w = _snapshot(key, store)
            log.clear()
            top_k(key, session, k, dom)
            if _requests(log) != simulate_top_k(key, n, w, k):
                mismatches.append(("top-k", k, values))

        values, w = _snapshot(key, store)
        m = rng.choice((rng.randrange(dom.size), rng.choice(values)))
        seen["tie"] += m in values  # the coins decide, and the simulator sees neither
        log.clear()
        insert(key, session, m, dom, coins=CoinSource(rng.getrandbits(64)))
        if _requests(log) != simulate_insert(key, n, w, _slot(log)):
            mismatches.append(("insert", m, values))

    assert mismatches == []
    assert all(seen.values()), seen


@pytest.mark.parametrize("layout", ["dense", "decoupled"])
def test_an_insert_before_c0_equals_the_simulators(key, layout):
    # a tie with C[0] whose coins put it first is the one way to slot 0
    dom = Domain.from_bits(6)
    rng = random.Random(f"leakage/slot0/{layout}")
    mismatches = []
    for n in range(1, 33):
        _, store = insert_all(key, rng.sample(range(dom.size), n), dom, rng.getrandbits(64), layout)
        if layout == "decoupled":
            store.rebalance()
        values, w = _snapshot(key, store)
        log: list = []
        session = RecordingSession(store, log)
        insert(key, session, values[0], dom, coins=_TiesFirst())
        if _slot(log) != 0 or _requests(log) != simulate_insert(key, n, w, 0):
            mismatches.append((n, values))
    assert mismatches == []


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
def test_top_k_frames_do_not_show_whether_c0_holds_the_domains_least_value(key, n):
    # the stores 0..n-1 and 1..n differ only in whether the smallest value is
    # the domain's least; at every rotation top-k must send the same frames
    dom = Domain(1 << 8)
    differ = []
    for w in range(n):
        for k in sorted({1, n}):
            frames = []
            for low in (0, 1):
                log: list = []
                session = RecordingSession(direct_store(key, [low + (j - w) % n for j in range(n)], dom), log)
                top_k(key, session, k, dom)
                frames.append(_requests(log))
            if frames != [simulate_top_k(key, n, w, k)] * 2:
                differ.append((w, k))
    assert differ == []
