"""The traffic of a seeded operation mix, pinned request frame for request frame.

Each store below is driven by one seeded mix of search with read-back, top-k
and insert over ``LocalSession(wire_log=...)``.  Every request frame the
client sends is hashed in order; an INSERT_AT frame is reduced to its header
and slot, because the cell it carries is sealed under a fresh nonce.  The
per-operation request and cell counts are hashed alongside.  Responses carry
cells and are not pinned.  A change to the codec, the sessions, the server
or the store that leaves these digests alone sends the server exactly the
same requests: the same probed indices, in the same order.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from eseds import core, transport
from eseds.cipher import encrypt
from eseds.core import CoinSource, Domain, RangeQuery
from eseds.store import DecoupledStore, DenseStore

N = 300
OPS = 40
TOP_K = 5
#: small read runs, so a deep-wrap read of the whole store takes several
#: GET_RANGE requests
READ_RUN = 64

#: (sha256 of the request frames, sha256 of the per-op counts, requests,
#: cells), recorded before the codec, server dispatch and sessions were made
#: cheaper per request; a change that keeps the traffic keeps these
PINNED = {
    "distinct-dense": (
        "426ec4cafc3c8b484a7a381e6752e1e68313eaeead55d0c8678c54173c7a1c52",
        "d08a5031913e46017ab9dc51f4d401799dceac7ebcc8d9441dfe2bea58c0001b",
        575,
        676,
    ),
    "zipf-dense": (
        "bb0784df8a6b9ee0edf6fbadc155132b634d72a493848f907ad96dda409d85ea",
        "a73ff42267e90855922976d28b0b1bf1e9120e0b88875e6fde51c1ce8665d055",
        7748,
        12354,
    ),
    "decoupled": (
        "537bb82c43b08099e24bdc4061e1890dd463d6d5c45b0af3402d2e445aa037c8",
        "7904aa8764c777ac4f8af1a8f674d1fef7e30ec27bdbcc154c9ee846538a5100",
        574,
        661,
    ),
}


def _values(kind: str, rng: random.Random) -> tuple[list[int], Domain]:
    if kind == "zipf-dense":
        dom = Domain(8)
        return sorted(rng.choices(range(8), [1 / (v + 1) for v in range(8)], k=N)), dom
    dom = Domain(1 << 16)
    return sorted(rng.sample(range(dom.size), N)), dom


def _store(kind: str, key, values: list[int], dom: Domain, rng: random.Random):
    cells = [bytes(encrypt(key, v, dom.size)) for v in values]
    if kind == "decoupled":
        store = DecoupledStore(index_bits=64, rng=rng)
        for l, cell in enumerate(cells):
            store.insert_at(l, cell)
        store.rebalance()  # equal gaps and a seeded rotation
        return store
    if kind == "zipf-dense":
        # start inside the run of 0s, so it wraps past both ends: a deep wrap
        rot = values.count(0) // 2
    else:
        rot = rng.randrange(N)
    return DenseStore(cells[rot:] + cells[:rot], rng=rng)


def _traffic(kind: str, key) -> tuple[str, str, int, int]:
    rng = random.Random(f"traffic/{kind}")
    values, dom = _values(kind, rng)
    log: list = []
    session = transport.LocalSession(_store(kind, key, values, dom, rng), wire_log=log)
    coins = CoinSource(f"traffic/{kind}/coins")
    stats = session.stats
    counts = []
    for _ in range(OPS):
        op = rng.choice(("search", "search", "topk", "insert"))
        before = (stats.requests_sent, stats.cells_fetched)
        if op == "search":
            a = rng.randrange(dom.size)
            res = core.search_range(key, session, RangeQuery(a, (a + dom.size // 50) % dom.size), dom)
            core.read_values(key, session, res, dom)
        elif op == "topk":
            core.top_k(key, session, TOP_K, dom)
        else:
            core.insert(key, session, rng.randrange(dom.size), dom, coins)
        counts.append((op, stats.requests_sent - before[0], stats.cells_fetched - before[1]))
    frames = hashlib.sha256()
    for direction, frame in log:
        if direction == "send":
            frames.update(frame[:13] if frame[4] == transport.INSERT_AT else frame)
    per_op = hashlib.sha256(json.dumps(counts).encode()).hexdigest()
    return frames.hexdigest(), per_op, stats.requests_sent, stats.cells_fetched


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_request_frames_and_counts_are_pinned(kind, key, monkeypatch):
    monkeypatch.setattr(core, "READ_RUN", READ_RUN)
    assert _traffic(kind, key) == PINNED[kind]
