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
#: cells), recorded with insert bisecting in _frame's reading frame, so
#: every insert reads C[0] and C[n-1] first and an insert into a deeply
#: wrapped store reads it whole before its bisection; a change that keeps
#: the traffic keeps these
PINNED = {
    "distinct-dense": (
        "b9f7a9c55451435e384dd981e4ea054a0db51649e252bdeec8a33d2c637ce66d",
        "d2d9181632e730ed152662f6c6831f9fff3486f7da1cb6b788ec4a5726f76c09",
        581,
        682,
    ),
    "zipf-dense": (
        "4fd3ff5cd99c4a80add48aec74ff60725ab9979162665ce75971ba7e19e9b5c5",
        "48a93e1774cea7490811d135d319a0900ab67ab526e316fdcf716111118f699a",
        7742,
        13237,
    ),
    "decoupled": (
        "a3a1e2009778e39bcb0d8f0336702e73b694e83facf609dd99cd104164d16117",
        "0fe305ce9931b5a469fb713a0a759c52cfbf73b31f7b1eeff2bf5a1fe9d81e3c",
        580,
        667,
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
