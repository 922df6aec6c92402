"""Each operation's generator of requests, answered with no store and no session.

``core`` runs every operation as a generator that yields one request per
frame and is sent back the reply's payload.  Here a plain list of cells
answers it: a GetRange with the cells read cyclically, a Length with the
list's length and an InsertAt by inserting into the list.  The requests it
yields, once encoded, must equal the frames the same operation sends over
a ``RecordingSession`` to a dense store holding the same cells,
and it must return the same answer.  Every operation starts from the same
store: one of distinct values, and one deeply wrapped.  An INSERT_AT is
compared by its header and slot and by the length of its cell, which is
sealed under a fresh nonce.
"""

from __future__ import annotations

import random

import pytest

from eseds import core
from eseds.cipher import encrypt
from eseds.core import CoinSource, Domain, RangeQuery
from eseds.store import DenseStore
from eseds.transport import INSERT_AT, GetRange, InsertAt, Length, encode

from helpers import RecordingSession

N = 300
OPS = 40


def _frame(frame: bytes):
    """A request frame; an INSERT_AT as its header and slot, and its cell's length."""
    return (frame[:13], len(frame) - 13) if frame[4] == INSERT_AT else frame


def _answer(op, cells: list[bytes]):
    """Run the request generator ``op`` against ``cells``: its request
    frames and what it returns."""
    sent, payload = [], None
    while True:
        try:
            msg = op.send(payload)
        except StopIteration as stop:
            return sent, stop.value
        sent.append(_frame(encode(msg)))
        if type(msg) is GetRange:
            payload = b"".join(cells[(msg.start + i) % len(cells)] for i in range(msg.count))
        elif type(msg) is Length:
            payload = len(cells)
        else:
            assert type(msg) is InsertAt
            cells.insert(msg.l, msg.cell)
            payload = None


def _cells(kind: str, key, rng: random.Random) -> tuple[list[bytes], Domain]:
    if kind == "distinct":
        dom = Domain(1 << 16)
        values, rot = sorted(rng.sample(range(dom.size), N)), rng.randrange(N)
    else:
        # Zipf over 8 values, rotated into the run of 0s, so that it wraps
        # past both ends of the array: a deep wrap
        dom = Domain(8)
        values = sorted(rng.choices(range(8), [1 / (v + 1) for v in range(8)], k=N))
        rot = values.count(0) // 2
        assert values[rot] == values[rot + 1] == values[rot - 1] == 0
    cells = [encrypt(key, v, dom.size) for v in values]
    return cells[rot:] + cells[:rot], dom


@pytest.mark.parametrize("kind", ["distinct", "deep-wrap"])
def test_generators_answered_from_a_list_send_the_sessions_frames(kind, key, monkeypatch):
    monkeypatch.setattr(core, "READ_RUN", 64)  # a deep-wrap read takes several requests
    rng = random.Random(f"sans-io/{kind}")
    cells, dom = _cells(kind, key, rng)
    kinds = set()
    for i in range(OPS):
        log: list = []
        session = RecordingSession(DenseStore(list(cells)), log)
        op = rng.choice(("search", "topk", "insert"))
        seed = f"sans-io/{kind}/{i}"
        if op == "search":
            a = rng.randrange(dom.size)
            q = RangeQuery(a, (a + rng.randrange(dom.size)) % dom.size)
            result = core.search_range(key, session, q, dom)
            want = result, core.read_values(key, session, result, dom)
            sent, got = _answer(core._search_range(key, q, dom), list(cells))
            more, pairs = _answer(core._read_values(key, got, dom), list(cells))
            sent, got = sent + more, (got, pairs)
        elif op == "topk":
            k = rng.randrange(1, len(cells) + 1)
            want = core.top_k(key, session, k, dom)
            sent, got = _answer(core._top_k(key, k, dom), list(cells))
        else:
            m = rng.randrange(dom.size)
            want = core.insert(key, session, m, dom, CoinSource(seed))
            sent, got = _answer(core._insert(key, m, dom, CoinSource(seed)), list(cells))
        assert sent == [_frame(frame) for direction, frame in log if direction == "send"], (op, i)
        assert got == want, (op, i)
        kinds.add(op)
    assert kinds == {"search", "topk", "insert"}
