"""Random operation sequences against models of the client and the server.

StoreModel runs the client protocols over LocalSession against a sorted
plaintext model.  Small domains (2 to 16 values) make duplicate runs that
wrap past the end of the cell array, and an 8-bit decoupled index space
makes full gaps, and so whole-store re-spacings, common.

ServerModel sends valid and invalid requests straight to StoreServer.handle
and keeps the logical cell list a request should leave behind.
"""

import io
import random
import struct

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from eseds.cipher import keygen
from eseds.core import CoinSource, Domain, RangeQuery, insert, read_values, search_range, top_k
from eseds.store import MODE_DECOUPLED, DecoupledStore, DenseStore, load
from eseds.transport import (
    E_BAD_REQUEST,
    E_NO_SAVE_PATH,
    E_OUT_OF_RANGE,
    E_WRONG_MODE,
    Cells,
    ErrorMsg,
    GetRange,
    InsertAt,
    Len,
    Length,
    LocalSession,
    Ok,
    RebalanceHint,
    Save,
    StoreServer,
)

from helpers import in_cyclic, is_rotation_of_sorted
from instancelib import decrypt_all

KEY = keygen()


class StoreModel(RuleBasedStateMachine):
    @initialize(
        decoupled=st.booleans(),
        size=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def open_store(self, decoupled, size, seed):
        self.rng = random.Random(seed)
        self.coins = CoinSource(seed)
        self.dom = Domain(size)
        self.model: list[int] = []
        if decoupled:
            store = DecoupledStore(index_bits=8, rng=self.rng)
        else:
            store = DenseStore(rng=self.rng)
        self.session = LocalSession(store)

    @rule(m=st.integers(0, 15))
    def insert(self, m):
        m %= self.dom.size
        insert(KEY, self.session, m, self.dom, self.coins)
        self.model.append(m)

    @rule(a=st.integers(0, 15), b=st.integers(0, 15))
    def search(self, a, b):
        a, b = a % self.dom.size, b % self.dom.size
        result = search_range(KEY, self.session, RangeQuery(a, b), self.dom)
        got = sorted(v for _, v in read_values(KEY, self.session, result, self.dom))
        assert got == sorted(v for v in self.model if in_cyclic(v, a, b, self.dom.size))

    @precondition(lambda self: self.model)
    @rule(k=st.integers(1, 64))
    def top_k(self, k):
        k = 1 + (k - 1) % len(self.model)
        assert top_k(KEY, self.session, k, self.dom) == sorted(self.model)[:k]

    @precondition(lambda self: self.session.store.mode == MODE_DECOUPLED)
    @rule(batch=st.integers(0, 4))
    def rebalance(self, batch):
        self.session.rebalance(batch)

    @rule()
    def save_and_load(self):
        buf = io.BytesIO()
        self.session.store.save(buf)
        loaded = load(io.BytesIO(buf.getvalue()))
        loaded._rng = self.rng  # load takes no rng; keep the run reproducible
        assert loaded.logical_cells() == self.session.store.logical_cells()
        self.session = LocalSession(loaded)

    @invariant()
    def layout_is_rotation_of_sorted(self):
        values = decrypt_all(KEY, self.session.store)
        assert sorted(values) == sorted(self.model)
        assert is_rotation_of_sorted(values)


StoreModel.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
test_store_model = StoreModel.TestCase


class ServerModel(RuleBasedStateMachine):
    """Every ErrorMsg leaves the cells as they were; an accepted INSERT_AT
    splices its cell in at l (up to rotation on a dense store, which
    re-rotates on every insert); LENGTH always answers the model's size."""

    @initialize(
        decoupled=st.booleans(),
        n=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def open_store(self, decoupled, n, seed):
        rng = random.Random(seed)
        cells = [struct.pack(">Q", i) for i in range(n)]
        if decoupled:
            store = DecoupledStore(index_bits=8, rng=rng)
            for cell in cells:
                store.insert_at(len(store), cell)
        else:
            store = DenseStore(cells, rng=rng)
        self.server = StoreServer(store)
        self.model = list(cells)
        self.width = 8
        self.fresh = n  # every cell is distinct, so a splice shows where it landed

    def _rotation_of(self, want):
        """The store's cells, which must be a rotation of ``want``."""
        got = self.server.store.logical_cells()
        assert any(got == want[s:] + want[:s] for s in range(max(1, len(want)))), (got, want)
        return got

    def handle(self, msg):
        """The server's answer; an error must leave the cells unchanged."""
        resp = self.server.handle(msg)
        if isinstance(resp, ErrorMsg):
            assert self.server.store.logical_cells() == self.model, msg
        return resp

    @rule(start=st.integers(0, 8), count=st.integers(0, 8))
    def get_range(self, start, count):
        n = len(self.model)
        resp = self.handle(GetRange(start, count))
        if start < n and 1 <= count <= n:
            ring = self.model[start:] + self.model[:start]
            assert resp == Cells(self.width, b"".join(ring[:count]))
        else:
            assert resp.code == E_OUT_OF_RANGE

    @rule(l=st.integers(0, 8), width=st.sampled_from(["same", "shorter", "longer", "empty"]))
    def insert_at(self, l, width):
        self.fresh += 1
        size = {"same": self.width, "shorter": self.width - 1, "longer": self.width + 1, "empty": 0}[width]
        raw = struct.pack(">Q", self.fresh).rjust(size, b"\xff")
        cell = raw[len(raw) - size :]
        n = len(self.model)
        resp = self.handle(InsertAt(l, cell))
        if not cell or (n and len(cell) != self.width):
            assert resp.code == E_BAD_REQUEST
        elif l > n:
            assert resp.code == E_OUT_OF_RANGE
        else:
            assert resp == Ok()
            want = self.model[:l] + [cell] + self.model[l:]
            if self.server.store.mode == MODE_DECOUPLED:
                assert self.server.store.logical_cells() == want
            self.model, self.width = self._rotation_of(want), len(cell)

    @rule(batch=st.integers(0, 3))
    def rebalance_hint(self, batch):
        resp = self.handle(RebalanceHint(batch))
        if self.server.store.mode == MODE_DECOUPLED:
            assert isinstance(resp, Ok)
            # a completed pass applies a fresh rotation
            self.model = self._rotation_of(self.model)
        else:
            assert resp.code == E_WRONG_MODE

    @rule()
    def save_without_a_path(self):
        assert self.handle(Save()).code == E_NO_SAVE_PATH

    @rule(msg=st.sampled_from([Cells(8, bytes(8)), Ok(), Ok(b"\x01"), Len(3), ErrorMsg(1, "x")]))
    def response_as_request(self, msg):
        assert self.handle(msg).code == E_BAD_REQUEST

    @invariant()
    def length_is_the_model_size(self):
        assert self.server.handle(Length()) == Len(len(self.model))


ServerModel.TestCase.settings = settings(
    max_examples=150,
    stateful_step_count=30,
    deadline=None,
    derandomize=True,
)
test_server_model = ServerModel.TestCase
