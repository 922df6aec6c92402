"""Random operation sequences over LocalSession against a sorted plaintext model.

Small domains (2 to 16 values) make duplicate runs that wrap past the end of
the cell array, and an 8-bit decoupled index space makes midpoint collisions
and local rebalances common.
"""

import io
import random

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from eseds.cipher import keygen
from eseds.core import CoinSource, Domain, RangeQuery, insert, read_values, search_range, top_k
from eseds.store import MODE_DECOUPLED, DecoupledStore, DenseStore, load
from eseds.transport import LocalSession

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
