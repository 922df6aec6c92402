"""Shared builders for protocol-level test instances.

Unlike helpers.py (independent oracles), these call the package's own
insert path on purpose: they produce the structures under test.
"""

from __future__ import annotations

import random

from eseds.cipher import SecretKey, decrypt, encrypt
from eseds.core import CoinSource, Domain, insert
from eseds.store import DecoupledStore, DenseStore
from eseds.transport import LocalSession


def direct_store(key: SecretKey, values: list[int], dom: Domain) -> DenseStore:
    """Store whose cells decrypt to exactly these values in index order."""
    return DenseStore([encrypt(key, v, dom.size) for v in values])


def direct_session(key: SecretKey, values: list[int], dom: Domain) -> LocalSession:
    return LocalSession(direct_store(key, values, dom))


def decrypt_all(key: SecretKey, store) -> list[int]:
    return [decrypt(key, store.get_cell(j)) for j in range(len(store))]


def insert_all(
    key: SecretKey,
    values: list[int],
    dom: Domain,
    seed: int,
    mode: str = "dense",
    index_bits: int = 64,
) -> tuple[LocalSession, object]:
    """Build a store through the real insert protocol, fully seeded."""
    rng = random.Random(seed)
    if mode == "dense":
        store = DenseStore(rng=random.Random(rng.getrandbits(64)))
    else:
        store = DecoupledStore(index_bits=index_bits, rng=random.Random(rng.getrandbits(64)))
    session = LocalSession(store)
    coins = CoinSource(rng.getrandbits(64))
    for v in values:
        insert(key, session, v, dom, coins=coins)
    return session, store


def random_instance(seed: int, key: SecretKey, mode: str = "dense"):
    """Seeded random (values, domain, session, store) tuple; N <= 16, n <= 64."""
    rng = random.Random(seed)
    domain_size = rng.randrange(2, 17)
    n = rng.randrange(1, 65)
    values = [rng.randrange(domain_size) for _ in range(n)]
    dom = Domain(domain_size)
    session, store = insert_all(key, values, dom, rng.getrandbits(64), mode=mode)
    return values, dom, session, store
