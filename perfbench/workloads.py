"""The benchmark's workloads: what each one stores and the operation mix it runs.

Every workload is a single-process closed loop with one client: the next
operation is sent only when the previous one has returned.  Values, queries,
the client's ``CoinSource`` and the store's rotation randomness all derive
from the seed, so fetch, round-trip and byte counts repeat exactly.
README.md in this directory explains why each workload exists and which
metrics it should move.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # values in the store at set-up
    domain: int  # plaintext domain size
    mix: dict  # operation kind -> operations of that kind per block of the stream
    span: int  # width of a range query, in plaintext values
    zipf: bool = False  # Zipf(s = 1) values instead of distinct ones
    tcp: bool = False  # serve from a child process over loopback TCP
    decoupled: bool = False  # DecoupledStore instead of DenseStore
    read_back: bool = True  # fetch the matching cells after a search
    round_ops: int = 0  # mix operations per fresh-store round (0: one round per run)
    trace_blocks: int = 1  # mix blocks in each phase of a traced run


TOP_K = 100
REBALANCE_BATCH = 64  # entries per rebalance hint
SETUPS = 7  # set-ups per run; setup_s is their median
DOMAIN_32 = 1 << 32
# about 90 matches per search over 10^5 distinct values in a 2^32 domain
SPAN_90 = 4_000_000

WORKLOADS = {
    w.name: w
    for w in (
        # every probe and read-back cell is a loopback round trip
        Workload("read-tcp", n=100_000, domain=DOMAIN_32, span=SPAN_90, tcp=True,
                 mix={"search": 39, "topk": 10, "insert": 1}, trace_blocks=6),
        # DenseStore.insert_at dominates, with no network
        Workload("write-dense", n=100_000, domain=DOMAIN_32, span=SPAN_90,
                 mix={"insert": 9, "search": 9, "topk": 2}, trace_blocks=10),
        # duplicate-heavy: the boundary run wraps, so core falls back to scans
        Workload("dupes-dense", n=10_000, domain=64, span=3, zipf=True, read_back=False,
                 mix={"search": 18, "insert": 6, "topk": 1}),
        # batched rebalance hints interleaved with inserts and searches
        Workload("rebalance-decoupled", n=20_000, domain=DOMAIN_32, span=DOMAIN_32 // 20_000 * 90,
                 decoupled=True, mix={"search": 7, "insert": 3, "rebalance": 10},
                 round_ops=80, trace_blocks=4),
    )
}
