"""Synthetic benchmarks over an embedded in-memory store.

Stores are bulk-built (encrypt sorted values, apply one random rotation)
so setup stays out of the timed path, and plaintexts are sampled without
replacement, so every search stays off the deep-wrap path, where a search
reads every cell.
Timings report mean and 95% confidence interval over the post-warmup
repetitions; round-trip counts come from the session counters and are
seed-reproducible even though wall-clock times are not.  A plaintext
baseline (sorted list + binary search) runs the same workload for scale.
"""

from __future__ import annotations

import csv
import random
import statistics
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from ..cipher import keygen
from ..core import Domain, RangeQuery, read_values, search_range, top_k
from ..transforms import bulk_store
from ..transport import LocalSession


def _domain_size(n: int) -> int:
    """Plaintext domain of an n-value bench store: room for n distinct samples."""
    return max(8 * n, 16)


@dataclass(frozen=True)
class BenchConfig:
    db_sizes: list[int] = field(default_factory=lambda: [10_000])
    range_sizes: list[int] = field(default_factory=lambda: [10])
    k_values: list[int] = field(default_factory=lambda: [10])
    repeats: int = 30
    warmup: int = 10
    seed: int | None = None

    def __post_init__(self):
        if not 0 <= self.warmup < self.repeats:
            raise ValueError("need repeats > warmup >= 0")
        if any(n <= 0 for n in self.db_sizes + self.range_sizes + self.k_values):
            raise ValueError("sizes must be positive")
        for n in self.db_sizes:
            if max(self.range_sizes, default=0) >= _domain_size(n):
                raise ValueError(
                    f"--range-sizes must stay below {_domain_size(n)}, the domain of db size {n}"
                )


@dataclass(frozen=True)
class BenchRow:
    kind: str  # "search" or "topk"
    n: int
    param: int  # range size or k
    mean_ms: float
    ci95_ms: float
    round_trips: float  # mean requests sent per operation
    baseline_ms: float  # same workload on a sorted plaintext list


@dataclass(frozen=True)
class BenchReport:
    rows: list[BenchRow]

    def table(self) -> str:
        header = f"{'kind':8} {'n':>9} {'param':>6} {'mean_ms':>10} {'ci95_ms':>9} {'trips':>7} {'plain_ms':>10}"
        lines = [header]
        for r in self.rows:
            lines.append(
                f"{r.kind:8} {r.n:>9} {r.param:>6} {r.mean_ms:>10.4f} "
                f"{r.ci95_ms:>9.4f} {r.round_trips:>7.1f} {r.baseline_ms:>10.4f}"
            )
        return "\n".join(lines)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["kind", "n", "param", "mean_ms", "ci95_ms", "round_trips", "baseline_ms"])
            for r in self.rows:
                out.writerow([r.kind, r.n, r.param, r.mean_ms, r.ci95_ms, r.round_trips, r.baseline_ms])


def _mean_ci(samples: list[float]) -> tuple[float, float]:
    from scipy import stats as scipy_stats  # here, so that importing the CLI stays cheap

    mean = statistics.fmean(samples)
    if len(samples) < 2:
        return mean, 0.0
    sem = statistics.stdev(samples) / len(samples) ** 0.5
    return mean, float(scipy_stats.t.ppf(0.975, len(samples) - 1)) * sem


def _timed(session: LocalSession, run, plain_run, args: list, warmup: int) -> tuple[float, float, float, float]:
    """Time ``run(arg)`` and count its round trips for each arg, then time
    ``plain_run(arg)``; return a BenchRow's mean, CI, trips and baseline
    over the args after the first ``warmup``."""
    times, trips = [], []
    for arg in args:
        before = session.stats.requests_sent
        t0 = time.perf_counter()
        run(arg)
        times.append((time.perf_counter() - t0) * 1000.0)
        trips.append(session.stats.requests_sent - before)
    base = []
    for arg in args:
        t0 = time.perf_counter()
        plain_run(arg)
        base.append((time.perf_counter() - t0) * 1000.0)
    kept = slice(warmup, None)
    return (*_mean_ci(times[kept]), statistics.fmean(trips[kept]), statistics.fmean(base[kept]))


def run_bench(cfg: BenchConfig) -> BenchReport:
    rng = random.Random(cfg.seed)
    rows: list[BenchRow] = []
    for n in cfg.db_sizes:
        dom = Domain(_domain_size(n))
        key = keygen()
        values = rng.sample(range(dom.size), n)
        store = bulk_store(key, values, dom, random.Random(rng.getrandbits(64)))
        session = LocalSession(store)
        plain = sorted(values)

        def search(q):
            read_values(key, session, search_range(key, session, q, dom), dom)

        def plain_search(q):
            plain[bisect_left(plain, q.a): bisect_right(plain, q.b)]

        for span in cfg.range_sizes:
            queries = []
            for _ in range(cfg.repeats):
                a = rng.randrange(dom.size - span)
                queries.append(RangeQuery(a, a + span - 1))
            rows.append(BenchRow("search", n, span, *_timed(session, search, plain_search, queries, cfg.warmup)))

        for k in cfg.k_values:
            if k <= n:
                timed = _timed(
                    session, lambda k: top_k(key, session, k, dom), lambda k: plain[:k], [k] * cfg.repeats, cfg.warmup
                )
                rows.append(BenchRow("topk", n, k, *timed))
    return BenchReport(rows)
