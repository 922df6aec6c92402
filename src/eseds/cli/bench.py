"""Synthetic benchmarks over an embedded in-memory store.

Stores are bulk-built (encrypt sorted values, apply one random rotation)
so setup stays out of the timed path, and plaintexts are sampled without
replacement so searches never hit the duplicate-heavy scan fallbacks.
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

from ..cipher import SecretKey, encrypt, keygen
from ..core import Domain, RangeQuery, read_values, search_range, top_k
from ..store import DenseStore
from ..transport import LocalSession


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


def bulk_store(key: SecretKey, values: list[int], dom: Domain, rng: random.Random) -> DenseStore:
    """Encrypted store holding the values in rotated sorted order."""
    ordered = sorted(values)
    cells = [encrypt(key, v, dom.size) for v in ordered]
    rot = rng.randrange(len(cells)) if cells else 0
    return DenseStore(cells[rot:] + cells[:rot])


def _mean_ci(samples: list[float]) -> tuple[float, float]:
    from scipy import stats as scipy_stats  # here, so that importing the CLI stays cheap

    mean = statistics.fmean(samples)
    if len(samples) < 2:
        return mean, 0.0
    sem = statistics.stdev(samples) / len(samples) ** 0.5
    return mean, float(scipy_stats.t.ppf(0.975, len(samples) - 1)) * sem


def run_bench(cfg: BenchConfig) -> BenchReport:
    rng = random.Random(cfg.seed)
    rows: list[BenchRow] = []
    for n in cfg.db_sizes:
        dom = Domain(max(8 * n, 16))
        key = keygen()
        values = rng.sample(range(dom.size), n)
        store = bulk_store(key, values, dom, random.Random(rng.getrandbits(64)))
        session = LocalSession(store)
        plain = sorted(values)

        for span in cfg.range_sizes:
            queries = []
            for _ in range(cfg.repeats):
                a = rng.randrange(dom.size - span)
                queries.append(RangeQuery(a, a + span - 1))
            times, trips = [], []
            for q in queries:
                before = session.stats.requests_sent
                t0 = time.perf_counter()
                result = search_range(key, session, q, dom)
                read_values(key, session, result, dom)
                times.append((time.perf_counter() - t0) * 1000.0)
                trips.append(session.stats.requests_sent - before)
            base = []
            for q in queries:
                t0 = time.perf_counter()
                plain[bisect_left(plain, q.a): bisect_right(plain, q.b)]
                base.append((time.perf_counter() - t0) * 1000.0)
            kept = slice(cfg.warmup, None)
            mean, ci = _mean_ci(times[kept])
            rows.append(
                BenchRow(
                    "search", n, span, mean, ci,
                    statistics.fmean(trips[kept]), statistics.fmean(base[kept]),
                )
            )

        for k in cfg.k_values:
            if k > n:
                continue
            times, trips = [], []
            for _ in range(cfg.repeats):
                before = session.stats.requests_sent
                t0 = time.perf_counter()
                top_k(key, session, k, dom)
                times.append((time.perf_counter() - t0) * 1000.0)
                trips.append(session.stats.requests_sent - before)
            base = []
            for _ in range(cfg.repeats):
                t0 = time.perf_counter()
                plain[:k]
                base.append((time.perf_counter() - t0) * 1000.0)
            kept = slice(cfg.warmup, None)
            mean, ci = _mean_ci(times[kept])
            rows.append(
                BenchRow(
                    "topk", n, k, mean, ci,
                    statistics.fmean(trips[kept]), statistics.fmean(base[kept]),
                )
            )
    return BenchReport(rows)
