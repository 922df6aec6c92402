"""Attack lab driver: build a target over synthetic data, attack it with
perfect background knowledge (the plaintext multiset itself), score per
cell against the true layout.

The reported baseline is the best blind strategy, guessing the most
frequent plaintext everywhere: max_m count(m) / n.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..attacks import (
    AttackError,
    Cdf,
    Histogram,
    bucketing_attack,
    cumulative_attack,
    frequency_analysis,
    lp_optimization,
    score,
    sorting_attack,
)
from ..cipher import SecretKey, decrypt
from ..core import CoinSource, Domain
from ..transforms import build_det, build_fhope, build_ope, leakage_view
from .bench import bulk_store

ATTACKS = ("frequency", "lp", "sorting", "cumulative", "bucketing")
TARGETS = ("main_eseds", "fhope", "ope", "det")
DISTRIBUTIONS = ("uniform", "zipf", "dense")


@dataclass(frozen=True)
class AttackReport:
    attack: str
    target: str
    n: int
    domain_size: int
    accuracy: float | None  # None = attack not applicable to this target/data
    baseline: float
    detail: str = ""

    def line(self) -> str:
        if self.accuracy is None:
            return (
                f"attack {self.attack} target {self.target} n {self.n} "
                f"N {self.domain_size} inapplicable {self.detail}"
            )
        return (
            f"attack {self.attack} target {self.target} n {self.n} "
            f"N {self.domain_size} accuracy {self.accuracy:.6f} baseline {self.baseline:.6f}"
        )


def draw_multiset(n: int, domain_size: int, distribution: str, rng: random.Random) -> list[int]:
    if distribution == "uniform":
        return [rng.randrange(domain_size) for _ in range(n)]
    if distribution == "zipf":
        weights = [1.0 / (i + 1) for i in range(domain_size)]
        return rng.choices(range(domain_size), weights=weights, k=n)
    if distribution == "dense":
        if n != domain_size:
            raise AttackError("dense data needs n == N (every value exactly once)")
        values = list(range(domain_size))
        rng.shuffle(values)
        return values
    raise AttackError(f"unknown distribution {distribution!r}")


def _build(target: str, key: SecretKey, multiset: list[int], dom: Domain, rng: random.Random):
    """Build the structure and return it with its per-position truth."""
    if target == "main_eseds":
        store = bulk_store(key, multiset, dom, rng)
        truth = [decrypt(key, cell) for cell in store.logical_cells()]
        return store, truth
    if target == "det":
        obj = build_det(key, multiset, dom.size)
    elif target == "ope":
        obj = build_ope(key, multiset, dom.size)
    else:
        obj = build_fhope(key, multiset, dom.size, coins=CoinSource(rng.getrandbits(64)))
    return obj, list(obj.cell_values)


def run_attack(
    target: str, attack: str, n: int, domain_size: int, distribution: str, seed: int | None
) -> AttackReport:
    if target not in TARGETS:
        raise AttackError(f"unknown target {target!r}")
    if attack not in ATTACKS:
        raise AttackError(f"unknown attack {attack!r}")
    rng = random.Random(seed)
    multiset = draw_multiset(n, domain_size, distribution, rng)
    key = SecretKey(rng.randbytes(32))
    structure, truth = _build(target, key, multiset, Domain(domain_size), rng)
    view = leakage_view(structure)
    labels = view.class_labels()
    baseline = max(multiset.count(v) for v in set(multiset)) / n

    c_hist = Histogram.from_labels(labels)
    m_hist = Histogram.from_labels(multiset)
    if attack == "frequency":
        mapping = frequency_analysis(c_hist, m_hist).expand(labels)
    elif attack == "lp":
        mapping = lp_optimization(c_hist, m_hist, p=1).expand(labels)
    elif attack == "cumulative":
        mapping = cumulative_attack(
            c_hist, Cdf.from_histogram(c_hist), m_hist, Cdf.from_histogram(m_hist), p=1
        ).expand(labels)
    elif attack == "sorting":
        in_order = list(dict.fromkeys(labels))  # first-appearance order of classes
        try:
            mapping = sorting_attack(in_order, domain_size).expand(labels)
        except AttackError as exc:
            return AttackReport(attack, target, n, domain_size, None, baseline, str(exc))
    else:  # bucketing: the leaked (or guessed) sort order is the position order
        mapping = bucketing_attack(list(range(n)), multiset)
    return AttackReport(attack, target, n, domain_size, score(mapping, truth), baseline)
