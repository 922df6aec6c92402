"""Attack lab driver: build a target over synthetic data, attack it with
perfect background knowledge (the plaintext multiset itself), score per
cell against the true layout.

The reported baseline is the best blind strategy, guessing the most
frequent plaintext everywhere: max_m count(m) / n.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from ..attacks import ATTACKS, AttackError, Inapplicable, score
from ..cipher import SecretKey
from ..core import Domain
from ..transforms import TARGETS, build_target, leakage_view

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


def run_attack(
    target: str, attack: str, n: int, domain_size: int, distribution: str, seed: int | None
) -> AttackReport:
    if target not in TARGETS:
        raise AttackError(f"unknown target {target!r}")
    if attack not in ATTACKS:
        raise AttackError(f"unknown attack {attack!r}")
    for option, size in (("--n", n), ("--domain-size", domain_size)):
        if size < 1:
            raise AttackError(f"{option} must be at least 1, got {size}")
    rng = random.Random(seed)
    multiset = draw_multiset(n, domain_size, distribution, rng)
    key = SecretKey(rng.randbytes(32))
    structure, truth = build_target(target, key, multiset, Domain(domain_size), rng)
    baseline = max(Counter(multiset).values()) / n
    try:
        guesses = ATTACKS[attack](leakage_view(structure), multiset, domain_size)
    except Inapplicable as exc:
        return AttackReport(attack, target, n, domain_size, None, baseline, str(exc))
    return AttackReport(attack, target, n, domain_size, score(guesses, truth), baseline)
