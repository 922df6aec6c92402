"""Distinguishing game against a chosen structure.

Each trial: the adversary commits to two equal-size plaintext multisets,
the challenger encrypts one of them (fresh key, fresh coins) into the
target structure, and the adversary, shown only what a snapshot of it
shows (one class label per position), names one position and a plaintext
guess for it.  A trial succeeds when the guessed position holds the
guessed value.  The adversary also reports the frequency of its guessed
value in the union of the two multisets; the gap between the empirical
success rate and that baseline frequency is the measured advantage.
Anything that beats the baseline by more than noise has extracted
information from the structure itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..cipher import SecretKey, keygen
from ..core import Domain
from ..transforms import TARGETS, build_target, leakage_view


class GameError(Exception):
    """Malformed trial (unequal multisets, bad guess position)."""


@dataclass(frozen=True)
class GameConfig:
    trials: int
    adversary: str
    target: str
    seed: int | None = None

    def __post_init__(self):
        if self.trials < 100:
            raise GameError(f"at least 100 trials required, got {self.trials}")
        if self.adversary not in ADVERSARIES:
            raise GameError(f"unknown adversary {self.adversary!r}")
        if self.target not in TARGETS:
            raise GameError(f"unknown target {self.target!r}")


@dataclass(frozen=True)
class GameResult:
    trials: int
    successes: int
    baseline: float  # mean reported frequency of the guessed values

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials

    @property
    def advantage(self) -> float:
        return abs(self.success_rate - self.baseline)

    @property
    def sigma(self) -> float:
        """Standard error of the success rate under the no-advantage null."""
        return math.sqrt(self.baseline * (1.0 - self.baseline) / self.trials)


class PositionGuesser:
    """Commits to {0, 1} twice and always guesses that cell 0 holds 0.

    Against any layout that stores the smaller value first this wins every
    trial; against a freshly rotated array it does no better than the
    frequency of 0.
    """

    name = "position_guesser"

    def choose(self) -> tuple[list[int], list[int]]:
        return [0, 1], [0, 1]

    def guess(self, labels: tuple[int, ...]) -> tuple[int, int]:
        return 0, 0


class MultisetDistinguisher:
    """Commits to all-zeros vs all-ones and guesses from what it can see.

    The two multisets are constant, so every snapshot shows the same class
    labels in either world and nothing observable separates them; the
    adversary still inspects the labels, exercising the full two-phase
    interface, and lands exactly on the frequency baseline.
    """

    name = "multiset_distinguisher"

    def __init__(self, size: int = 4):
        self.size = size

    def choose(self) -> tuple[list[int], list[int]]:
        return [0] * self.size, [1] * self.size

    def guess(self, labels: tuple[int, ...]) -> tuple[int, int]:
        if len(labels) != self.size:
            raise GameError("structure size does not match the committed multisets")
        return 0, 0


ADVERSARIES = {
    PositionGuesser.name: PositionGuesser,
    MultisetDistinguisher.name: MultisetDistinguisher,
}


def run_game(cfg: GameConfig) -> GameResult:
    """Play ``cfg.trials`` independent rounds and aggregate.

    With a seed, every random choice (challenge bit, structure coins, even
    the per-trial keys) derives from it, so the success/failure sequence
    is reproducible; without one, keys come from the OS.
    """
    rng = random.Random(cfg.seed)
    adversary = ADVERSARIES[cfg.adversary]()
    successes = 0
    baseline_sum = 0.0
    for _ in range(cfg.trials):
        m0, m1 = adversary.choose()
        if len(m0) != len(m1) or not m0:
            raise GameError("adversary must commit to two non-empty equal-size multisets")
        b = rng.getrandbits(1)
        multiset = list((m0, m1)[b])
        key = SecretKey(rng.randbytes(32)) if cfg.seed is not None else keygen()
        dom = Domain(max(*m0, *m1) + 1)
        structure, truth = build_target(cfg.target, key, multiset, dom, rng)
        j, m_guess = adversary.guess(leakage_view(structure))
        if not 0 <= j < len(multiset):
            raise GameError(f"guess position {j} out of range")
        if truth[j] == m_guess:
            successes += 1
        pool = m0 + m1
        baseline_sum += pool.count(m_guess) / len(pool)
    return GameResult(cfg.trials, successes, baseline_sum / cfg.trials)
