"""The lab's seeded output, recorded before its leakage and attack tables were
merged: every attack on every target over every distribution, and both
adversaries on every target.  A change to the lab's plumbing must leave
each of these lines as it is."""

import pytest

from eseds.cli.attack import run_attack
from eseds.cli.game import GameConfig, GameResult, run_game

TARGETS = ("main_eseds", "fhope", "ope", "det")
ATTACKS = ("frequency", "lp", "sorting", "cumulative", "bucketing")
DISTRIBUTIONS = ("uniform", "zipf", "dense")
ADVERSARIES = ("position_guesser", "multiset_distinguisher")

#: run_attack(target, attack, 64, N, distribution, seed=1).line(), N = 64 for
#: dense data and 16 otherwise, in target, attack, distribution order
ATTACK_LINES = [
    'attack frequency target main_eseds n 64 N 16 accuracy 0.015625 baseline 0.125000',
    'attack frequency target main_eseds n 64 N 16 accuracy 0.031250 baseline 0.328125',
    'attack frequency target main_eseds n 64 N 64 accuracy 0.000000 baseline 0.015625',
    'attack lp target main_eseds n 64 N 16 accuracy 0.015625 baseline 0.125000',
    'attack lp target main_eseds n 64 N 16 accuracy 0.015625 baseline 0.328125',
    'attack lp target main_eseds n 64 N 64 accuracy 0.000000 baseline 0.015625',
    'attack sorting target main_eseds n 64 N 16 inapplicable needs one class per domain value: 64 classes, domain 16',
    'attack sorting target main_eseds n 64 N 16 inapplicable needs one class per domain value: 64 classes, domain 16',
    'attack sorting target main_eseds n 64 N 64 accuracy 0.000000 baseline 0.015625',
    'attack cumulative target main_eseds n 64 N 16 accuracy 0.000000 baseline 0.125000',
    'attack cumulative target main_eseds n 64 N 16 accuracy 0.000000 baseline 0.328125',
    'attack cumulative target main_eseds n 64 N 64 accuracy 0.000000 baseline 0.015625',
    'attack bucketing target main_eseds n 64 N 16 accuracy 0.000000 baseline 0.125000',
    'attack bucketing target main_eseds n 64 N 16 accuracy 0.109375 baseline 0.328125',
    'attack bucketing target main_eseds n 64 N 64 accuracy 0.000000 baseline 0.015625',
    'attack frequency target fhope n 64 N 16 accuracy 0.015625 baseline 0.125000',
    'attack frequency target fhope n 64 N 16 accuracy 0.015625 baseline 0.328125',
    'attack frequency target fhope n 64 N 64 accuracy 1.000000 baseline 0.015625',
    'attack lp target fhope n 64 N 16 accuracy 0.031250 baseline 0.125000',
    'attack lp target fhope n 64 N 16 accuracy 0.015625 baseline 0.328125',
    'attack lp target fhope n 64 N 64 accuracy 1.000000 baseline 0.015625',
    'attack sorting target fhope n 64 N 16 inapplicable needs one class per domain value: 64 classes, domain 16',
    'attack sorting target fhope n 64 N 16 inapplicable needs one class per domain value: 64 classes, domain 16',
    'attack sorting target fhope n 64 N 64 accuracy 1.000000 baseline 0.015625',
    'attack cumulative target fhope n 64 N 16 accuracy 0.031250 baseline 0.125000',
    'attack cumulative target fhope n 64 N 16 accuracy 0.015625 baseline 0.328125',
    'attack cumulative target fhope n 64 N 64 accuracy 1.000000 baseline 0.015625',
    'attack bucketing target fhope n 64 N 16 accuracy 1.000000 baseline 0.125000',
    'attack bucketing target fhope n 64 N 16 accuracy 1.000000 baseline 0.328125',
    'attack bucketing target fhope n 64 N 64 accuracy 1.000000 baseline 0.015625',
    'attack frequency target ope n 64 N 16 accuracy 1.000000 baseline 0.125000',
    'attack frequency target ope n 64 N 16 accuracy 1.000000 baseline 0.328125',
    'attack frequency target ope n 64 N 64 accuracy 1.000000 baseline 0.015625',
    'attack lp target ope n 64 N 16 accuracy 1.000000 baseline 0.125000',
    'attack lp target ope n 64 N 16 accuracy 1.000000 baseline 0.328125',
    'attack lp target ope n 64 N 64 accuracy 1.000000 baseline 0.015625',
    'attack sorting target ope n 64 N 16 accuracy 1.000000 baseline 0.125000',
    'attack sorting target ope n 64 N 16 inapplicable needs one class per domain value: 15 classes, domain 16',
    'attack sorting target ope n 64 N 64 accuracy 1.000000 baseline 0.015625',
    'attack cumulative target ope n 64 N 16 accuracy 1.000000 baseline 0.125000',
    'attack cumulative target ope n 64 N 16 accuracy 1.000000 baseline 0.328125',
    'attack cumulative target ope n 64 N 64 accuracy 1.000000 baseline 0.015625',
    'attack bucketing target ope n 64 N 16 accuracy 0.203125 baseline 0.125000',
    'attack bucketing target ope n 64 N 16 accuracy 0.109375 baseline 0.328125',
    'attack bucketing target ope n 64 N 64 accuracy 1.000000 baseline 0.015625',
    'attack frequency target det n 64 N 16 accuracy 0.562500 baseline 0.125000',
    'attack frequency target det n 64 N 16 accuracy 0.687500 baseline 0.328125',
    'attack frequency target det n 64 N 64 accuracy 0.015625 baseline 0.015625',
    'attack lp target det n 64 N 16 accuracy 0.562500 baseline 0.125000',
    'attack lp target det n 64 N 16 accuracy 0.687500 baseline 0.328125',
    'attack lp target det n 64 N 64 accuracy 0.015625 baseline 0.015625',
    'attack sorting target det n 64 N 16 accuracy 0.031250 baseline 0.125000',
    'attack sorting target det n 64 N 16 inapplicable needs one class per domain value: 15 classes, domain 16',
    'attack sorting target det n 64 N 64 accuracy 0.015625 baseline 0.015625',
    'attack cumulative target det n 64 N 16 accuracy 0.187500 baseline 0.125000',
    'attack cumulative target det n 64 N 16 accuracy 0.500000 baseline 0.328125',
    'attack cumulative target det n 64 N 64 accuracy 0.015625 baseline 0.015625',
    'attack bucketing target det n 64 N 16 accuracy 0.062500 baseline 0.125000',
    'attack bucketing target det n 64 N 16 accuracy 0.062500 baseline 0.328125',
    'attack bucketing target det n 64 N 64 accuracy 0.015625 baseline 0.015625',
]

#: run_game(GameConfig(200, adversary, target, seed=1)), in adversary, target order
GAME_RESULTS = [
    GameResult(200, 88, 0.5),
    GameResult(200, 200, 0.5),
    GameResult(200, 200, 0.5),
    GameResult(200, 104, 0.5),
    GameResult(200, 104, 0.5),
    GameResult(200, 95, 0.5),
    GameResult(200, 90, 0.5),
    GameResult(200, 90, 0.5),
]


ATTACK_CASES = [(t, a, d) for t in TARGETS for a in ATTACKS for d in DISTRIBUTIONS]
GAME_CASES = [(a, t) for a in ADVERSARIES for t in TARGETS]


@pytest.mark.parametrize("case", range(len(ATTACK_CASES)), ids=["-".join(c) for c in ATTACK_CASES])
def test_attack_lines_are_unchanged(case):
    target, attack, distribution = ATTACK_CASES[case]
    n_domain = 64 if distribution == "dense" else 16
    assert run_attack(target, attack, 64, n_domain, distribution, 1).line() == ATTACK_LINES[case]


@pytest.mark.parametrize("case", range(len(GAME_CASES)), ids=["-".join(c) for c in GAME_CASES])
def test_game_results_are_unchanged(case):
    adversary, target = GAME_CASES[case]
    assert run_game(GameConfig(200, adversary, target, seed=1)) == GAME_RESULTS[case]
