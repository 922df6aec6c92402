"""Distinguishing game: configuration, guards, and adversary performance."""

import pytest

from eseds.cli.game import (
    ADVERSARIES,
    GameConfig,
    GameError,
    GameResult,
    MultisetDistinguisher,
    PositionGuesser,
    run_game,
)
from eseds.transforms import TARGETS


def test_config_validation():
    GameConfig(100, "position_guesser", "fhope", seed=1)
    with pytest.raises(GameError):
        GameConfig(99, "position_guesser", "fhope")
    with pytest.raises(GameError):
        GameConfig(100, "oracle_thief", "fhope")
    with pytest.raises(GameError):
        GameConfig(100, "position_guesser", "plaintext")
    assert set(ADVERSARIES) == {"position_guesser", "multiset_distinguisher"}
    assert TARGETS == ("main_eseds", "fhope", "ope", "det")


def test_result_arithmetic():
    r = GameResult(trials=200, successes=150, baseline=0.5)
    assert r.success_rate == 0.75
    assert r.advantage == 0.25
    assert r.sigma == pytest.approx((0.25 / 200) ** 0.5)


def test_unequal_multisets_rejected(monkeypatch):
    class Lopsided(PositionGuesser):
        def choose(self):
            return [0, 1], [0, 1, 1]

    monkeypatch.setitem(ADVERSARIES, "position_guesser", Lopsided)
    with pytest.raises(GameError, match="equal-size"):
        run_game(GameConfig(100, "position_guesser", "fhope", seed=1))


def test_empty_multisets_rejected(monkeypatch):
    class Empty(PositionGuesser):
        def choose(self):
            return [], []

    monkeypatch.setitem(ADVERSARIES, "position_guesser", Empty)
    with pytest.raises(GameError, match="non-empty"):
        run_game(GameConfig(100, "position_guesser", "fhope", seed=1))


def test_out_of_range_guess_rejected(monkeypatch):
    class Wild(PositionGuesser):
        def guess(self, labels):
            return 5, 0

    monkeypatch.setitem(ADVERSARIES, "position_guesser", Wild)
    with pytest.raises(GameError, match="out of range"):
        run_game(GameConfig(100, "position_guesser", "fhope", seed=1))


def test_seeded_runs_reproduce():
    cfg = GameConfig(150, "position_guesser", "main_eseds", seed=42)
    assert run_game(cfg) == run_game(cfg)
    other = GameConfig(150, "position_guesser", "main_eseds", seed=43)
    assert run_game(other) != run_game(cfg)  # different coin sequences


def test_position_guesser_breaks_order_revealing_layouts():
    # both layouts put the smaller committed value first, every time
    for target in ("fhope", "ope"):
        r = run_game(GameConfig(200, "position_guesser", target, seed=7))
        assert r.success_rate == 1.0
        assert r.baseline == 0.5
        assert r.advantage == 0.5


def test_position_guesser_blind_against_rotation():
    r = run_game(GameConfig(600, "position_guesser", "main_eseds", seed=7))
    assert r.baseline == 0.5
    assert r.advantage < 3 * r.sigma


def test_position_guesser_blind_against_det():
    # DET places by PRF bucket, independent of value order
    r = run_game(GameConfig(600, "position_guesser", "det", seed=8))
    assert r.advantage < 3 * r.sigma


@pytest.mark.parametrize("target", TARGETS)
def test_multiset_distinguisher_sees_nothing(target):
    # constant multisets: every view of either world is isomorphic
    r = run_game(GameConfig(300, "multiset_distinguisher", target, seed=9))
    assert r.baseline == 0.5
    assert r.advantage < 3 * r.sigma


def test_multiset_distinguisher_inspects_view():
    adv = MultisetDistinguisher(size=3)
    m0, m1 = adv.choose()
    assert (m0, m1) == ([0, 0, 0], [1, 1, 1])

    assert adv.guess((0, 1, 2)) == (0, 0)
    with pytest.raises(GameError, match="size"):
        adv.guess((0, 1))


@pytest.mark.parametrize("target", TARGETS)
def test_adversary_sees_one_label_per_position_and_no_plaintext(monkeypatch, target):
    # fhope, ope and det keep each position's plaintext on the structure for
    # scoring; the adversary must get only the labels
    seen = []

    class Recorder(PositionGuesser):
        def guess(self, labels):
            seen.append(labels)
            return 0, 0

    monkeypatch.setitem(ADVERSARIES, "position_guesser", Recorder)
    run_game(GameConfig(100, "position_guesser", target, seed=1))
    assert len(seen) == 100
    for labels in seen:
        assert type(labels) is tuple and len(labels) == 2
        assert all(type(label) is int for label in labels)
        assert not hasattr(labels, "cell_values")
