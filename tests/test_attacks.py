"""Snapshot attacks against the leakage views, checked against brute force."""

import random
from fractions import Fraction
from itertools import accumulate

import pytest

from eseds.attacks import (
    ATTACKS,
    AttackError,
    Histogram,
    Inapplicable,
    bucketing_attack,
    cumulative_attack,
    frequency_analysis,
    lp_optimization,
    score,
    sorting_attack,
    _assign,
)
from eseds.cipher import decrypt
from eseds.core import Domain
from eseds.transforms import TARGETS, _derive_chains, build_det, build_ope

from helpers import brute_assignment, bucketing_expectation


# ---------------------------------------------------------------------------
# input types
# ---------------------------------------------------------------------------


def test_histogram_validation():
    with pytest.raises(AttackError):
        Histogram((1, 2), (3,))
    with pytest.raises(AttackError):
        Histogram((1,), (-1,))
    with pytest.raises(AttackError):
        Histogram((1, 1), (2, 3))
    assert Histogram((1, 2), (3, 4)).total == 7


def test_histogram_from_labels_sorts():
    h = Histogram.from_labels([9, 2, 9, 2, 2])
    assert h.labels == (2, 9)
    assert h.counts == (3, 2)
    assert Histogram.from_labels([]).total == 0


def test_score_compares_positions():
    assert score([4, 7, 4], [4, 7, 9]) == pytest.approx(2 / 3)
    assert score([None, 5], [4, 5]) == 0.5  # no guess is a miss
    with pytest.raises(AttackError):
        score([4], [4, 7])
    with pytest.raises(AttackError):
        score([], [])


# ---------------------------------------------------------------------------
# frequency analysis
# ---------------------------------------------------------------------------


def test_frequency_on_det_view(key):
    det = build_det(key, [5, 5, 9], 16)
    labels = _derive_chains(det.slots)
    c_hist = Histogram.from_labels(labels)
    m_hist = Histogram.from_labels([5, 5, 9])
    mapping = frequency_analysis(c_hist, m_hist)
    assert score([mapping[l] for l in labels], [decrypt(key, s.kw_ct) for s in det.slots]) == 1.0


def test_frequency_tie_break_is_smallest_label():
    c_hist = Histogram((7, 3), (2, 2))
    m_hist = Histogram((40, 10), (2, 2))
    mapping = frequency_analysis(c_hist, m_hist)
    assert mapping == {3: 10, 7: 40}
    assert frequency_analysis(c_hist, m_hist) == mapping  # deterministic


def test_frequency_extra_classes_get_no_guess():
    c_hist = Histogram((1, 2, 3), (5, 4, 1))
    m_hist = Histogram((70, 80), (5, 4))
    mapping = frequency_analysis(c_hist, m_hist)
    assert mapping == {1: 70, 2: 80, 3: None}


# ---------------------------------------------------------------------------
# assignment attacks vs the factorial oracle
# ---------------------------------------------------------------------------


def _as_perm(mapping: dict, k: int) -> tuple[int, ...]:
    """Mapping over labels 0..k-1 on both sides, as a permutation tuple."""
    return tuple(mapping.get(i) for i in range(k))


@pytest.mark.parametrize("p", [1, 2])
def test_lp_matches_brute_force(p):
    rng = random.Random(100 + p)
    for _ in range(300):
        k = rng.randrange(1, 7)
        c_counts = [rng.randrange(0, 9) for _ in range(k)]
        m_counts = [rng.randrange(0, 9) for _ in range(k)]
        mapping = lp_optimization(
            Histogram(tuple(range(k)), tuple(c_counts)),
            Histogram(tuple(range(k)), tuple(m_counts)),
            p=p,
        )
        best_cost, best_perms = brute_assignment(c_counts, m_counts, p)
        perm = _as_perm(mapping, k)
        assert perm in best_perms, (c_counts, m_counts, perm, best_perms)


def test_lp_identical_histograms_zero_cost():
    h = Histogram((0, 1, 2), (4, 2, 7))
    mapping = lp_optimization(h, h)
    perm = _as_perm(mapping, 3)
    counts = dict(zip(h.labels, h.counts))
    assert all(counts[i] == counts[perm[i]] for i in range(3))


def test_lp_distinct_counts_agree_with_frequency():
    rng = random.Random(200)
    for _ in range(50):
        k = rng.randrange(1, 7)
        counts_c = rng.sample(range(1, 30), k)  # all distinct
        counts_m = sorted(counts_c, key=lambda _: rng.random())
        c_hist = Histogram(tuple(range(k)), tuple(counts_c))
        m_hist = Histogram(tuple(range(100, 100 + k)), tuple(counts_m))
        lp = lp_optimization(c_hist, m_hist)
        assert lp == frequency_analysis(c_hist, m_hist)


def test_lp_pads_unequal_sizes():
    c_hist = Histogram(("a",), (3,))
    m_hist = Histogram((0, 1), (3, 5))
    assert lp_optimization(c_hist, m_hist) == {"a": 0}
    c_hist = Histogram(("a", "b"), (3, 1))
    m_hist = Histogram((7,), (3,))
    assert lp_optimization(c_hist, m_hist) == {"a": 7, "b": None}
    with pytest.raises(AttackError):
        lp_optimization(c_hist, m_hist, p=0)


def test_lp_refuses_costs_it_cannot_hold_exactly():
    c_hist = Histogram(("a", "b"), (1 << 32, 0))
    m_hist = Histogram((0, 1), (0, 1 << 32))
    with pytest.raises(AttackError, match="exact range"):  # costs of 2^64
        lp_optimization(c_hist, m_hist, p=2)
    with pytest.raises(AttackError, match="exact range"):
        cumulative_attack(c_hist, m_hist, p=2)
    # 2^25 squared is 2^50: two rows of it stay exact, and the match is right
    c_hist = Histogram(("a", "b"), (1 << 25, 0))
    m_hist = Histogram((0, 1), (0, 1 << 25))
    assert lp_optimization(c_hist, m_hist, p=2) == {"a": 1, "b": 0}


def test_assign_refuses_costs_that_float64_would_round():
    # exact costs pick the swap (2^54 + 1 < 2^54 + 2); rounded to float64
    # they would pick the diagonal (2^54 < 2^54 + 2)
    rows = [[(1 << 53) + 1, (1 << 53) + 3], [(1 << 53) - 2, (1 << 53) + 1]]
    with pytest.raises(AttackError):
        _assign(rows)
    assert _assign([[3, 1], [1, 3]]) == [1, 0]


# ---------------------------------------------------------------------------
# sorting
# ---------------------------------------------------------------------------


def test_sorting_reads_dense_order(key):
    ope = build_ope(key, [3, 0, 1, 2, 2], 4)
    labels = _derive_chains(ope.slots)
    classes = sorted(set(labels))  # ascending head rank = value order
    mapping = sorting_attack(classes, 4)
    assert score([mapping[l] for l in labels], [decrypt(key, s.kw_ct) for s in ope.slots]) == 1.0


def test_sorting_applicability():
    with pytest.raises(Inapplicable):
        sorting_attack([0, 1, 1], 3)
    with pytest.raises(Inapplicable):
        sorting_attack([0, 1], 3)  # not dense
    assert sorting_attack([42], 1) == {42: 0}


# ---------------------------------------------------------------------------
# cumulative
# ---------------------------------------------------------------------------


def test_cumulative_uses_position_to_split_frequency_ties():
    # two classes share a count; only the cumulative position separates them
    m_hist = Histogram((0, 1, 2), (3, 3, 2))
    c_hist = Histogram((20, 10, 30), (3, 3, 2))  # sorted-ciphertext order
    classes, truth = (20, 10, 30), [0, 1, 2]

    freq = frequency_analysis(c_hist, m_hist)
    assert score([freq[c] for c in classes], truth) == pytest.approx(1 / 3)  # ties guessed wrong
    cum = cumulative_attack(c_hist, m_hist)
    assert score([cum[c] for c in classes], truth) == 1.0


def test_cumulative_on_dense_view_matches_sorting(key):
    values = [0, 1, 2, 3, 2, 0]
    ope = build_ope(key, values, 4)
    labels = _derive_chains(ope.slots)
    classes = sorted(set(labels))
    c_hist = Histogram(tuple(classes), tuple(labels.count(c) for c in classes))
    m_hist = Histogram.from_labels(values)
    cum = cumulative_attack(c_hist, m_hist)
    assert cum == sorting_attack(classes, 4)


@pytest.mark.parametrize("p", [1, 2])
def test_cumulative_matches_brute_force(p):
    # equal totals, so integer cross-multiplication scales every cost by the
    # same factor and the argmin set equals the raw-count oracle's
    rng = random.Random(300 + p)
    for _ in range(200):
        k = rng.randrange(1, 6)
        n = rng.randrange(k, 12)
        c_counts = _random_composition(rng, n, k)
        m_counts = _random_composition(rng, n, k)
        c_hist = Histogram(tuple(range(k)), tuple(c_counts))
        m_hist = Histogram(tuple(range(k)), tuple(m_counts))
        mapping = cumulative_attack(c_hist, m_hist, p=p)
        _, best_perms = brute_assignment(
            c_counts, m_counts, p, list(accumulate(c_counts)), list(accumulate(m_counts))
        )
        assert _as_perm(mapping, k) in best_perms


def _random_composition(rng, n, k):
    """k non-negative counts summing to n."""
    cuts = sorted(rng.randrange(n + 1) for _ in range(k - 1))
    edges = [0] + cuts + [n]
    return [b - a for a, b in zip(edges, edges[1:])]


def test_cumulative_validation():
    h = Histogram((0,), (2,))
    with pytest.raises(AttackError):
        cumulative_attack(h, h, p=0)
    assert cumulative_attack(h, Histogram((), ())) == {0: None}


# ---------------------------------------------------------------------------
# bucketing
# ---------------------------------------------------------------------------


def test_bucketing_exact_on_sorted_layout():
    guesses = bucketing_attack([7, 3, 1, 3])
    assert score(guesses, [1, 3, 3, 7]) == 1.0


def test_bucketing_rotation_average_is_enumerable():
    multiset = [1, 3, 3, 7]
    guess = bucketing_attack(multiset)
    base = sorted(multiset)
    scores = []
    for s in range(4):
        rotated = [base[(j + s) % 4] for j in range(4)]
        scores.append(score(guess, rotated))
    assert sum(scores) / 4 == bucketing_expectation(multiset) == Fraction(6, 16)


def test_bucketing_guess_must_cover_every_position():
    with pytest.raises(AttackError):
        score(bucketing_attack([1, 2]), [1, 2, 3])
    assert score(bucketing_attack([9]), [9]) == 1.0


# ---------------------------------------------------------------------------
# the lab's attack table
# ---------------------------------------------------------------------------


def test_attack_table_rows_guess_once_per_position(key):
    values = [3, 1, 3, 0, 2, 1, 3, 2]  # every value of a domain of 4
    assert tuple(ATTACKS) == ("frequency", "lp", "sorting", "cumulative", "bucketing")
    for row in TARGETS.values():
        labels, _ = row(key, values, Domain(4), random.Random(1))
        for name, row in ATTACKS.items():
            try:
                guesses = row(labels, values, 4)
            except Inapplicable:
                # sorting needs one class per domain value; main_eseds and fhope show eight
                assert (name, len(set(labels))) == ("sorting", 8)
                continue
            assert isinstance(guesses, list) and len(guesses) == len(values)
