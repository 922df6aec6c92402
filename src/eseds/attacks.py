"""Snapshot attacks against the legacy layouts.

Every attack consumes only adversary-visible material: equality-class
histograms, leaked orders, and auxiliary knowledge about the plaintext
distribution.  A guess is a plain value, or None for no guess.  The four
class attacks (frequency, ℓp, sorting, cumulative) return a dict from
ciphertext class label to guess; :func:`bucketing_attack` returns one
guess per table position.  ``ATTACKS`` gives the lab one shape for all
five: a snapshot's class label per position and the known plaintext
multiset in, a list of one guess per position out.  :func:`score`
compares such a list with the plaintext at each position.

Costs in the assignment attacks are kept exact.  With an integer exponent
every cost is an integer; cumulative terms compare count ratios with
different denominators by cross-multiplying instead of dividing, so no
float rounding can flip an argmin.  Integer costs too large for the
float64 solver to hold exactly raise :class:`AttackError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate


class AttackError(Exception):
    """Attack preconditions not met (wrong shapes, costs it cannot hold)."""


class Inapplicable(AttackError):
    """The data breaks a precondition of the attack itself, not a shape."""


@dataclass(frozen=True)
class Histogram:
    """Occurrence counts per label, in a fixed significant order."""

    labels: tuple
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.counts):
            raise AttackError("labels and counts must align")
        if any(c < 0 for c in self.counts):
            raise AttackError("negative count")
        if len(set(self.labels)) != len(self.labels):
            raise AttackError("duplicate label")

    @property
    def total(self) -> int:
        return sum(self.counts)

    @classmethod
    def from_labels(cls, labels) -> "Histogram":
        """Count occurrences; label order is ascending label."""
        seen: dict = {}
        for l in labels:
            seen[l] = seen.get(l, 0) + 1
        ordered = sorted(seen)
        return cls(tuple(ordered), tuple(seen[l] for l in ordered))


def score(guesses, truth) -> float:
    """Fraction of positions whose guess equals the plaintext there."""
    if not truth:
        raise AttackError("empty truth")
    if len(guesses) != len(truth):
        raise AttackError(f"{len(guesses)} guesses for {len(truth)} positions")
    return sum(g == t for g, t in zip(guesses, truth)) / len(truth)


# ---------------------------------------------------------------------------
# assignment machinery
# ---------------------------------------------------------------------------

_PAD = object()  # sentinel label for padding the shorter histogram


def _padded(c_hist: Histogram, m_hist: Histogram):
    """Equalize lengths by appending zero-count entries.

    Padding sits at the end of each order; a padded cumulative entry keeps
    the running total, so it behaves like an empty trailing class.
    """
    c_labels, c_counts = list(c_hist.labels), list(c_hist.counts)
    m_labels, m_counts = list(m_hist.labels), list(m_hist.counts)
    while len(c_labels) < len(m_labels):
        c_labels.append(_PAD)
        c_counts.append(0)
    while len(m_labels) < len(c_labels):
        m_labels.append(_PAD)
        m_counts.append(0)
    return c_labels, c_counts, m_labels, m_counts


#: float64 represents every integer up to this exactly
_FLOAT_EXACT = 1 << 53


def _assign(cost_rows) -> list[int]:
    """Column index per row minimizing the total cost.

    The solver works in float64, so integer costs stay exact only while a
    sum of n of them (n rows) fits in float64's exact integer range; larger
    integer costs raise instead of being rounded.
    """
    # imported here so that importing the package (and the CLI) stays cheap
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    largest = max((c for row in cost_rows for c in row if isinstance(c, int)), default=0)
    if largest * len(cost_rows) > _FLOAT_EXACT:
        raise AttackError(
            f"integer cost {largest} over {len(cost_rows)} rows exceeds float64's exact range"
        )
    _, cols = linear_sum_assignment(np.asarray(cost_rows, dtype=np.float64))
    return list(cols)


def _finish(c_labels, m_labels, cols) -> dict:
    targets = [None if m_labels[col] is _PAD else m_labels[col] for col in cols]
    return {label: t for label, t in zip(c_labels, targets) if label is not _PAD}


# ---------------------------------------------------------------------------
# attacks
# ---------------------------------------------------------------------------


def frequency_analysis(c_hist: Histogram, m_hist: Histogram) -> dict:
    """Match classes to values by descending frequency.

    Ties break toward the smaller label on both sides.  When there are
    more ciphertext classes than known values, the least frequent classes
    get no guess.
    """
    c_order = sorted(zip(c_hist.labels, c_hist.counts), key=lambda t: (-t[1], t[0]))
    m_order = sorted(zip(m_hist.labels, m_hist.counts), key=lambda t: (-t[1], t[0]))
    guesses = dict.fromkeys(c for c, _ in c_order)
    guesses.update((c, m) for (c, _), (m, _) in zip(c_order, m_order))
    return guesses


def lp_optimization(c_hist: Histogram, m_hist: Histogram, p=1) -> dict:
    """Minimum-cost matching of classes to values under |Δcount|^p."""
    if p <= 0:
        raise AttackError("exponent must be positive")
    c_labels, c_counts, m_labels, m_counts = _padded(c_hist, m_hist)
    rows = [[abs(c - m) ** p for m in m_counts] for c in c_counts]
    return _finish(c_labels, m_labels, _assign(rows))


def sorting_attack(unique_classes_in_order, size: int) -> dict:
    """Read values straight off a leaked order.

    Applicable only when every domain value occurs exactly once, so the
    i-th class in leaked order must hold value i.
    """
    classes = list(unique_classes_in_order)
    if len(set(classes)) != len(classes):
        raise Inapplicable("classes must be unique")
    if len(classes) != size:
        raise Inapplicable(
            f"needs one class per domain value: {len(classes)} classes, domain {size}"
        )
    return {c: v for v, c in enumerate(classes)}


def cumulative_attack(c_hist: Histogram, m_hist: Histogram, p=1) -> dict:
    """Match classes to values on frequency and cumulative position jointly.

    Cost of pairing class i with value j is
    |Δfrequency|^p + |Δcumulative_fraction|^p, with cumulative counts
    running over each histogram's label order.  Both differences are
    cross-multiplied by the totals to stay in integers: every entry picks
    up the same (Tc*Tm)^p factor, which leaves the argmin untouched.
    With equal totals the argmin coincides with the unnormalized sum of
    count and cumulative-count distances.
    """
    if p <= 0:
        raise AttackError("exponent must be positive")
    tc, tm = max(c_hist.total, 1), max(m_hist.total, 1)
    c_labels, c_counts, m_labels, m_counts = _padded(c_hist, m_hist)
    m_pairs = list(zip(m_counts, accumulate(m_counts)))
    rows = [
        [abs(c_n * tm - m_n * tc) ** p + abs(c_c * tm - m_c * tc) ** p for m_n, m_c in m_pairs]
        for c_n, c_c in zip(c_counts, accumulate(c_counts))
    ]
    return _finish(c_labels, m_labels, _assign(rows))


def bucketing_attack(known_multiset) -> list:
    """Guess the sorted multiset laid out from the array start.

    Against a secretly rotated sorted array this is the natural static
    guess; its expected score is the average overlap between the sorted
    layout and each of the n rotations.
    """
    return sorted(known_multiset)


def _per_position(guesses: dict, labels) -> list:
    return [guesses[label] for label in labels]


def _by_class(attack):
    """Table row of a histogram attack: its guess for each position's class."""

    def row(labels, known, domain_size) -> list:
        guesses = attack(Histogram.from_labels(labels), Histogram.from_labels(known))
        return _per_position(guesses, labels)

    return row


#: The lab's attacks by name.  Each row takes a snapshot's class labels (one
#: per position, see ``transforms.leakage_view``), the known plaintext
#: multiset and the domain size, and returns a list of one guess per
#: position.  Only sorting raises :class:`Inapplicable`, on data not dense.
ATTACKS = {
    "frequency": _by_class(frequency_analysis),
    "lp": _by_class(lp_optimization),
    # classes in order of first appearance: an OPE table's heads lead in value order
    "sorting": lambda labels, known, size: _per_position(
        sorting_attack(dict.fromkeys(labels), size), labels
    ),
    "cumulative": _by_class(cumulative_attack),
    # the guessed sort order is the position order
    "bucketing": lambda labels, known, size: bucketing_attack(known),
}
