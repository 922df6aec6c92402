"""Independent oracles used to pin expected values in the test suite.

Everything in this file is deliberately brute force and written from first
principles (linear scans, enumerating rotations or permutations, exact
rationals).  None of it calls into the package's own search, attack, or
assignment logic, so tests compare two independent routes to each answer.
"""

from __future__ import annotations

import itertools
import struct
from fractions import Fraction


def in_cyclic(v: int, a: int, b: int, modulus: int) -> bool:
    """Membership of v in the cyclic interval [a, b] over Z_modulus."""
    return (v - a) % modulus <= (b - a) % modulus


def brute_match_indices(values: list[int], a: int, b: int, modulus: int) -> set[int]:
    """Decrypt-and-filter reference: indices whose value lies in [a, b]."""
    return {j for j, v in enumerate(values) if in_cyclic(v, a, b, modulus)}


def rotation_starts(values: list[int]) -> list[int]:
    """All w such that reading values[w:] + values[:w] is sorted."""
    n = len(values)
    target = sorted(values)
    return [w for w in range(n) if values[w:] + values[:w] == target]


def is_rotation_of_sorted(values: list[int]) -> bool:
    if not values:
        return True
    return bool(rotation_starts(values))


def valid_insert_layouts(values: list[int], m: int) -> set[tuple[int, ...]]:
    """Every cyclic-order-preserving array obtainable by inserting m."""
    layouts = set()
    for slot in range(len(values) + 1):
        cand = values[:slot] + [m] + values[slot:]
        if is_rotation_of_sorted(cand):
            layouts.add(tuple(cand))
    return layouts


def order_preserving_slots(values: list[int], m: int) -> set[int]:
    """Every slot (mod n, since slots 0 and n give the same cyclic array)
    where inserting m keeps the array a rotation of sorted."""
    n = len(values)
    return {
        slot % n
        for slot in range(n + 1)
        if is_rotation_of_sorted(values[:slot] + [m] + values[slot:])
    }


def bisection_probes(keys: list[int], target: int, strict: bool = False) -> list[int]:
    """Indices a textbook binary search visits for the first key >= target
    (> target when strict), keys sorted ascending."""
    lo, hi, probes = 0, len(keys), []
    while lo < hi:
        mid = (lo + hi) // 2
        probes.append(mid)
        if keys[mid] < target or (strict and keys[mid] == target):
            lo = mid + 1
        else:
            hi = mid
    return probes


def bucketing_expectation(multiset: list[int]) -> Fraction:
    """Expected per-cell accuracy of the sorted-guess attack on a uniformly
    rotated array of the sorted multiset, by enumerating all n rotations."""
    n = len(multiset)
    guess = sorted(multiset)
    total = 0
    for s in range(n):
        rotated = [guess[(j + s) % n] for j in range(n)]
        total += sum(1 for g, t in zip(guess, rotated) if g == t)
    return Fraction(total, n * n)


def brute_assignment(
    c_counts: list[int],
    m_counts: list[int],
    p: int,
    c_cums: list[int] | None = None,
    m_cums: list[int] | None = None,
) -> tuple[int, list[tuple[int, ...]]]:
    """Exact minimum-cost assignment by enumerating all permutations.

    Cost of assigning cipher class i to plaintext class perm[i] is
    |c_counts[i] - m_counts[perm[i]]|**p, plus the analogous cumulative-count
    term when cumulative vectors are supplied.  Returns the minimal cost and
    every permutation achieving it (cost ties are real and must be visible).
    """
    k = len(c_counts)
    assert len(m_counts) == k
    best_cost: int | None = None
    best: list[tuple[int, ...]] = []
    for perm in itertools.permutations(range(k)):
        cost = sum(abs(c_counts[i] - m_counts[perm[i]]) ** p for i in range(k))
        if c_cums is not None:
            assert m_cums is not None
            cost += sum(abs(c_cums[i] - m_cums[perm[i]]) ** p for i in range(k))
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best = [perm]
        elif cost == best_cost:
            best.append(perm)
    assert best_cost is not None
    return best_cost, best


def reference_store_file(mode: int, records: list, index_bits: int = 0) -> bytes:
    """A store file encoded field by field as docs/formats.md lays it out.

    Records are cells for modes 0 and 4, (sparse index, cell) pairs for
    mode 1 and (keyword cell, row-id cell, next) triples for modes 2 and 3.
    """

    def blob(data: bytes) -> bytes:
        return struct.pack("<I", len(data)) + data

    out = [b"ESEDS\x00", struct.pack("<H", 1), bytes([mode]), struct.pack("<H", index_bits)]
    out.append(struct.pack("<Q", len(records)))
    for record in records:
        if mode in (0, 4):
            out.append(blob(record))
        elif mode == 1:
            sparse, cell = record
            out.append(sparse.to_bytes(index_bits // 8, "big") + blob(cell))
        elif mode in (2, 3):
            kw, rid, nxt = record
            out += [blob(kw), blob(rid), struct.pack("<q", nxt)]
        else:
            raise ValueError(f"no record layout for mode {mode}")
    return b"".join(out)


def chi_square_uniform_p(observed: list[int]) -> float:
    """p-value of a chi-square test against the uniform distribution."""
    from scipy import stats

    return float(stats.chisquare(observed).pvalue)
