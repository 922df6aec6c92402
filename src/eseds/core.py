"""Client-side protocol logic: interactive insert, range search, top-k.

The server holds an array of opaque cells whose decryptions are always a
cyclic rotation of the sorted multiset of inserted values.  The client keeps
no state between operations; every operation rediscovers what it needs by
fetching cells and decrypting them locally.  Binary-search probes read one
cell per request; top-k and the read-back of a search result read each run
of consecutive cells with one GET_RANGE.  A run arrives as one block of
bytes, and a cell is sliced out of it only when it is decrypted.

Every order comparison happens in one reading frame (s, A), found by
_frame: read cyclically from index s, the cells are sorted under
g(x) = (x - A) mod N.  With r = Dec(C[0]) the frame is s = 0, A = r unless
the run of r-cells wraps past the end of the array (C[n-1] = r).  Then
A = r + 1, so that r sorts last, and s is the first index that does not
hold r: 1 when C[1] != r, otherwise (a deep wrap) the client reads the
store in ranged runs of READ_RUN cells, keeps them as one block and finds
s locally.  That takes O(log n) decrypts while the run of r holds at most
about 2/3 of the cells, so that _off_run's gallop lands in the other
values' block; past that, _frame decrypts the block from index 2 one cell
at a time until the run ends, up to n decrypts.  Search bisects g over
reading positions, insert bisects them for its slot, and top-k starts
from the rotation the frame gives.  Search and insert are O(log n) probes
except on a deep wrap: a deep-wrap search still filters every cell with
one-cell reads, and every insert reads the whole store in ranges.  On
distinct values no run wraps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cipher import CELL_LEN, SecretKey, decrypt, encrypt


class ProtocolError(Exception):
    """Client-side protocol failure (bad arguments, empty store, corruption)."""


@dataclass(frozen=True)
class Domain:
    """Plaintext domain 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ProtocolError(f"domain size must be >= 1, got {self.size}")

    @classmethod
    def from_bits(cls, bits: int) -> "Domain":
        return cls(1 << bits)


@dataclass(frozen=True)
class RangeQuery:
    """Inclusive range [a, b]; a > b is the modular wrap-around query."""

    a: int
    b: int


@dataclass(frozen=True)
class RangeResult:
    """Matching cells as 1 or 2 inclusive index intervals (2 only when the
    matching run wraps past index n-1; the second interval starts at 0)."""

    segments: tuple[tuple[int, int], ...]

    def indices(self) -> list[int]:
        return [j for lo, hi in self.segments for j in range(lo, hi + 1)]

    @property
    def count(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.segments)

    def __bool__(self) -> bool:
        return bool(self.segments)


class CoinSource:
    """Client randomness for insertion tie-breaks; seedable for reproducible
    protocol runs.  Also usable as the server's rotation source in tests."""

    def __init__(self, seed=None):
        self._rng = random.Random(seed) if seed is not None else random.SystemRandom()

    def bit(self) -> int:
        return self._rng.getrandbits(1)

    def randrange(self, n: int) -> int:
        return self._rng.randrange(n)


def in_cyclic_range(v: int, a: int, b: int, dom: Domain) -> bool:
    """Membership of v in the cyclic inclusive interval [a, b]."""
    return (v - a) % dom.size <= (b - a) % dom.size


#: cells per GET_RANGE when an operation reads the whole store; the runs
#: bound the size of each frame
READ_RUN = 4096


class _OpView:
    """Per-operation cell reader.  ``value`` caches each probed index, so a
    distinct index costs one one-cell GET_RANGE; ``values`` reads a run of
    cells with one GET_RANGE per frame and caches nothing.  After
    ``read_all`` the view is local: it holds every cell's bytes as one
    block of n * CELL_LEN bytes, and both slice a cell out of it only to
    decrypt it, without sending a request."""

    def __init__(self, key: SecretKey, session, dom: Domain):
        self._key = key
        self._session = session
        self._dom = dom
        self._values: dict[int, int] = {}
        self._block: bytes | None = None

    def read_all(self, n: int) -> None:
        """Fetch all ``n`` cells in index order, READ_RUN cells per GET_RANGE."""
        block = b"".join(
            self._session.get_range(start, min(READ_RUN, n - start), n, CELL_LEN)
            for start in range(0, n, READ_RUN)
        )
        if len(block) != n * CELL_LEN:
            raise ProtocolError(f"read {len(block)} bytes from a store of {n} cells")
        self._block = block

    def value(self, j: int) -> int:
        v = self._values.get(j)
        if v is None:
            block = self._block
            if block is None:
                cell = self._session.get_cell(j, CELL_LEN)
            else:
                cell = block[j * CELL_LEN : (j + 1) * CELL_LEN]
            v = self._values[j] = self._decrypt(j, cell)
        return v

    def values(self, start: int, count: int, n: int) -> list[int]:
        """Values of ``count`` cells read cyclically from ``start`` of an
        ``n``-cell store."""
        if self._block is None:
            block, first = self._session.get_range(start, count, n, CELL_LEN), 0
        else:
            block, first = self._block, start
        key, size = self._key, self._dom.size
        out = []
        for i in range(count):
            p = (first + i) % n * CELL_LEN
            v = decrypt(key, block[p : p + CELL_LEN])
            if v >= size:
                raise ProtocolError(f"cell {(start + i) % n} decrypts outside the domain")
            out.append(v)
        return out

    def _decrypt(self, j: int, cell: bytes) -> int:
        v = decrypt(self._key, cell)
        if v >= self._dom.size:
            raise ProtocolError(f"cell {j} decrypts outside the domain")
        return v


def _check_plaintext(m: int, dom: Domain, what: str) -> None:
    if not 0 <= m < dom.size:
        raise ProtocolError(f"{what} {m} outside domain [0, {dom.size})")


# ---------------------------------------------------------------------------
# bisection (every probe is one cell fetch, deduplicated by _OpView)
# ---------------------------------------------------------------------------


def _first_at_least(keyf, lo: int, hi: int, target: int) -> int:
    """The first of lo..hi-1 whose key is at least target, or hi; keys ascend."""
    while lo < hi:
        mid = (lo + hi) // 2
        if keyf(mid) < target:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _off_run(view: _OpView, n: int, r: int) -> int | None:
    """An index whose cell does not hold r, when C[0] = C[1] = C[n-1] = r,
    galloping from both ends: probes 2, 4, 8, ... and n-2, n-3, n-5, n-9, ...
    The non-r cells form one block strictly inside the array, and one of
    the probes lands in it whenever r holds less than about 2/3 of the
    cells; None when none does."""
    d = 1
    while d < n:
        for x in (d, n - 1 - d):
            if 1 < x < n - 1 and view.value(x) != r:
                return x
        d *= 2
    return None


def _frame(view: _OpView, n: int, N: int) -> tuple[int, int]:
    """(s, A): read cyclically from index s, the cells are sorted under
    g(x) = (x - A) mod N.  Cells 0..s-1 all hold r = Dec(C[0]), and g puts
    r last when r's run wraps."""
    r = view.value(0)
    if n == 1 or view.value(n - 1) != r:
        return 0, r
    if view.value(1) != r:
        return 1, (r + 1) % N
    # deep wrap: C[0] = C[1] = C[n-1] = r; read every cell, decrypt few
    view.read_all(n)
    x = _off_run(view, n, r)
    if x is None:  # r holds most cells, or all of them (then any s works)
        s = next((j for j in range(2, n - 1) if view.value(j) != r), 0)
    else:
        s = _first_at_least(lambda j: view.value(j) != r, 2, x, True)
    return s, (r + 1) % N


def _reading(view: _OpView, n: int, N: int, s: int, A: int):
    """g at reading position p of the frame (s, A): position p < n-s is
    index s+p; the s positions after those hold r, where g = N-1, so they
    need no probe."""
    return lambda p: (view.value(s + p) - A) % N if p < n - s else N - 1


def _rotation(view: _OpView, n: int, dom: Domain) -> int:
    """Index of the first cell in sorted reading order: the first value
    below A read from s, or s itself when there is none.  Each probe asks
    whether a plaintext is below A, so A = 0, where none is, probes as a
    store with its smallest value at s does."""
    if n == 1:
        return 0
    s, A = _frame(view, n, dom.size)
    w = _first_at_least(lambda j: view.value(j) < A, s, n, True)
    return s if w == n else w


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def insert(key: SecretKey, session, m: int, dom: Domain, coins: CoinSource | None = None) -> int:
    """Run the interactive insert protocol; returns the new store size.

    The slot is found by binary search over the n+1 reading positions of
    _frame's (s, A), flipping a coin whenever the probed cell equals m so
    ties are broken at every level.  Reading position p is slot s+p, or
    s+p-n past the end.  The one INSERT_AT request names the slot; how the
    store lays the cell out (a dense array re-rotated by the server, or a
    sparse index between its neighbours) is the server's business.
    """
    _check_plaintext(m, dom, "plaintext")
    if coins is None:
        coins = CoinSource()
    n = session.length()
    cell = encrypt(key, m, dom.size)
    if n == 0:
        session.insert_at(0, cell)
        return 1
    view = _OpView(key, session, dom)
    N = dom.size
    s, A = _frame(view, n, N)
    g, gm = _reading(view, n, N, s, A), (m - A) % N

    def before(p: int) -> bool:  # m goes before reading position p
        v = g(p)
        return v > gm or (v == gm and not coins.bit())

    p = _first_at_least(before, 0, n, True)
    session.insert_at(s + p if s + p <= n else s + p - n, cell)
    return n + 1


def search_range(key: SecretKey, session, q: RangeQuery, dom: Domain) -> RangeResult:
    """Indices of all cells whose value lies in the cyclic interval [a, b]."""
    _check_plaintext(q.a, dom, "range start")
    _check_plaintext(q.b, dom, "range end")
    n = session.length()
    if n == 0:
        return RangeResult(())
    view = _OpView(key, session, dom)
    a, b = q.a, q.b
    r = view.value(0)
    if n > 1 and view.value(n - 1) == r == view.value(1):  # deep wrap
        segments = _segments_scan(view, n, dom, a, b)
    else:
        segments = _segments(view, n, dom.size, *_frame(view, n, dom.size), a, b)
    for lo, hi in segments:
        if not in_cyclic_range(view.value(lo), a, b, dom) or not in_cyclic_range(
            view.value(hi), a, b, dom
        ):
            return RangeResult(())  # boundary cell outside the range: no match
    return RangeResult(tuple(segments))


def _segments(view, n, N, s, A, a, b):
    """Bisect g over indices s..n-1 (cells 0..s-1 hold r, the maximum), take
    the one cyclic run of matches in reading order, split it at index n-1."""
    ga, gb = (a - A) % N, (b - A) % N
    # the s positions after n-s hold r, where g = N-1, so they match
    # exactly when gb = N-1
    g = _reading(view, n, N, s, A)
    first = _first_at_least(g, 0, n - s, ga)
    last = n - 1 if gb == N - 1 else _first_at_least(g, 0, n - s, gb + 1) - 1
    if ga <= gb:
        count = last - first + 1
    else:  # matches at both ends of the reading order: one run through its end
        count = min(n, n - first + last + 1)
    if count <= 0:
        return []
    if count == n:
        return [(0, n - 1)]
    lo = (s + first) % n
    hi = lo + count - 1
    return [(lo, hi)] if hi < n else [(0, hi - n), (lo, n - 1)]


def _segments_scan(view, n, dom, a, b):
    """Deep boundary wrap: filter every cell, read one cell per request."""
    matches = [j for j in range(n) if in_cyclic_range(view.value(j), a, b, dom)]
    runs: list[list[int]] = []
    for j in matches:
        if runs and runs[-1][1] == j - 1:
            runs[-1][1] = j
        else:
            runs.append([j, j])
    if len(runs) > 2 or (len(runs) == 2 and (runs[0][0] != 0 or runs[1][1] != n - 1)):
        raise ProtocolError("cells are not a rotation of a sorted multiset")
    return [tuple(run) for run in runs]


def top_k(key: SecretKey, session, k: int, dom: Domain) -> list[int]:
    """The k smallest stored values, ascending: the rotation start plus one
    range read of k cells, or, when finding the start read the whole store,
    its k cells from there."""
    n = session.length()
    if not 1 <= k <= n:
        raise ProtocolError(f"k must be in [1, {n}], got {k}")
    view = _OpView(key, session, dom)
    out = view.values(_rotation(view, n, dom), k, n)
    if any(x > y for x, y in zip(out, out[1:])):
        raise ProtocolError("cells are not a rotation of a sorted multiset")
    return out


def read_values(key: SecretKey, session, result: RangeResult, dom: Domain) -> list[tuple[int, int]]:
    """Fetch and decrypt every cell of a search result, as (index, value),
    with one range read per segment."""
    view = _OpView(key, session, dom)
    out = []
    for lo, hi in result.segments:
        # a segment never wraps, so hi + 1 serves as the store size
        out += zip(range(lo, hi + 1), view.values(lo, hi - lo + 1, hi + 1))
    return out
