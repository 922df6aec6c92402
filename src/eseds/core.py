"""Client-side protocol logic: interactive insert, range search, top-k.

The server holds an array of opaque cells whose decryptions are always a
cyclic rotation of the sorted multiset of inserted values.  The client keeps
no state between operations; every operation rediscovers what it needs by
fetching cells and decrypting them locally.  Binary-search probes and the
search and insert scan fallbacks read one cell per request; top-k and the
read-back of a search result read each run of consecutive cells with one
GET_RANGE.

All order comparisons happen in the frame of r = Dec(C[0]): the map
f(x) = (x - r) mod N straightens the rotation out, because the cell array
read in index order is sorted under f whenever the value run containing
C[0] does not wrap past the end of the array.  When it does wrap (C[0] and
C[n-1] decrypt equal), the cells holding r itself sort to the wrong end;
if C[1] != r the run contributes exactly one leading cell and the window
1..n-1 is still sorted under the patched key K(x) = N for x = r, f(x)
otherwise.  Deeper wraps (C[1] = r too) leave no order that probes of
single cells can use.  Searches and inserts then scan every cell.  Finding
the rotation start (top-k and the find_* lookups) reads every cell too, but
in ranged runs of READ_RUN cells, and decrypts only O(log n) of them
locally: any cell x that does not hold r ends the leading run of r-cells,
so bisection finds the first non-r index s, and the window s..n-1 is sorted
under K.  The fallbacks preserve correctness; the logarithmic round-trip
bounds hold on stores where the boundary run is short (always true for
distinct values).
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


def mod_less(x: int, y: int, r: int, dom: Domain) -> bool:
    """Strict order of x before y in the frame anchored at r."""
    return (x - r) % dom.size < (y - r) % dom.size


def in_cyclic_range(v: int, a: int, b: int, dom: Domain) -> bool:
    """Membership of v in the cyclic inclusive interval [a, b]."""
    return (v - a) % dom.size <= (b - a) % dom.size


#: cells per GET_RANGE when an operation reads the whole store; the runs
#: bound the size of each frame and of each decoded batch of cells
READ_RUN = 4096


class _OpView:
    """Per-operation cell reader.  ``value`` caches each probed index, so a
    distinct index costs one one-cell GET_RANGE; ``values`` reads a run of
    cells with one GET_RANGE per frame and caches nothing.  After
    ``read_all`` the view is local: it holds every cell's bytes, and both
    decrypt from them on demand without sending a request."""

    def __init__(self, key: SecretKey, session, dom: Domain):
        self._key = key
        self._session = session
        self._dom = dom
        self._values: dict[int, int] = {}
        self._cells: list[bytes] | None = None

    def read_all(self, n: int) -> None:
        """Fetch all ``n`` cells in index order, READ_RUN cells per GET_RANGE."""
        cells: list[bytes] = []
        for start in range(0, n, READ_RUN):
            cells += self._session.get_range(start, min(READ_RUN, n - start), n, CELL_LEN)
        if len(cells) != n:
            raise ProtocolError(f"read {len(cells)} cells from a store of {n}")
        self._cells = cells

    def value(self, j: int) -> int:
        if j not in self._values:
            cell = self._session.get_cell(j) if self._cells is None else self._cells[j]
            self._values[j] = self._decrypt(j, cell)
        return self._values[j]

    def values(self, start: int, count: int, n: int) -> list[int]:
        """Values of ``count`` cells read cyclically from ``start`` of an
        ``n``-cell store."""
        if self._cells is None:
            cells = self._session.get_range(start, count, n, CELL_LEN)
        else:
            cells = [self._cells[(start + i) % n] for i in range(count)]
        return [self._decrypt((start + i) % n, cell) for i, cell in enumerate(cells)]

    def _decrypt(self, j: int, cell: bytes) -> int:
        v = decrypt(self._key, cell)
        if v >= self._dom.size:
            raise ProtocolError(f"cell {j} decrypts outside the domain")
        return v


def _check_plaintext(m: int, dom: Domain, what: str) -> None:
    if not 0 <= m < dom.size:
        raise ProtocolError(f"{what} {m} outside domain [0, {dom.size})")


# ---------------------------------------------------------------------------
# bisection helpers (every probe is one cell fetch, deduplicated by _OpView)
# ---------------------------------------------------------------------------


def _first_at_least(keyf, lo: int, hi: int, target: int) -> int:
    while lo < hi:
        mid = (lo + hi) // 2
        if keyf(mid) < target:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _first_greater(keyf, lo: int, hi: int, target: int) -> int:
    while lo < hi:
        mid = (lo + hi) // 2
        if keyf(mid) <= target:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _rotation_starts(values: list[int]) -> list[int]:
    """Every w such that values[w:] + values[:w] is sorted.  A rotation of a
    sorted multiset has at most one cyclic descent: with none all values are
    equal and every w works, with one at i only w = i+1 does, with more none."""
    n = len(values)
    descents = [i for i in range(n) if values[i] > values[(i + 1) % n]]
    if not descents:
        return list(range(n))
    return [(descents[0] + 1) % n] if len(descents) == 1 else []


def _scan_rotation(view: _OpView, n: int) -> int:
    values = [view.value(j) for j in range(n)]
    starts = _rotation_starts(values)
    if not starts:
        raise ProtocolError("cells are not a rotation of a sorted multiset")
    return 0 if len(starts) == n else starts[0]


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


def _rotation(view: _OpView, n: int, dom: Domain) -> int:
    """Index of the first cell in sorted reading order."""
    if n == 1:
        return 0
    N = dom.size
    r = view.value(0)
    if view.value(n - 1) != r:
        f = lambda j: (view.value(j) - r) % N
        idx = _first_at_least(f, 0, n, (N - r) % N)
        return 0 if idx == n else idx
    if n == 2:
        return 0  # both cells hold r
    if view.value(1) != r:
        lo = 1
    else:  # deep wrap: C[0] = C[1] = C[n-1] = r; read every cell, decrypt few
        view.read_all(n)
        x = _off_run(view, n, r)
        if x is None:
            return _scan_rotation(view, n)
        lo = _first_at_least(lambda j: view.value(j) != r, 2, x, True)
    # cells lo..n-1 are the non-r block followed by the trailing r-cells
    K = lambda j: N if view.value(j) == r else (view.value(j) - r) % N
    return _first_at_least(K, lo, n, N if r == 0 else N - r)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def insert(key: SecretKey, session, m: int, dom: Domain, coins: CoinSource | None = None) -> int:
    """Run the interactive insert protocol; returns the new store size.

    The slot is found by binary search over the n+1 possible positions in
    the frame of r = Dec(C[0]), flipping a coin whenever the probed cell
    equals m so ties are broken at every level.  A probe at index >= 1 that
    decrypts to r means the boundary run wraps and the frame order is not
    trustworthy; the protocol then falls back to scanning all cells and
    picking uniformly among the order-preserving slots.  The one INSERT_AT
    request names the slot; how the store lays the cell out (a dense array
    re-rotated by the server, or a sparse index between its neighbours) is
    the server's business.
    """
    _check_plaintext(m, dom, "plaintext")
    if coins is None:
        coins = CoinSource()
    n = session.length()
    cell = encrypt(key, m, dom.size).to_bytes()
    if n == 0:
        session.insert_at(0, cell)
        return 1
    view = _OpView(key, session, dom)
    N = dom.size
    r = view.value(0)
    fm = (m - r) % N
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        v = view.value(mid)
        if mid >= 1 and v == r:
            lo = _scan_slot(view, n, m, coins)
            break
        if v == m:
            if coins.bit():
                lo = mid + 1
            else:
                hi = mid
        elif (v - r) % N < fm:
            lo = mid + 1
        else:
            hi = mid
    session.insert_at(lo, cell)
    return n + 1


def _scan_slot(view: _OpView, n: int, m: int, coins: CoinSource) -> int:
    """Slot choice when the boundary run wraps: scan, then pick uniformly
    among the cyclic positions that keep the array a rotation of sorted."""
    from bisect import bisect_left, bisect_right

    w = _scan_rotation(view, n)
    ds = sorted(view.value(j) for j in range(n))
    slots = sorted({(w + t) % n for t in range(bisect_left(ds, m), bisect_right(ds, m) + 1)})
    return slots[coins.randrange(len(slots))]


def search_range(key: SecretKey, session, q: RangeQuery, dom: Domain) -> RangeResult:
    """Indices of all cells whose value lies in the cyclic interval [a, b]."""
    _check_plaintext(q.a, dom, "range start")
    _check_plaintext(q.b, dom, "range end")
    n = session.length()
    if n == 0:
        return RangeResult(())
    view = _OpView(key, session, dom)
    N = dom.size
    a, b = q.a, q.b
    if n == 1:
        hit = in_cyclic_range(view.value(0), a, b, dom)
        return RangeResult(((0, 0),) if hit else ())
    r = view.value(0)
    fa, fb = (a - r) % N, (b - r) % N
    if view.value(n - 1) != r:
        segments = _segments_plain_frame(view, n, N, r, fa, fb)
    elif n > 2 and view.value(1) != r:
        segments = _segments_patched_frame(view, n, N, r, fa, fb)
    else:
        segments = _segments_scan(view, n, dom, a, b)
    for lo, hi in segments:
        if not in_cyclic_range(view.value(lo), a, b, dom) or not in_cyclic_range(
            view.value(hi), a, b, dom
        ):
            return RangeResult(())  # boundary cell outside the range: no match
    return RangeResult(tuple(segments))


def _segments_plain_frame(view, n, N, r, fa, fb):
    """No wrap: the cell array is sorted under f in index order."""
    f = lambda j: (view.value(j) - r) % N
    jmin = _first_at_least(f, 0, n, fa)
    jmax = _first_greater(f, 0, n, fb) - 1
    if fa <= fb:
        return [(jmin, jmax)] if jmin <= jmax else []
    # the query interval crosses the frame origin: tail of the frame, then head
    if jmin <= jmax + 1:
        return [(0, n - 1)]
    out = []
    if jmax >= 0:
        out.append((0, jmax))
    if jmin <= n - 1:
        out.append((jmin, n - 1))
    return out


def _segments_patched_frame(view, n, N, r, fa, fb):
    """Boundary run wraps with a single leading cell: C[0] = C[n-1] = r and
    C[1] != r.  Indices 1..n-1 are sorted under K (r patched to sort last)."""
    K = lambda j: N if view.value(j) == r else (view.value(j) - r) % N
    r_in_query = fa > fb or fa == 0
    if not r_in_query:
        jmin = _first_at_least(K, 1, n, fa)
        jmax = _first_greater(K, 1, n, fb) - 1
        return [(jmin, jmax)] if jmin <= jmax else []
    tail_lo = _first_at_least(K, 1, n, N if fa == 0 else fa)
    head_hi = 0 if fb == 0 else _first_greater(K, 1, n, fb) - 1
    if tail_lo <= head_hi + 1:
        return [(0, n - 1)]
    return [(0, head_hi), (tail_lo, n - 1)]


def _segments_scan(view, n, dom, a, b):
    """Deep boundary wrap: no usable order; filter every cell."""
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


def find_jmin(key: SecretKey, session, a: int, dom: Domain) -> int:
    """Index of the first cell, in sorted reading order, with value >= a;
    n when every stored value is smaller."""
    _check_plaintext(a, dom, "bound")
    n = session.length()
    if n == 0:
        raise ProtocolError("empty store")
    view = _OpView(key, session, dom)
    w = _rotation(view, n, dom)
    pos = _first_at_least(lambda p: view.value((w + p) % n), 0, n, a)
    return n if pos == n else (w + pos) % n


def find_jmax(key: SecretKey, session, b: int, dom: Domain) -> int:
    """Index of the last cell, in sorted reading order, with value <= b;
    -1 when every stored value is larger."""
    _check_plaintext(b, dom, "bound")
    n = session.length()
    if n == 0:
        raise ProtocolError("empty store")
    view = _OpView(key, session, dom)
    w = _rotation(view, n, dom)
    pos = _first_greater(lambda p: view.value((w + p) % n), 0, n, b) - 1
    return -1 if pos < 0 else (w + pos) % n


def find_rotation(key: SecretKey, session, dom: Domain) -> int:
    """Index where the sorted reading order starts (0 for an all-equal store)."""
    n = session.length()
    if n == 0:
        raise ProtocolError("empty store")
    view = _OpView(key, session, dom)
    return _rotation(view, n, dom)


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
