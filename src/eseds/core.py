"""Client-side protocol logic: interactive insert, range search, top-k.

The server holds an array of opaque cells whose decryptions are always a
cyclic rotation of the sorted multiset of inserted values.  The client keeps
no state between operations, and each operation is a generator of requests
that does no I/O itself (the sans-I/O shape): it yields one GetRange,
Length or InsertAt per frame and is sent back the reply's payload (cells,
count, or OK data), so a list of cells can answer it.  One driver, _run,
sends each request through ``session.request``: ``transport.answer``
checks each reply against the protocol, and _run only the cells' width.

Every order comparison happens in one reading frame (s, A), found by
_frame: read cyclically from index s, the cells are sorted under
g(x) = (x - A) mod N.  With r = Dec(C[0]) the frame is s = 0, A = r unless
the run of r-cells wraps past the end of the array (C[n-1] = r).  Then
A = r + 1, so that r sorts last, and s is the first index that does not
hold r: 1 when C[1] != r, otherwise (a deep wrap) the client reads the
whole store and finds s locally: a search reads it one cell per request,
top-k and insert in runs of READ_RUN cells.  Finding s takes O(log n)
decrypts while the run of r holds at most about 2/3 of the cells, and up
to n past that.  Search, insert and top-k then bisect g over reading
positions, with O(log n) probes, or O(log n) decrypts in the copy of a
deeply wrapped store.  On distinct values no run wraps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import chain

from . import transport
from .cipher import CELL_LEN, SecretKey, decrypt, encrypt
from .transport import Cells, GetRange, InsertAt, Length, TransportError, answer


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


#: cells per GET_RANGE when top-k or insert reads the whole store; the
#: runs bound the size of each frame
READ_RUN = 4096


def _run(session, op):
    """Run the request generator ``op`` over ``session`` and return what it
    returns.  ``transport.answer`` checks each reply against the protocol's
    request table; the driver adds that cells are CELL_LEN bytes wide."""
    request, payload = session.request, None
    try:
        while True:
            msg = op.send(payload)
            payload = answer(msg, resp := request(msg))
            if type(resp) is Cells and resp.width != CELL_LEN:
                raise TransportError(f"asked for cells of {CELL_LEN} bytes, got cells of {resp.width}")
    except StopIteration as stop:
        return stop.value


def _read(start: int, count: int, n: int, run: int = 0):
    """``count`` cells read cyclically from ``start`` of an ``n``-cell store,
    ``run`` per GET_RANGE, or as many as the frame cap allows."""
    run = run or max(1, (transport.MAX_FRAME - transport.CELLS_OVERHEAD) // CELL_LEN)
    parts, end = [], start + count
    for i in range(start, end, run):  # no min(): a deep-wrap search sends n requests
        parts.append((yield GetRange(i % n, run if i + run <= end else end - i)))
    return b"".join(parts)


class _OpView:
    """Per-operation cell reader, whose reads are generators.  ``value``
    caches each probed index, so a distinct index costs one one-cell
    GET_RANGE; ``values`` reads a run of cells with one GET_RANGE per frame
    and caches nothing.  After ``read_all`` the view is local: it holds the
    n cells' bytes as one block, and both slice a cell out of it only to
    decrypt it, without yielding a request.  No session is involved."""

    def __init__(self, key: SecretKey, dom: Domain):
        self._key, self._dom = key, dom
        self._values: dict[int, int] = {}
        self._block: bytes | None = None

    def read_all(self, n: int, run: int):
        """Fetch all ``n`` cells in index order, ``run`` cells per GET_RANGE."""
        self._block = yield from _read(0, n, n, run)

    def value(self, j: int):
        v = self._values.get(j)
        if v is None:
            block = self._block
            if block is None:
                cell = yield GetRange(j, 1)
            else:
                cell = block[j * CELL_LEN : (j + 1) * CELL_LEN]
            v = self._values[j] = decrypt(self._key, cell)
            if v >= self._dom.size:
                raise ProtocolError(f"cell {j} decrypts outside the domain")
        return v

    def values(self, start: int, count: int, n: int):
        """Values of ``count`` cells read cyclically from ``start`` of ``n`` cells."""
        if self._block is None:
            block, first = (yield from _read(start, count, n)), 0
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


def _check_plaintext(m: int, dom: Domain, what: str) -> None:
    if not 0 <= m < dom.size:
        raise ProtocolError(f"{what} {m} outside domain [0, {dom.size})")


# ---------------------------------------------------------------------------
# bisection (every probe is one cell fetch, deduplicated by _OpView)
# ---------------------------------------------------------------------------


def _first_at_least(keyf, lo: int, hi: int, target: int):
    """The first of lo..hi-1 whose key is at least target, or hi; keys
    ascend, and ``keyf`` is a generator function."""
    while lo < hi:
        mid = (lo + hi) // 2
        if (yield from keyf(mid)) < target:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _frame(view: _OpView, n: int, N: int, run: int):
    """(s, A): read cyclically from index s, the cells are sorted under
    g(x) = (x - A) mod N.  Cells 0..s-1 all hold r = Dec(C[0]), and g puts
    r last when r's run wraps.  A deep wrap reads the store ``run`` cells
    per GET_RANGE."""
    r = yield from view.value(0)
    if n == 1 or (yield from view.value(n - 1)) != r:
        return 0, r
    if (yield from view.value(1)) != r:
        return 1, (r + 1) % N
    # deep wrap: C[0] = C[1] = C[n-1] = r, and the other values form one
    # block strictly inside.  Read every cell, find a cell of the block
    # galloping from both ends (2, 4, 8, ... and n-2, n-3, n-5, n-9, ...),
    # which lands in it with O(log n) decrypts whenever r holds less than
    # about 2/3 of the cells, else one cell at a time from index 2, and
    # bisect for the block's start.  When every cell holds r, any s works.
    yield from view.read_all(n, run)

    def off(j):
        return (yield from view.value(j)) != r

    gallop = [x for i in range(n.bit_length()) for x in (1 << i, n - 1 - (1 << i)) if 1 < x < n - 1]
    for x in chain(gallop, range(2, n - 1)):
        if (yield from off(x)):
            return (yield from _first_at_least(off, 2, x, True)), (r + 1) % N
    return 0, (r + 1) % N


def _reading(view: _OpView, n: int, N: int, s: int, A: int, p: int):
    """g at reading position p of the frame (s, A): position p < n-s is
    index s+p; the s positions after those hold r, where g = N-1, so they
    need no probe."""
    if p < n - s:
        return ((yield from view.value(s + p)) - A) % N
    return N - 1


def _rotation(view: _OpView, n: int, dom: Domain):
    """Index of the first cell in sorted reading order: the first value
    below A read from s, where g is at least N - A, or s itself when there
    is none.  Each probe asks whether a plaintext is below A, so A = 0,
    where none is, probes as a store with its smallest value at s does."""
    if n == 1:
        return 0
    N = dom.size
    s, A = yield from _frame(view, n, N, READ_RUN)
    p = yield from _first_at_least(partial(_reading, view, n, N, s, A), 0, n - s, N - A)
    return s if p == n - s else s + p


# ---------------------------------------------------------------------------
# operations: each runs its generator of requests through _run
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
    return _run(session, _insert(key, m, dom, coins))


def _insert(key: SecretKey, m: int, dom: Domain, coins: CoinSource | None):
    _check_plaintext(m, dom, "plaintext")
    if coins is None:
        coins = CoinSource()
    n = yield Length()
    cell = encrypt(key, m, dom.size)
    if n == 0:
        yield InsertAt(0, cell)
        return 1
    view, N = _OpView(key, dom), dom.size
    s, A = yield from _frame(view, n, N, READ_RUN)
    gm = (m - A) % N

    def before(p: int):  # m goes before reading position p
        v = yield from _reading(view, n, N, s, A, p)
        return v > gm or (v == gm and not coins.bit())

    p = yield from _first_at_least(before, 0, n, True)
    yield InsertAt(s + p if s + p <= n else s + p - n, cell)
    return n + 1


def search_range(key: SecretKey, session, q: RangeQuery, dom: Domain) -> RangeResult:
    """Indices of all cells whose value lies in the cyclic interval [a, b]."""
    return _run(session, _search_range(key, q, dom))


def _search_range(key: SecretKey, q: RangeQuery, dom: Domain):
    _check_plaintext(q.a, dom, "range start")
    _check_plaintext(q.b, dom, "range end")
    n = yield Length()
    if n == 0:
        return RangeResult(())
    view, a, b = _OpView(key, dom), q.a, q.b
    # a deep wrap reads every index with one-cell reads, as a scan would
    s, A = yield from _frame(view, n, dom.size, 1)
    segments = yield from _segments(view, n, dom.size, s, A, a, b)
    for j in chain(*segments):  # a boundary cell outside the range: no match
        if not in_cyclic_range((yield from view.value(j)), a, b, dom):
            return RangeResult(())
    return RangeResult(tuple(segments))


def _segments(view, n, N, s, A, a, b):
    """Bisect g over indices s..n-1 (cells 0..s-1 hold r, the maximum), take
    the one cyclic run of matches in reading order, split it at index n-1.
    Both bisections always run, and ga = 0 bisects as ga = N: the probes
    show where the matches lie, not whether a = A or b + 1 = A."""
    ga, gb = (a - A) % N, (b - A) % N
    g = partial(_reading, view, n, N, s, A)
    first = yield from _first_at_least(g, 0, n - s, ga or N)
    last = yield from _first_at_least(g, 0, n - s, gb + 1)
    # the s positions after n-s hold r, where g = N-1, so they match
    # exactly when gb = N-1
    first, last = (first if ga else 0), (last - 1 if gb < N - 1 else n - 1)
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


def top_k(key: SecretKey, session, k: int, dom: Domain) -> list[int]:
    """The k smallest stored values, ascending: the rotation start plus one
    range read of k cells, or, when finding the start read the whole store,
    its k cells from there."""
    return _run(session, _top_k(key, k, dom))


def _top_k(key: SecretKey, k: int, dom: Domain):
    n = yield Length()
    if not 1 <= k <= n:
        raise ProtocolError(f"k must be in [1, {n}], got {k}")
    view = _OpView(key, dom)
    out = yield from view.values((yield from _rotation(view, n, dom)), k, n)
    if any(x > y for x, y in zip(out, out[1:])):
        raise ProtocolError("cells are not a rotation of a sorted multiset")
    return out


def read_values(key: SecretKey, session, result: RangeResult, dom: Domain) -> list[tuple[int, int]]:
    """Fetch and decrypt every cell of a search result, as (index, value),
    with one range read per segment."""
    return _run(session, _read_values(key, result, dom))


def _read_values(key: SecretKey, result: RangeResult, dom: Domain):
    view = _OpView(key, dom)
    out = []
    for lo, hi in result.segments:
        # a segment never wraps, so hi + 1 serves as the store size
        out += zip(range(lo, hi + 1), (yield from view.values(lo, hi - lo + 1, hi + 1)))
    return out
