"""Client-side protocol logic: cyclic frame comparisons, insert placement,
range search, rotation discovery, top-k."""

import math
import random

import pytest

from eseds import core, transport
from eseds.cipher import decrypt, encrypt, keygen
from eseds.core import (
    CoinSource,
    Domain,
    ProtocolError,
    RangeQuery,
    RangeResult,
    in_cyclic_range,
    insert,
    read_values,
    search_range,
    top_k,
)
from eseds.store import DenseStore
from eseds.transport import Cells, GetRange, InsertAt, Length, LocalSession, Ok, ServerError, TransportError, decode

from helpers import (
    RecordingSession,
    bisection_probes,
    brute_match_indices,
    chi_square_uniform_p,
    in_cyclic,
    is_rotation_of_sorted,
    order_preserving_slots,
    rotation_starts,
)
from instancelib import decrypt_all, direct_session, direct_store, insert_all

D8 = Domain(8)
D16 = Domain(16)


# ---------------------------------------------------------------------------
# frame arithmetic
# ---------------------------------------------------------------------------


def test_in_cyclic_range_matches_oracle():
    rng = random.Random(2)
    for _ in range(500):
        n = rng.randrange(2, 40)
        v, a, b = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        assert in_cyclic_range(v, a, b, Domain(n)) == in_cyclic(v, a, b, n)


def test_domain_and_query_types():
    assert Domain.from_bits(4).size == 16
    with pytest.raises(ProtocolError):
        Domain(0)
    r = RangeResult(((0, 1), (3, 3)))
    assert r.indices() == [0, 1, 3]
    assert r.count == 3
    assert bool(r) and not RangeResult(())


def test_coin_source_is_seedable():
    a, b = CoinSource(9), CoinSource(9)
    seq = [(a.bit(), a.randrange(7)) for _ in range(20)]
    assert seq == [(b.bit(), b.randrange(7)) for _ in range(20)]
    assert set(x for x, _ in seq) <= {0, 1}


# ---------------------------------------------------------------------------
# insert
# ---------------------------------------------------------------------------


def test_insert_into_empty_store_lands_at_index_0(key):
    store = DenseStore(rng=random.Random(0))
    session = LocalSession(store)
    assert insert(key, session, 5, D16, coins=CoinSource(0)) == 1
    assert decrypt_all(key, store) == [5]


def test_insert_multiset_gives_rotation_of_sorted(key):
    orders = [[1, 3, 3, 7], [7, 3, 1, 3], [3, 7, 3, 1], [3, 1, 7, 3]]
    rotations = {(1, 3, 3, 7), (3, 3, 7, 1), (3, 7, 1, 3), (7, 1, 3, 3)}
    for i, order in enumerate(orders):
        _, store = insert_all(key, order, D8, seed=i)
        assert tuple(decrypt_all(key, store)) in rotations


def test_insert_equal_value_joins_the_run(key):
    session = direct_session(key, [3, 7, 1, 3], D8)
    assert insert(key, session, 3, D8, coins=CoinSource(4)) == 5
    got = decrypt_all(key, session.store)
    assert sorted(got) == [1, 3, 3, 3, 7]
    assert is_rotation_of_sorted(got)


def test_insert_keeps_invariant_under_random_streams(key):
    rng = random.Random(11)
    for trial in range(60):
        dom = Domain(rng.randrange(2, 17))
        values = [rng.randrange(dom.size) for _ in range(rng.randrange(1, 30))]
        _, store = insert_all(key, values, dom, seed=trial)
        got = decrypt_all(key, store)
        assert sorted(got) == sorted(values)
        assert is_rotation_of_sorted(got)


def test_insert_rejects_out_of_domain(key):
    session = direct_session(key, [1], D8)
    from eseds.cipher import CipherError

    with pytest.raises((ProtocolError, CipherError)):
        insert(key, session, 8, D8)


def _recover_slot(pre_cells, post_store):
    """Which logical slot the new cell went into, from the raw cell bytes."""
    post = [post_store.get_cell(j) for j in range(len(post_store))]
    (new_cell,) = set(post) - set(pre_cells)
    for slot in range(len(pre_cells) + 1):
        cand = pre_cells[:slot] + [new_cell] + pre_cells[slot:]
        for s in range(len(cand)):
            if cand[s:] + cand[:s] == post:
                return slot
    raise AssertionError("post-insert array is not an insert+rotation of the old one")


def test_insert_tie_break_spread_matches_coin_analysis(key):
    # the slot bisection resolves ties by coin.  Inserting 5 into [1,5,5,9]
    # lands in slots 1, 2, 3 with (1/4, 1/4, 1/2).  In [1,2,1] the run of
    # 1s wraps: the frame reads 2,1,1 from index 1, so inserting 1 lands at
    # reading positions 1, 2, 3, which are slots 2, 3 (the same cyclic
    # place as 0) and 1, with (1/2, 1/4, 1/4)
    from scipy import stats

    trials = 6000
    rng = random.Random(21)
    for values, m, spread in (([1, 5, 5, 9], 5, {1: 1 / 4, 2: 1 / 4, 3: 1 / 2}),
                              ([1, 2, 1], 1, {0: 1 / 4, 1: 1 / 4, 2: 1 / 2})):
        counts = dict.fromkeys(spread, 0)
        for _ in range(trials):
            store = direct_store(key, values, D16)
            pre = [store.get_cell(j) for j in range(len(values))]
            insert(key, LocalSession(store), m, D16, coins=CoinSource(rng.getrandbits(64)))
            counts[_recover_slot(pre, store)] += 1
        assert set(counts) == set(spread), (values, counts)
        expected = [trials * spread[slot] for slot in spread]
        p = float(stats.chisquare([counts[slot] for slot in spread], expected).pvalue)
        assert p > 0.001, (values, counts, p)


def test_insert_on_deep_wrap_keeps_the_order(key):
    # in [3,3,5,1,3] the run of 3s wraps with two cells at the front, so
    # the frame reads the store and the bisection starts at index 2
    session = direct_session(key, [3, 3, 5, 1, 3], D8)
    assert insert(key, session, 2, D8, coins=CoinSource(1)) == 6
    got = decrypt_all(key, session.store)
    assert sorted(got) == [1, 2, 3, 3, 3, 5]
    assert is_rotation_of_sorted(got)


# ---------------------------------------------------------------------------
# range search
# ---------------------------------------------------------------------------


def test_search_pinned_cases(key):
    session = direct_session(key, [3, 7, 1, 3], D8)
    assert search_range(key, session, RangeQuery(3, 3), D8).segments == ((0, 0), (3, 3))
    assert search_range(key, session, RangeQuery(4, 6), D8).segments == ()
    session = direct_session(key, [1, 3, 3, 7], D8)
    assert search_range(key, session, RangeQuery(0, 7), D8).segments == ((0, 3),)


def test_search_on_empty_store(key):
    session = LocalSession(DenseStore())
    assert search_range(key, session, RangeQuery(2, 5), D8).segments == ()


def test_search_rejects_out_of_domain(key):
    session = direct_session(key, [1], D8)
    with pytest.raises(ProtocolError):
        search_range(key, session, RangeQuery(0, 8), D8)


@pytest.mark.parametrize(
    "values",
    [
        [2, 2, 2],            # all equal
        [3, 3, 5, 1, 3],      # wrap deeper than one cell: the frame reads the store
        [3, 7, 1, 3],         # wrap by one: frame s = 1, A = r + 1
        [1, 3, 3, 7],         # no wrap: frame s = 0, A = r
        [5],                  # singleton
        [4, 4, 4, 4, 1, 2, 4],
    ],
)
def test_search_equals_brute_filter_on_fixed_layouts(key, values):
    session = direct_session(key, values, D8)
    for a in range(8):
        for b in range(8):
            got = set(search_range(key, session, RangeQuery(a, b), D8).indices())
            assert got == brute_match_indices(values, a, b, 8), (values, a, b)


def test_search_randomized_matches_brute_filter(key):
    rng = random.Random(33)
    for trial in range(120):
        dom = Domain(rng.randrange(2, 17))
        values = [rng.randrange(dom.size) for _ in range(rng.randrange(1, 40))]
        session, store = insert_all(key, values, dom, seed=trial)
        stored = decrypt_all(key, store)
        for _ in range(4):
            a, b = rng.randrange(dom.size), rng.randrange(dom.size)
            got = set(search_range(key, session, RangeQuery(a, b), dom).indices())
            assert got == brute_match_indices(stored, a, b, dom.size)


def test_search_read_values_pairs(key):
    session = direct_session(key, [3, 7, 1, 3], D8)
    result = search_range(key, session, RangeQuery(1, 3), D8)
    pairs = read_values(key, session, result, D8)
    assert pairs == [(0, 3), (2, 1), (3, 3)]


def test_search_returns_empty_on_corrupt_store(key):
    # not a rotation of a sorted multiset; the result validation step must
    # notice the inconsistent endpoints and return nothing
    session = direct_session(key, [4, 2, 9, 1], D16)
    assert search_range(key, session, RangeQuery(2, 2), D16).segments == ()


def test_search_on_a_corrupt_deep_wrap_checks_its_segment_ends(key):
    # C[0] = C[1] = C[n-1] = 1, but the cells are not a rotation of sorted:
    # a search checks the ends of its segments, as on any store, so it
    # raises or returns only segments whose ends lie in [a, b]
    values = [1, 1, 5, 2, 1]
    session = direct_session(key, values, D8)
    for a in range(8):
        for b in range(8):
            try:
                segments = search_range(key, session, RangeQuery(a, b), D8).segments
            except ProtocolError:
                continue
            ends = [values[j] for segment in segments for j in segment]
            assert all(in_cyclic(v, a, b, 8) for v in ends), (a, b, segments)


# ---------------------------------------------------------------------------
# rotation, top-k
# ---------------------------------------------------------------------------


def _rotation(key, session, dom):
    """Index where the sorted reading order starts, as top-k finds it."""
    n = session.request(Length()).count
    return core._run(session, core._rotation(core._OpView(key, dom), n, dom))


def test_find_rotation_pinned_and_oracle(key):
    assert _rotation(key, direct_session(key, [3, 7, 1, 3], D8), D8) == 2
    assert _rotation(key, direct_session(key, [1, 3, 3, 7], D8), D8) == 0
    assert _rotation(key, direct_session(key, [2, 2, 2], D8), D8) == 0
    rng = random.Random(55)
    for trial in range(60):
        dom = Domain(rng.randrange(2, 17))
        values = [rng.randrange(dom.size) for _ in range(rng.randrange(1, 33))]
        session, store = insert_all(key, values, dom, seed=2000 + trial)
        stored = decrypt_all(key, store)
        assert _rotation(key, session, dom) in rotation_starts(stored)


def test_empty_store_lookups_raise(key):
    session = LocalSession(DenseStore())
    with pytest.raises(ProtocolError):
        top_k(key, session, 1, D8)
    with pytest.raises(ServerError, match="out_of_range"):  # there is no cell 0 to read
        _rotation(key, session, D8)


def test_top_k_pinned_and_oracle(key):
    session = direct_session(key, [3, 7, 1, 3], D8)
    assert top_k(key, session, 2, D8) == [1, 3]
    assert top_k(key, direct_session(key, [5], D8), 1, D8) == [5]
    with pytest.raises(ProtocolError):
        top_k(key, direct_session(key, [1, 3, 3, 7], D8), 5, D8)
    with pytest.raises(ProtocolError):
        top_k(key, session, 0, D8)
    rng = random.Random(66)
    for trial in range(40):
        dom = Domain(rng.randrange(2, 17))
        values = [rng.randrange(dom.size) for _ in range(rng.randrange(1, 33))]
        session, _ = insert_all(key, values, dom, seed=3000 + trial)
        k = rng.randrange(1, len(values) + 1)
        assert top_k(key, session, k, dom) == sorted(values)[:k]


def test_top_k_rejects_reads_out_of_order(key):
    # not a rotation of sorted: the rotation probes find start 0, and the
    # range read from there comes back out of order
    session = direct_session(key, [1, 3, 2, 4], D8)
    assert top_k(key, session, 2, D8) == [1, 3]
    with pytest.raises(ProtocolError):
        top_k(key, session, 3, D8)


def _requests(log):
    return [decode(frame) for direction, frame in log if direction == "send"]


def test_top_k_reads_its_cells_with_one_range_request(key):
    dom = Domain(1 << 16)
    values = random.Random(12).sample(range(dom.size), 200)
    cells = [encrypt(key, v, dom.size) for v in sorted(values)]
    log = []
    session = RecordingSession(DenseStore(cells[150:] + cells[:150]), log)
    assert top_k(key, session, 80, dom) == sorted(values)[:80]
    sent = _requests(log)
    assert sent[0] == Length()
    assert all(msg.count == 1 for msg in sent[1:-1])  # the rotation probes
    assert 1 < len(sent) - 2 <= 12  # log2(200) + 4
    assert sent[-1] == GetRange(50, 80)  # wraps past the last cell
    assert session.stats.requests_sent == len(sent)


def test_read_values_sends_one_request_per_segment(key):
    dom = Domain(64)
    values = list(range(0, 64, 2))
    log = []
    session = RecordingSession(direct_store(key, values[5:] + values[:5], dom), log)
    result = search_range(key, session, RangeQuery(2, 12), dom)
    assert result.segments == ((0, 1), (28, 31))
    del log[:]
    pairs = read_values(key, session, result, dom)
    assert _requests(log) == [GetRange(0, 2), GetRange(28, 4)]
    assert pairs == [(0, 10), (1, 12), (28, 2), (29, 4), (30, 6), (31, 8)]


def test_top_k_splits_a_read_larger_than_one_frame(key, monkeypatch):
    dom = Domain(256)
    values = random.Random(13).sample(range(dom.size), 30)
    cells = [encrypt(key, v, dom.size) for v in sorted(values)]
    log = []
    session = RecordingSession(DenseStore(cells[20:] + cells[:20]), log)
    # room for 3 cells of 36 bytes per CELLS frame (opcode, width, cells)
    monkeypatch.setattr(transport, "MAX_FRAME", 5 + 3 * 36)
    assert top_k(key, session, 25, dom) == sorted(values)[:25]
    sent = _requests(log)
    starts = [(10 + 3 * i) % 30 for i in range(9)]
    assert sent[-9:] == [GetRange(s, 3) for s in starts[:8]] + [GetRange(starts[8], 1)]
    assert session.stats.cells_fetched == (len(sent) - 10) + 25  # probes + the k cells


class _ScriptedCoins:
    """Coins that answer from a script, then 0, recording how many outcomes
    each call had."""

    def __init__(self, script):
        self.script, self.arity = script, []

    def bit(self):
        return self.randrange(2)

    def randrange(self, k):
        i = len(self.arity)
        self.arity.append(k)
        return self.script[i] if i < len(self.script) else 0


class _SlotRecorder(RecordingSession):
    """Records the slot of each INSERT_AT and leaves the store as it was."""

    def request(self, msg):
        if type(msg) is not InsertAt:
            return super().request(msg)
        self.slot = msg.l
        return Ok()


def _reachable_slots(key, session, m, dom):
    """Every slot insert can pick for m, over every outcome of its coins."""
    slots, scripts = set(), [[]]
    while scripts:
        script = scripts.pop()
        coins = _ScriptedCoins(script)
        insert(key, session, m, dom, coins=coins)
        slots.add(session.slot)
        for i in range(len(script), len(coins.arity)):
            prefix = script + [0] * (i - len(script))
            scripts += [prefix + [c] for c in range(1, coins.arity[i])]
    return slots


def test_find_rotation_and_top_k_match_oracle_on_every_rotation(key):
    # every rotation, so the boundary run wraps at every depth; the cases
    # cover all-equal stores, one value holding more than 2/3 of the cells
    # (where galloping may find no other cell) and n = 1, 2 and 3; search
    # and insert are checked on the first 40 cases, at r = C[0] and its
    # neighbours, where the frame's order changes, and at one random value
    rng = random.Random(29)
    cases = [[4], [2, 2], [1, 2], [5, 5, 5], [1, 1, 2], [0, 3, 3], [3] * 9,
             [1] + [6] * 20 + [7], [0, 0] + [5] * 30]
    for _ in range(120):
        size = rng.randrange(1, 9)
        weights = [rng.random() ** 3 for _ in range(size)]
        cases.append(sorted(rng.choices(range(size), weights, k=rng.randrange(1, 40))))
    for i, ordered in enumerate(cases):
        dom = Domain(max(ordered) + 1)
        cells = [encrypt(key, v, dom.size) for v in ordered]
        n = len(ordered)
        for w in range(n):
            values = ordered[w:] + ordered[:w]
            session = LocalSession(DenseStore(cells[w:] + cells[:w]))
            starts = rotation_starts(values)
            assert _rotation(key, session, dom) == (0 if len(starts) == n else starts[0]), values
            k = 1 + w % n
            assert top_k(key, session, k, dom) == ordered[:k], values
            if i >= 40:
                continue
            N, r, x = dom.size, values[0], rng.randrange(dom.size)
            for a in {r, (r + 1) % N, x}:
                for b in {(r - 1) % N, r, x}:
                    got = search_range(key, session, RangeQuery(a, b), dom).indices()
                    assert set(got) == brute_match_indices(values, a, b, N), (values, a, b)
            recorder = _SlotRecorder(session.store)
            for m in {r, x}:
                got = {l % n for l in _reachable_slots(key, recorder, m, dom)}
                if m != r and len(set(values)) == 1:
                    # the frame sorts r last, so a new value goes before
                    # the whole run, at slot 0, though every slot keeps
                    # the order
                    assert got and got <= order_preserving_slots(values, m), (values, m)
                else:
                    assert got == order_preserving_slots(values, m), (values, m)


def _deep_wrapped_zipf(key):
    """n = 10^4 Zipf values over 64, rotated so that index 0 lands mid-run
    of 0s: C[0] = C[1] = C[n-1] = 0."""
    dom = Domain(64)
    rng = random.Random(44)
    ordered = sorted(rng.choices(range(dom.size), [1 / (v + 1) for v in range(dom.size)], k=10_000))
    w = len(ordered) - ordered.count(0) // 2
    cells = [encrypt(key, v, dom.size) for v in ordered]
    log = []
    return dom, ordered, w, RecordingSession(DenseStore(cells[-w:] + cells[:-w]), log), log


def test_deep_wrapped_top_k_reads_every_cell_in_ranged_runs(key):
    dom, ordered, w, session, log = _deep_wrapped_zipf(key)
    n = len(ordered)
    assert top_k(key, session, 10, dom) == ordered[:10]
    sent = _requests(log)
    assert len(sent) <= 4 + -(-n // core.READ_RUN)
    read = {(msg.start + i) % n for msg in sent[1:] for i in range(msg.count)}
    assert read == set(range(n))  # the index set of a one-cell scan
    assert GetRange(w, 10) not in sent
    assert session.stats.cells_fetched == n + 3  # the three probes read again


def test_deep_wrapped_search_reads_every_index_with_one_cell_reads(key):
    # after LENGTH and the probes of C[0], C[n-1] and C[1], the frame reads
    # the store from index 0 one cell per request, as a scan would, and
    # both bisections run in that copy without sending anything
    dom, ordered, w, session, log = _deep_wrapped_zipf(key)
    n = len(ordered)
    values = ordered[-w:] + ordered[:-w]
    for a, b in ((0, 0), (1, 3), (5, 0)):
        del log[:]
        got = search_range(key, session, RangeQuery(a, b), dom).indices()
        assert got == sorted(brute_match_indices(values, a, b, dom.size)), (a, b)
        assert _requests(log) == [Length()] + [GetRange(j, 1) for j in [0, n - 1, 1, *range(n)]]


def test_deep_wrapped_insert_reads_the_store_in_ranged_runs(key):
    # the frame sends LENGTH, C[0], C[n-1] and C[1], then reads the store
    # in ranged runs; the bisection decrypts locally, and INSERT_AT is last
    dom, ordered, _, session, log = _deep_wrapped_zipf(key)
    n = len(ordered)
    assert insert(key, session, 1, dom, coins=CoinSource(3)) == n + 1
    sent = _requests(log)
    assert GetRange(0, core.READ_RUN) in sent
    assert len(sent) == 5 + -(-n // core.READ_RUN)  # 8
    got = decrypt_all(key, session.store)
    assert sorted(got) == sorted(ordered + [1])
    assert sum(x > y for x, y in zip(got, got[1:] + got[:1])) == 1  # a rotation of sorted


def test_deep_wrapped_insert_requests_do_not_depend_on_the_value(key):
    # the frame reads the whole store before the bisection starts, so r,
    # r + 1, r - 1 and a far value send the same requests before INSERT_AT
    dom, ordered, _, session, log = _deep_wrapped_zipf(key)
    recorder = _SlotRecorder(session.store, log)
    sent = []
    for m in (0, 1, 63, 40):
        del log[:]
        insert(key, recorder, m, dom, coins=CoinSource(m))
        sent.append([frame for direction, frame in log if direction == "send"])
    assert len(sent[0]) == 4 + -(-len(ordered) // core.READ_RUN)
    assert all(frames == sent[0] for frames in sent[1:])


def test_insert_bisects_on_when_the_leading_run_does_not_wrap(key):
    # C[0] = C[1] = 3, but C[n-1] = 66 != r: the plain frame is sorted, and
    # the bisection meets r at index 1 without reading the store
    dom = Domain(128)
    values = [3, 3] + list(range(5, 67))
    log = []
    session = RecordingSession(direct_store(key, values, dom), log)
    assert insert(key, session, 4, dom, coins=CoinSource(1)) == 65
    assert len(_requests(log)) <= math.ceil(math.log2(len(values) + 1)) + 4
    got = decrypt_all(key, session.store)
    assert sorted(got) == [3, 3, 4] + values[2:] and is_rotation_of_sorted(got)


def test_probe_indices_on_distinct_values_follow_a_reference_bisection(key):
    # distinct values never wrap, so every operation bisects the plain
    # frame f(x) = (x - r) mod N from index 0; a query ending at r - 1
    # reaches the top of the frame and still runs its second bisection, and
    # one starting at r bisects for its first match as for N
    dom = Domain(1 << 16)
    N = dom.size
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randrange(2, 300)
        ordered = sorted(rng.sample(range(N), n))
        w = rng.randrange(n)
        values = ordered[w:] + ordered[:w]
        log = []
        session = RecordingSession(direct_store(key, values, dom), log)
        r = values[0]
        f = [(v - r) % N for v in values]

        def probes():
            sent = _requests(log)
            del log[:]
            return [msg.start for msg in sent if isinstance(msg, GetRange) and msg.count == 1]

        a = rng.randrange(N)
        for a, b in ((a, rng.randrange(N)), (a, (r - 1) % N), (r, rng.randrange(N))):
            result = search_range(key, session, RangeQuery(a, b), dom)
            assert set(result.indices()) == brute_match_indices(values, a, b, N)
            fa, fb = (a - r) % N, (b - r) % N
            want = [0, n - 1] + bisection_probes(f, fa or N) + bisection_probes(f, fb, strict=True)
            want += [j for segment in result.segments for j in segment]  # the boundary checks
            assert probes() == list(dict.fromkeys(want)), (values, a, b)
        assert top_k(key, session, 2, dom) == ordered[:2]
        assert probes() == list(dict.fromkeys([0, n - 1] + bisection_probes(f, (N - r) % N)))
        m = rng.choice(sorted(set(range(N)) - set(values)))  # no ties, so no coins
        insert(key, session, m, dom, coins=CoinSource(0))
        assert probes() == list(dict.fromkeys([0, n - 1] + bisection_probes(f, (m - r) % N)))


def test_deep_wrap_search_through_the_frame_equals_the_scan(key):
    # seeded Zipf stores, each rotated so that index 0 lands inside a run
    # of r (C[0] = C[1] = C[n-1] = r): bisecting _frame's reading frame
    # finds, in ascending index order, the cells that filtering every
    # decrypted cell finds, for every query
    rng = random.Random(71)
    stores = 0
    for N in (2, 3, 4, 5, 8, 16, 32, 64):
        dom = Domain(N)
        weights = [1 / (v + 1) for v in range(N)]
        for _ in range(6):
            n = rng.randrange(3, 61)
            ordered = sorted(rng.choices(range(N), weights, k=n))
            cells = [encrypt(key, v, N) for v in ordered]
            inside = [t for t in range(1, n - 1) if ordered[t - 1] == ordered[t] == ordered[t + 1]]
            for t in rng.sample(inside, min(5, len(inside))):
                stores += 1
                values = ordered[t:] + ordered[:t]
                session = LocalSession(DenseStore(cells[t:] + cells[:t]))
                view = core._OpView(key, dom)
                frame = core._run(session, core._frame(view, n, N, 1))
                for a in range(N):
                    for b in range(N):
                        got = core._run(session, core._segments(view, n, N, *frame, a, b))
                        want = sorted(brute_match_indices(values, a, b, N))
                        assert RangeResult(tuple(got)).indices() == want, (values, a, b)
    assert stores == 218


@pytest.mark.parametrize("share", [0.10, 0.40, 0.66])
def test_deep_wrapped_top_k_decrypts_o_log_n_cells_while_the_run_holds_at_most_two_thirds(
    key, monkeypatch, share
):
    # the run of r = Dec(C[0]) wraps with `front` cells at the front; while
    # it holds at most about 2/3 of the store, the frame's gallop lands in
    # the other values' block, so top-k and a search decrypt O(log n) cells
    n, k, r = 1024, 10, 2000
    dom = Domain(1 << 12)
    others = random.Random(f"gallop/{share}").sample(
        [v for v in range(dom.size) if v != r], n - round(share * n)
    )
    ordered = sorted(others + [r] * (n - len(others)))
    cells = [encrypt(key, v, dom.size) for v in ordered]
    run_end = ordered.index(r) + ordered.count(r)
    decrypts = []

    def counting(key, cell):
        decrypts.append(1)
        return decrypt(key, cell)

    monkeypatch.setattr(core, "decrypt", counting)
    for front in range(2, ordered.count(r), 13):
        start = run_end - front
        del decrypts[:]
        session = LocalSession(DenseStore(cells[start:] + cells[:start]))
        assert top_k(key, session, k, dom) == ordered[:k]
        assert len(decrypts) <= 5 * math.ceil(math.log2(n)) + k, (share, front)
        values = ordered[start:] + ordered[:start]
        a = others[front % len(others)]
        for b in (r, (r + 1) % dom.size, a):
            del decrypts[:]
            got = search_range(key, session, RangeQuery(a, b), dom).indices()
            assert got == sorted(brute_match_indices(values, a, b, dom.size)), (share, front, a, b)
            assert len(decrypts) <= 5 * math.ceil(math.log2(n)) + 4, (share, front, a, b)


def test_deep_wrap_rejects_a_short_range_read(key):
    # C[0] = C[1] = C[n-1] = 3, so top-k reads the whole store in a range,
    # and the reply to that read comes back one cell short
    class ShortReads(LocalSession):
        def request(self, msg):
            resp = super().request(msg)
            if type(msg) is GetRange and msg.count > 1:
                return Cells(resp.width, resp.data[: -resp.width])
            return resp

    session = ShortReads(direct_store(key, [3, 3, 5, 1, 3], D8))
    with pytest.raises(TransportError, match="asked for 5 cells"):
        top_k(key, session, 2, D8)


def test_decoupled_reads_between_rebalance_hints_match_oracle(key):
    dom = Domain(64)
    rng = random.Random(91)
    model = [rng.randrange(dom.size) for _ in range(40)]
    session, store = insert_all(key, model, dom, seed=91, mode="decoupled")
    queries = [RangeQuery(rng.randrange(dom.size), rng.randrange(dom.size)) for _ in range(6)]
    while not session.rebalance(1):
        for q in queries:
            pairs = read_values(key, session, search_range(key, session, q, dom), dom)
            assert sorted(v for _, v in pairs) == sorted(
                v for v in model if in_cyclic(v, q.a, q.b, dom.size)
            ), q
        assert top_k(key, session, 5, dom) == sorted(model)[:5]
    # an insert between hints does not restart the pass: the hint that ends
    # it re-spaces the post-insert order
    assert not session.rebalance(1) and not session.rebalance(1)
    insert(key, session, 17, dom, coins=CoinSource(5))
    model.append(17)
    while not session.rebalance(1):
        pass
    values = decrypt_all(key, store)
    assert sorted(values) == sorted(model) and is_rotation_of_sorted(values)


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


def test_round_trip_budget_small(key):
    # n = 64 distinct values: search <= 2(6+3), insert <= 6+2
    dom = Domain(512)
    values = random.Random(7).sample(range(512), 64)
    session, _ = insert_all(key, values, dom, seed=7)
    for a, b in [(0, 511), (100, 50), (3, 3), (500, 10), (511, 0)]:
        before = session.stats.cells_fetched
        search_range(key, session, RangeQuery(a, b), dom)
        assert session.stats.cells_fetched - before <= 18
    before = session.stats.cells_fetched
    insert(key, session, 77, dom, coins=CoinSource(1))
    assert session.stats.cells_fetched - before <= 8


# ---------------------------------------------------------------------------
# another client between the requests of one operation
# ---------------------------------------------------------------------------


class _InterleavedSession(LocalSession):
    """A client whose k-th request is preceded by another client's insert
    on the same server."""

    def __init__(self, server, k, other_insert):
        super().__init__(server)
        self._k, self._other_insert, self._sent = k, other_insert, 0

    def _exchange(self, frame):
        self._sent += 1
        if self._sent == self._k:
            self._other_insert()
        return super()._exchange(frame)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: an operation's requests are not atomic")
def test_search_answers_before_or_after_an_interleaved_insert(key):
    # the server lock makes one request atomic, not an operation: a dense
    # insert re-rotates the array between two of a search's probes
    dom = Domain(1 << 16)
    rng = random.Random(61)
    wrong = []
    for k in range(1, 25):
        values = sorted(rng.sample(range(dom.size), 200))
        w = rng.randrange(200)
        cells = [encrypt(key, v, dom.size) for v in values[w:] + values[:w]]
        server = transport.StoreServer(DenseStore(cells, rng=random.Random(k)))
        other = LocalSession(server)
        fresh = iter(v for v in rng.sample(range(dom.size), 1000) if v not in values)
        for _ in range(40):
            before = decrypt_all(key, server.store)
            m = next(fresh)
            session = _InterleavedSession(
                server, k, lambda: insert(key, other, m, dom, coins=CoinSource(m)))
            a, b = rng.randrange(dom.size), rng.randrange(dom.size)
            got = set(search_range(key, session, RangeQuery(a, b), dom).indices())
            after = decrypt_all(key, server.store)
            if got not in (brute_match_indices(before, a, b, dom.size),
                           brute_match_indices(after, a, b, dom.size)):
                wrong.append((k, a, b))
            values = after
    assert not wrong, f"{len(wrong)} of 960 searches returned wrong matches"
