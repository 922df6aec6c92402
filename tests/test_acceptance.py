"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Every test prints "CRITERION <k>: PASS/FAIL" on the live terminal (outside
capture) so a full run reads as a checklist.  Thresholds are asserted
exactly as stated; statistical checks use the enumeration oracles from
helpers.py, never the code under test.
"""

import io
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from scipy import stats as scipy_stats

from eseds.attacks import (
    AttackError,
    Histogram,
    bucketing_attack,
    lp_optimization,
    score,
    sorting_attack,
)
from eseds.cipher import encrypt, keygen
from eseds.cli.attack import run_attack
from eseds.cli.bench import BenchConfig, run_bench
from eseds.cli.game import GameConfig, run_game
from eseds.core import CoinSource, Domain, RangeQuery, insert, search_range
from eseds.store import DecoupledStore, DenseStore, load as load_store
from eseds.transforms import build_det, build_fhope, build_ope, bulk_store, leakage_view, load_any
from eseds.transport import (
    Cells,
    ErrorMsg,
    GetRange,
    InsertAt,
    Len,
    Length,
    LocalSession,
    Ok,
    RebalanceHint,
    Save,
    decode,
    encode,
)

from helpers import (
    brute_assignment,
    brute_match_indices,
    bucketing_expectation,
    chi_square_uniform_p,
    is_rotation_of_sorted,
)
from instancelib import decrypt_all, insert_all, random_instance

N_INSTANCES = 1_000
UNIFORMITY_RUNS = 20_000
GAME_TRIALS = 10_000
CODEC_FRAMES = 10_000

MARKED_MULTISET = [2, 7, 7, 9, 1, 14, 4, 11]  # 8 values, the 9 is unique
MARKED_VALUE = 9


def conclude(capsys, num, failures, detail=""):
    ok = not failures
    note = detail if ok else f"first failure: {failures[0]}"
    with capsys.disabled():
        print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'}" + (f"  [{note}]" if note else ""))
    assert ok, f"criterion {num}: {len(failures)} failure(s): {failures[:3]}"


def _instance_queries(rng, domain_size, values):
    """Query mix per instance: uniform, forced wrap, forced empty, full wrap."""
    queries = [RangeQuery(rng.randrange(domain_size), rng.randrange(domain_size))]
    if domain_size >= 2:
        a = rng.randrange(1, domain_size)
        queries.append(RangeQuery(a, rng.randrange(a)))  # a > b wraps
        k = rng.randrange(domain_size)
        queries.append(RangeQuery((k + 1) % domain_size, k))  # matches everything
    absent = [v for v in range(domain_size) if v not in values]
    if absent:
        v = rng.choice(absent)
        queries.append(RangeQuery(v, v))  # empty result
    return queries


def _run_search_corpus(key, mode):
    """Build the 1,000-instance corpus and check both search and rotation
    invariants on every instance.  Returns failure lists and elapsed time."""
    search_failures, rotation_failures = [], []
    t0 = time.perf_counter()
    for seed in range(N_INSTANCES):
        values, dom, session, store = random_instance(seed, KEY, mode=mode)
        plain = decrypt_all(KEY, store)

        if Counter(plain) != Counter(values) or not is_rotation_of_sorted(plain):
            rotation_failures.append((seed, values, plain))

        rng = random.Random(0xACCE9 + seed)
        for q in _instance_queries(rng, dom.size, set(values)):
            want = brute_match_indices(plain, q.a, q.b, dom.size)
            got = set(search_range(KEY, session, q, dom).indices())
            if got != want:
                search_failures.append((seed, q, sorted(got), sorted(want)))
    return search_failures, rotation_failures, time.perf_counter() - t0


KEY = keygen()
_CORPUS_RESULTS = {}


def _corpus(mode):
    if mode not in _CORPUS_RESULTS:
        _CORPUS_RESULTS[mode] = _run_search_corpus(KEY, mode)
    return _CORPUS_RESULTS[mode]


def _uniformity_pvalue(mode):
    # decoupled inserts are constant-time and cannot move other cells, so the
    # fresh rotation arrives with the background rebalance; run it to
    # completion before reading positions, as a deployment would
    dom = Domain(16)
    n = len(MARKED_MULTISET)
    counts = [0] * n
    for run in range(UNIFORMITY_RUNS):
        session, store = insert_all(KEY, MARKED_MULTISET, dom, seed=run, mode=mode)
        if mode == "decoupled":
            while not session.rebalance(0):
                pass
        plain = decrypt_all(KEY, store)
        counts[plain.index(MARKED_VALUE)] += 1
    return chi_square_uniform_p(counts), counts


# ---------------------------------------------------------------------------
# 1 + 2: search oracle equivalence and the rotation invariant
# ---------------------------------------------------------------------------


def test_criterion_01_search_matches_brute_oracle(capsys):
    search_failures, _, elapsed = _corpus("dense")
    if elapsed >= 30.0:
        search_failures.append(f"runtime {elapsed:.1f}s >= 30s")
    conclude(
        capsys, 1, search_failures,
        f"{N_INSTANCES} instances, 4-query mix, {elapsed:.1f}s",
    )


def test_criterion_02_decrypted_layout_is_rotation_of_sorted(capsys):
    _, rotation_failures, _ = _corpus("dense")
    conclude(capsys, 2, rotation_failures, f"{N_INSTANCES} instances")


# ---------------------------------------------------------------------------
# 3: rotation uniformity
# ---------------------------------------------------------------------------


def test_criterion_03_marked_value_position_is_uniform(capsys):
    p, counts = _uniformity_pvalue("dense")
    failures = [] if p > 0.001 else [f"chi-square p = {p:.6f}, counts {counts}"]
    conclude(capsys, 3, failures, f"{UNIFORMITY_RUNS} runs, p = {p:.4f}")


# ---------------------------------------------------------------------------
# 4: round-trip budgets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("log_n", [10, 14, 20])
def test_criterion_04_round_trip_bounds(capsys, log_n):
    n = 1 << log_n
    search_bound = 2 * (log_n + 3)
    insert_bound = log_n + 2
    dom = Domain(8 * n)
    rng = random.Random(0xB0D6E7 + log_n)
    values = rng.sample(range(dom.size), n)
    session = LocalSession(bulk_store(KEY, values, dom, rng))

    failures = []
    queries = [RangeQuery(rng.randrange(dom.size), rng.randrange(dom.size)) for _ in range(8)]
    a = rng.randrange(1, dom.size)
    queries.append(RangeQuery(a, rng.randrange(a)))  # wrap
    present = rng.choice(values)
    queries.append(RangeQuery(present, present))
    worst_search = 0
    for q in queries:
        before = session.stats.cells_fetched
        search_range(KEY, session, q, dom)
        cost = session.stats.cells_fetched - before
        worst_search = max(worst_search, cost)
        if cost > search_bound:
            failures.append(f"search {q} used {cost} > {search_bound} fetches")

    worst_insert = 0
    for _ in range(4):
        before = session.stats.cells_fetched
        insert(KEY, session, rng.randrange(dom.size), dom, coins=CoinSource(rng.getrandbits(64)))
        cost = session.stats.cells_fetched - before
        worst_insert = max(worst_insert, cost)
        if cost > insert_bound:
            failures.append(f"insert used {cost} > {insert_bound} fetches")

    conclude(
        capsys, 4, failures,
        f"n=2^{log_n}: search <= {worst_search}/{search_bound}, "
        f"insert <= {worst_insert}/{insert_bound}",
    )


@pytest.mark.xfail(
    strict=True, reason="a deep-wrap search reads all n cells, over criterion 4's cell budget of 2(log2 n + 3)"
)
@pytest.mark.parametrize("log_n", [10, 14])
def test_round_trip_bounds_on_duplicate_heavy_data(log_n):
    # criterion 4's budgets on Zipf data over 64 values, with index 0 placed
    # inside the most frequent value's run so that the run wraps
    n = 1 << log_n
    search_bound = 2 * (log_n + 3)
    insert_bound = log_n + 2
    dom = Domain(64)
    zipf = [1 / (v + 1) for v in range(dom.size)]
    rng = random.Random(0xD0BE5 + log_n)
    values = sorted(rng.choices(range(dom.size), zipf, k=n))
    cells = [encrypt(KEY, v, dom.size) for v in values]
    top, count = Counter(values).most_common(1)[0]
    run_lo = values.index(top)
    for trial in range(4):
        rot = rng.randrange(run_lo + 1, run_lo + count - 1)
        session = LocalSession(DenseStore(cells[rot:] + cells[:rot], rng=random.Random(trial)))
        a = rng.randrange(1, dom.size)
        for q in [RangeQuery(top, top), RangeQuery(a, rng.randrange(a)), RangeQuery(0, 7)]:
            before = session.stats.cells_fetched
            search_range(KEY, session, q, dom)
            cost = session.stats.cells_fetched - before
            assert cost <= search_bound, f"search {q} used {cost} > {search_bound} fetches"
        before = session.stats.cells_fetched
        insert(KEY, session, rng.choices(range(dom.size), zipf)[0], dom, coins=CoinSource(trial))
        cost = session.stats.cells_fetched - before
        assert cost <= insert_bound, f"insert used {cost} > {insert_bound} fetches"


# ---------------------------------------------------------------------------
# 5: bucketing attack, broken target vs main structure
# ---------------------------------------------------------------------------


def test_criterion_05_bucketing_exact_on_fhope_blind_on_rotation(capsys):
    failures = []
    rng = random.Random(0xB0C8E7)

    for trial in range(50):
        n = rng.randrange(4, 20)
        multiset = [rng.randrange(16) for _ in range(n)]
        fh = build_fhope(KEY, multiset, 16, coins=CoinSource(rng.getrandbits(64)))
        acc = score(bucketing_attack(multiset), fh.cell_values)
        if acc != 1.0:
            failures.append(f"fhope trial {trial}: accuracy {acc} != 1.0")

    multiset = [1, 3, 3, 7, 7, 7, 12, 15, 2, 2, 9, 5]  # 8 distinct values
    n = len(multiset)
    dom = Domain(16)
    expectation = float(bucketing_expectation(multiset))
    bound = max(Counter(multiset).values()) / n
    guess = bucketing_attack(multiset)
    scores = []
    for seed in range(1000):
        _, store = insert_all(KEY, multiset, dom, seed=0xF00 + seed)
        scores.append(score(guess, decrypt_all(KEY, store)))
    mean = sum(scores) / len(scores)
    var = sum((s - mean) ** 2 for s in scores) / (len(scores) - 1)
    se = (var / len(scores)) ** 0.5
    if abs(mean - expectation) > 3 * se:
        failures.append(f"main mean {mean:.4f} vs expectation {expectation:.4f} (3se = {3 * se:.4f})")
    if mean - bound > 3 * se:
        failures.append(f"main mean {mean:.4f} exceeds frequency bound {bound:.4f}")

    conclude(
        capsys, 5, failures,
        f"fhope exact; main mean {mean:.4f} ~ expectation {expectation:.4f} <= bound {bound:.4f}",
    )


# ---------------------------------------------------------------------------
# 6: sorting attack, dense vs non-dense
# ---------------------------------------------------------------------------


def test_criterion_06_sorting_dense_exact_else_inapplicable(capsys):
    failures = []
    rng = random.Random(0x50F7)
    for trial in range(20):
        domain_size = rng.randrange(2, 65)
        values = list(range(domain_size)) + [rng.randrange(domain_size) for _ in range(rng.randrange(20))]
        rng.shuffle(values)
        ope = build_ope(KEY, values, domain_size)
        labels = leakage_view(ope)
        guesses = sorting_attack(sorted(set(labels)), domain_size)
        acc = score([guesses[l] for l in labels], ope.cell_values)
        if acc != 1.0:
            failures.append(f"dense trial {trial}: accuracy {acc} != 1.0")

    try:
        sorting_attack([0, 1, 2], 64)  # 3 classes over a 64-value domain
        failures.append("non-dense input did not raise")
    except AttackError:
        pass
    report = run_attack("ope", "sorting", 32, 64, "uniform", seed=1)
    if report.accuracy is not None or "inapplicable" not in report.line():
        failures.append(f"non-dense report not marked inapplicable: {report.line()}")

    conclude(capsys, 6, failures, "dense 20/20 exact, non-dense inapplicable")


# ---------------------------------------------------------------------------
# 7: assignment attack vs factorial brute force
# ---------------------------------------------------------------------------


def test_criterion_07_lp_matches_factorial_brute_force(capsys):
    failures = []
    rng = random.Random(0x1B)
    for trial in range(N_INSTANCES):
        k_c = rng.randrange(1, 7)
        k_m = rng.randrange(1, 7) if trial % 3 == 0 else k_c  # a third unequal
        k = max(k_c, k_m)
        p = 1 if trial % 2 == 0 else 2
        c_counts = [rng.randrange(0, 13) for _ in range(k_c)]
        m_counts = [rng.randrange(0, 13) for _ in range(k_m)]
        mapping = lp_optimization(
            Histogram(tuple(range(k_c)), tuple(c_counts)),
            Histogram(tuple(range(k_m)), tuple(m_counts)),
            p=p,
        )
        padded_c = c_counts + [0] * (k - k_c)
        padded_m = m_counts + [0] * (k - k_m)
        best_cost, best_perms = brute_assignment(padded_c, padded_m, p)

        used = [mapping.get(i) for i in range(k_c)]
        cost = sum(
            abs(c_counts[i] - (m_counts[used[i]] if used[i] is not None else 0)) ** p
            for i in range(k_c)
        )
        leftover = set(range(k_m)) - {u for u in used if u is not None}
        cost += sum(m_counts[j] ** p for j in leftover)
        if cost != best_cost:
            failures.append(f"trial {trial}: cost {cost} != brute {best_cost}")
        elif k_c == k_m and tuple(used) not in best_perms:
            failures.append(f"trial {trial}: mapping {used} not among brute optima")
    conclude(capsys, 7, failures, f"{N_INSTANCES} instances, p in {{1, 2}}, padded cases included")


# ---------------------------------------------------------------------------
# 8: distinguishing game
# ---------------------------------------------------------------------------


def test_criterion_08_game_breaks_fhope_not_main(capsys):
    failures = []
    fh = run_game(GameConfig(GAME_TRIALS, "position_guesser", "fhope", seed=0xF40))
    if fh.advantage < 0.45:
        failures.append(f"fhope advantage {fh.advantage:.4f} < 0.45")
    main = run_game(GameConfig(GAME_TRIALS, "position_guesser", "main_eseds", seed=0xF41))
    if main.advantage > 3 * main.sigma:
        failures.append(
            f"main advantage {main.advantage:.4f} > 3 sigma ({3 * main.sigma:.4f})"
        )
    conclude(
        capsys, 8, failures,
        f"fhope adv {fh.advantage:.3f}, main adv {main.advantage:.4f} "
        f"(3 sigma = {3 * main.sigma:.4f}, {GAME_TRIALS} trials)",
    )


# ---------------------------------------------------------------------------
# 9: decoupled mode
# ---------------------------------------------------------------------------


def test_criterion_09a_collisions_then_rebalance_equalizes_gaps(capsys):
    failures = []
    store = DecoupledStore(index_bits=8, rng=random.Random(0xD3C))
    session = LocalSession(store)
    dom = Domain(64)
    coins = CoinSource(0xD3C)
    values = list(range(12)) + [40, 3, 9, 51, 22, 17, 33, 8]  # monotone run forces collisions
    for v in values:
        insert(KEY, session, v, dom, coins=coins)
    if store.collisions == 0:
        failures.append("no midpoint collision was forced")

    while not session.rebalance(3):
        pass
    idx = store.sparse_indices()
    gaps = [b - a for a, b in zip(idx, idx[1:])]
    if gaps and max(gaps) - min(gaps) > 1:
        failures.append(f"gaps not equidistant +-1: {sorted(set(gaps))}")
    plain = decrypt_all(KEY, store)
    if not is_rotation_of_sorted(plain) or Counter(plain) != Counter(values):
        failures.append(f"rebalance broke the layout: {plain}")
    conclude(
        capsys, 9, failures,
        f"{store.collisions} collisions, gap spread {max(gaps) - min(gaps)}",
    )


def test_criterion_09b_search_oracle_on_decoupled(capsys):
    search_failures, _, elapsed = _corpus("decoupled")
    if elapsed >= 30.0:
        search_failures.append(f"runtime {elapsed:.1f}s >= 30s")
    conclude(capsys, 9, search_failures, f"criterion 1 on decoupled, {elapsed:.1f}s")


def test_criterion_09c_rotation_invariant_on_decoupled(capsys):
    _, rotation_failures, _ = _corpus("decoupled")
    conclude(capsys, 9, rotation_failures, "criterion 2 on decoupled")


def test_criterion_09d_uniformity_on_decoupled(capsys):
    p, counts = _uniformity_pvalue("decoupled")
    failures = [] if p > 0.001 else [f"chi-square p = {p:.6f}, counts {counts}"]
    conclude(capsys, 9, failures, f"criterion 3 on decoupled, p = {p:.4f}")


# ---------------------------------------------------------------------------
# 10: performance trend
# ---------------------------------------------------------------------------


def test_criterion_10_search_flat_topk_linear(capsys):
    cfg = BenchConfig(
        db_sizes=[100_000, 1_000_000],
        range_sizes=[16],
        k_values=[64, 128, 256, 512, 1024],
        repeats=30,
        warmup=10,
        seed=0xBE7C,
    )
    report = run_bench(cfg)
    failures = []

    search = {r.n: r.mean_ms for r in report.rows if r.kind == "search"}
    ratio = search[1_000_000] / search[100_000]
    if ratio > 2.0:
        failures.append(f"search mean ratio {ratio:.2f} > 2 across 10x growth")

    ks = [r.param for r in report.rows if r.kind == "topk" and r.n == 1_000_000]
    times = [r.mean_ms for r in report.rows if r.kind == "topk" and r.n == 1_000_000]
    fit = scipy_stats.linregress(ks, times)
    if fit.slope <= 0 or fit.rvalue**2 < 0.8:
        failures.append(f"topk not linear in k: slope {fit.slope:.6f}, R^2 {fit.rvalue ** 2:.3f}")

    conclude(
        capsys, 10, failures,
        f"search ratio {ratio:.2f} <= 2, topk R^2 {fit.rvalue ** 2:.3f}",
    )


# ---------------------------------------------------------------------------
# 11: persistence and codec
# ---------------------------------------------------------------------------


def _random_cells(rng):
    """A CELLS message: one width in 1..79, then 0 to 3 cells of it."""
    width = rng.randrange(1, 80)
    return Cells(width, rng.randbytes(width * rng.randrange(4)))


def test_criterion_11_persistence_and_codec_round_trips(capsys, tmp_path):
    failures = []
    rng = random.Random(0x11C0DEC)
    values = [rng.randrange(1 << 20) for _ in range(1000)]
    dom = Domain(1 << 20)

    _, dense = insert_all(KEY, values, dom, seed=1)
    path = tmp_path / "dense.store"
    dense.save(path)
    if load_store(path) != dense:
        failures.append("dense save/load mismatch")

    _, dec = insert_all(KEY, values, dom, seed=2, mode="decoupled", index_bits=256)
    path = tmp_path / "dec.store"
    dec.save(path)
    if load_store(path) != dec:
        failures.append("decoupled save/load mismatch")

    for name, table in (
        ("det", build_det(KEY, values, dom.size)),
        ("ope", build_ope(KEY, values, dom.size)),
        ("fhope", build_fhope(KEY, values, dom.size, coins=CoinSource(4))),
    ):
        path = tmp_path / f"{name}.store"
        table.save(path)
        if load_any(path) != table:
            failures.append(f"{name} save/load mismatch")

    mismatches = 0
    for _ in range(CODEC_FRAMES):
        msg = rng.choice(
            [
                GetRange(rng.randrange(1 << 64), rng.randrange(1 << 64)),
                InsertAt(rng.randrange(1 << 32), rng.randbytes(rng.randrange(80))),
                Length(),
                RebalanceHint(rng.randrange(1 << 16)),
                Save(),
                _random_cells(rng),
                Ok(rng.randbytes(rng.randrange(4))),
                Len(rng.randrange(1 << 64)),
                ErrorMsg(rng.randrange(1 << 16), "e" * rng.randrange(32)),
            ]
        )
        if decode(encode(msg)) != msg:
            mismatches += 1
    if mismatches:
        failures.append(f"{mismatches}/{CODEC_FRAMES} codec frames failed round-trip")

    conclude(
        capsys, 11, failures,
        f"5 store modes at 1,000 cells, {CODEC_FRAMES} frames",
    )
