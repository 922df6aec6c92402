"""Legacy layout builders: chain structure, leakage views, persistence."""

import gc
import io
import random
import threading
from collections import Counter

import pytest

from eseds.cipher import CELL_LEN, decrypt, encrypt, keygen, prf
from eseds.core import CoinSource, Domain, insert
from eseds.store import (
    MODE_DET,
    MODE_FHOPE,
    MODE_OPE,
    DecoupledStore,
    DenseStore,
    FormatError,
    ModeError,
)
from eseds.transforms import (
    NO_NEXT,
    TARGETS,
    DetEseds,
    FhopeEseds,
    OpeEseds,
    _derive_chains,
    build_det,
    build_fhope,
    build_ope,
    build_target,
    leakage_view,
    load_any,
)
from eseds.transport import LocalSession

from helpers import reference_store_file
from instancelib import insert_all


# ---------------------------------------------------------------------------
# deterministic layout
# ---------------------------------------------------------------------------


def test_det_chain_shape(key):
    det = build_det(key, [5, 5, 9], 16)
    labels = _derive_chains(det.slots)
    assert sorted(Counter(labels).values()) == [1, 2]
    # the chain of length 2 holds both fives
    head = Counter(labels).most_common(1)[0][0]
    fives = [j for j in range(3) if labels[j] == head]
    assert sorted(decrypt(key, det.slots[j].kw_ct) for j in fives) == [5, 5]


def test_det_head_sits_at_prf_bucket(key):
    # a single distinct value lands exactly on its PRF bucket
    det = build_det(key, [7, 7, 7, 7], 16)
    head = prf(key, 7, 4)
    assert decrypt(key, det.slots[head].kw_ct) == 7
    assert _derive_chains(det.slots)[head] == head


def test_det_lookup_row_ids(key):
    det = build_det(key, [5, 5, 9, 5], 16)
    assert det.lookup(key, 5) == [0, 1, 3]  # occurrence order
    assert det.lookup(key, 9) == [2]
    assert det.lookup(key, 7) == []
    assert DetEseds([], None).lookup(key, 5) == []


def test_det_custom_row_ids(key):
    det = build_det(key, [4, 4], 8, row_ids=[100, 200])
    assert det.lookup(key, 4) == [100, 200]
    with pytest.raises(ValueError):
        build_det(key, [4, 4], 8, row_ids=[1])


def test_det_collisions_resolved_and_lookup_survives():
    # a small table forces PRF bucket collisions; lookup must still find
    # every keyword by linear probing to its chain head
    for seed in range(20):
        rng = random.Random(seed)
        key = keygen()
        values = [rng.randrange(8) for _ in range(12)]
        det = build_det(key, values, 8)
        for v in set(values):
            rows = det.lookup(key, v)
            assert sorted(rows) == [i for i, m in enumerate(values) if m == v]
        for v in set(range(8)) - set(values):
            assert det.lookup(key, v) == []


def test_derive_chains_matches_build_truth(key):
    rng = random.Random(7)
    for _ in range(30):
        values = [rng.randrange(6) for _ in range(rng.randrange(1, 15))]
        det = build_det(key, values, 8)
        labels = _derive_chains(det.slots)
        # equal labels iff equal decrypted values
        for a in range(len(values)):
            for b in range(len(values)):
                same_chain = labels[a] == labels[b]
                same_value = decrypt(key, det.slots[a].kw_ct) == decrypt(key, det.slots[b].kw_ct)
                assert same_chain == same_value


def test_det_leakage_view(key):
    det = build_det(key, [5, 5, 9], 16)
    labels = leakage_view(det)
    assert labels == _derive_chains(det.slots) and len(labels) == 3
    assert len(set(labels)) == 2


# ---------------------------------------------------------------------------
# order-revealing layout
# ---------------------------------------------------------------------------


def test_ope_heads_in_sorted_rank_order(key):
    ope = build_ope(key, [9, 1, 5, 5, 1, 1], 16)
    # ranks 0..d-1 hold the distinct values in ascending order
    assert [decrypt(key, ope.slots[r].kw_ct) for r in range(3)] == [1, 5, 9]
    assert sorted(set(leakage_view(ope))) == [0, 1, 2]  # the leaked value order
    labels = _derive_chains(ope.slots)
    assert Counter(labels)[0] == 3 and Counter(labels)[1] == 2 and Counter(labels)[2] == 1


def test_ope_chain_members_share_value(key):
    ope = build_ope(key, [3, 7, 3, 7, 7], 16)
    labels = _derive_chains(ope.slots)
    for j, label in enumerate(labels):
        assert decrypt(key, ope.slots[j].kw_ct) == decrypt(key, ope.slots[label].kw_ct)


def test_ope_leakage_orders_classes_by_value(key):
    rng = random.Random(11)
    for _ in range(20):
        values = [rng.randrange(12) for _ in range(rng.randrange(1, 12))]
        ope = build_ope(key, values, 16)
        ranks = sorted(set(leakage_view(ope)))
        assert [decrypt(key, ope.slots[r].kw_ct) for r in ranks] == sorted(set(values))


# ---------------------------------------------------------------------------
# frequency-hiding layout
# ---------------------------------------------------------------------------


def test_fhope_decrypts_sorted(key):
    rng = random.Random(13)
    for _ in range(25):
        values = [rng.randrange(10) for _ in range(rng.randrange(1, 20))]
        fh = build_fhope(key, values, 16, coins=CoinSource(rng.getrandbits(64)))
        plain = [decrypt(key, cell) for cell in fh.cells]
        assert plain == sorted(values)
        assert fh.cell_values == plain


def test_fhope_ties_take_both_orders(key):
    placements = set()
    for seed in range(40):
        fh = build_fhope(key, [3, 3], 8, coins=CoinSource(seed))
        placements.add(tuple(fh.placement))
    assert placements == {(0, 1), (1, 0)}


def test_fhope_leakage_view(key):
    fh = build_fhope(key, [2, 2, 5], 8, coins=CoinSource(0))
    assert leakage_view(fh) == (0, 1, 2)


def test_fhope_every_cell_unique_bytes(key):
    fh = build_fhope(key, [4] * 10, 8, coins=CoinSource(1))
    raw = set(fh.cells)
    assert len(raw) == 10  # probabilistic encryption: equal values, distinct cells


def test_transform_cells_are_plain_bytes(key):
    # a bytes subclass would be tracked by the garbage collector and larger per cell
    det = build_det(key, [3, 1, 3, 7], 8)
    ope = build_ope(key, [3, 1, 3, 7], 8)
    fh = build_fhope(key, [3, 1, 3, 7], 8, coins=CoinSource(2))
    cells = [c for table in (det, ope) for s in table.slots for c in (s.kw_ct, s.id_ct)] + fh.cells
    assert len(cells) == 20
    assert all(type(c) is bytes and not gc.is_tracked(c) for c in cells)


# ---------------------------------------------------------------------------
# dispatch and persistence
# ---------------------------------------------------------------------------


def test_leakage_view_dispatch(key):
    # chained layouts label a position by its chain's head; the others by itself
    det = build_det(key, [1, 2, 1], 4)
    assert leakage_view(det) == _derive_chains(det.slots)
    assert leakage_view(build_ope(key, [2, 1, 2], 4)) == (0, 1, 1)
    assert leakage_view(build_fhope(key, [1, 1], 4)) == (0, 1)

    dom = Domain(8)
    session, store = insert_all(key, [3, 1, 3], dom, seed=5)
    assert leakage_view(store) == (0, 1, 2)
    _, dec = insert_all(key, [3, 1, 3], dom, seed=5, mode="decoupled")
    assert leakage_view(dec) == (0, 1, 2)
    with pytest.raises(TypeError):
        leakage_view(object())


@pytest.mark.parametrize("builder", [build_det, build_ope])
def test_chain_table_round_trip(tmp_path, key, builder):
    table = builder(key, [5, 5, 9, 1], 16)
    path = tmp_path / "t.store"
    table.save(path)
    loaded = load_any(path)
    assert type(loaded) is type(table)
    assert loaded == table
    assert loaded.cell_values is None  # plaintext truth never persisted


def test_fhope_round_trip(tmp_path, key):
    fh = build_fhope(key, [5, 5, 9, 1], 16, coins=CoinSource(2))
    buf = io.BytesIO()
    fh.save(buf)
    buf.seek(0)
    loaded = load_any(buf)
    assert loaded == fh
    assert loaded.cell_values is None


def test_load_any_dispatches_cell_stores(tmp_path, key):
    dom = Domain(16)
    _, dense = insert_all(key, [3, 9, 3], dom, seed=1)
    p1 = tmp_path / "d.store"
    dense.save(p1)
    assert isinstance(load_any(p1), DenseStore)

    _, dec = insert_all(key, [3, 9, 3], dom, seed=1, mode="decoupled")
    p2 = tmp_path / "x.store"
    dec.save(p2)
    got = load_any(p2)
    assert isinstance(got, DecoupledStore)
    assert got.sparse_indices() == dec.sparse_indices()


@pytest.mark.parametrize("width", [CELL_LEN - 1, CELL_LEN + 1])
def test_load_any_rejects_transform_cells_of_another_width(key, width):
    # a transform file is outside input: a cell blob of any other width is
    # a format error, wherever it sits in the record
    good = encrypt(key, 1, 16)
    bad = (good + b"\x00")[:width]
    files = [reference_store_file(MODE_FHOPE, [good, bad])]
    for mode in (MODE_DET, MODE_OPE):
        files.append(reference_store_file(mode, [(good, good, NO_NEXT), (bad, good, NO_NEXT)]))
        files.append(reference_store_file(mode, [(good, bad, NO_NEXT)]))
    for raw in files:
        with pytest.raises(FormatError, match=f"got {width}"):
            load_any(io.BytesIO(raw))
    assert load_any(io.BytesIO(reference_store_file(MODE_FHOPE, [good, good]))).cells == [good, good]


@pytest.mark.parametrize(
    "links",
    [[5, NO_NEXT], [1, 1], [1, 0], [2, 2, NO_NEXT]],
    ids=["out-of-range", "self-loop", "two-slot-cycle", "shared-target"],
)
@pytest.mark.parametrize("mode", [MODE_DET, MODE_OPE], ids=["det", "ope"])
def test_load_any_rejects_broken_chain_links(key, mode, links):
    cell = encrypt(key, 1, 16)
    raw = reference_store_file(mode, [(cell, cell, nxt) for nxt in links])
    outcome = []

    def load():
        try:
            outcome.append(load_any(io.BytesIO(raw)))
        except FormatError as e:
            outcome.append(e)

    # a loader that followed a cyclic chain would never return
    thread = threading.Thread(target=load, daemon=True)
    thread.start()
    thread.join(10)
    assert not thread.is_alive()
    assert isinstance(outcome[0], FormatError), outcome


def test_cell_store_loader_rejects_transform_files(tmp_path, key):
    det = build_det(key, [1, 2], 4)
    path = tmp_path / "det.store"
    det.save(path)
    import eseds.store as store_mod

    with pytest.raises(ModeError):
        store_mod.load(path)


def test_saved_transform_has_no_plaintext(tmp_path, key):
    # record bodies are AEAD output; the keyword bytes must not appear raw
    det = build_det(key, [77, 77, 201], 256, row_ids=[10, 11, 12])
    path = tmp_path / "det.store"
    det.save(path)
    raw = path.read_bytes()
    assert key.bytes not in raw


# ---------------------------------------------------------------------------
# the lab's target table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", TARGETS)
def test_build_target_truth_is_the_plaintext_at_each_position(key, name):
    dom = Domain(16)
    for seed in range(4):
        rng = random.Random(seed)
        multiset = [rng.randrange(6) for _ in range(rng.randrange(1, 30))]  # duplicates throughout
        structure, truth = build_target(name, key, multiset, dom, rng)
        if isinstance(structure, DenseStore):
            cells = structure.logical_cells()
        elif isinstance(structure, FhopeEseds):
            cells = structure.cells
        else:
            cells = [slot.kw_ct for slot in structure.slots]
        assert truth == [decrypt(key, cell) for cell in cells]
        assert sorted(truth) == sorted(multiset)
        assert len(leakage_view(structure)) == len(multiset)


def test_build_target_refuses_an_unknown_name(key):
    with pytest.raises(ValueError, match="unknown target"):
        build_target("plaintext", key, [1, 2], Domain(4), random.Random(0))
