"""Server-side containers: dense array semantics, decoupled sparse map,
rebalancing, and the on-disk format."""

import gc
import io
import itertools
import os
import random
import stat

import pytest

import eseds.store as store_mod
from eseds.core import CoinSource, Domain
from eseds.store import (
    MAGIC,
    MODE_DECOUPLED,
    MODE_DENSE,
    MODE_DET,
    MODE_FHOPE,
    MODE_OPE,
    RECORDS_PER_WRITE,
    DecoupledStore,
    DenseStore,
    FormatError,
    ModeError,
    OutOfRange,
    StoreError,
    StoreFull,
    load,
)

from eseds.transforms import (
    DetEseds,
    FhopeEseds,
    OpeEseds,
    build_det,
    build_fhope,
    build_ope,
    bulk_store,
    load_any,
)

from helpers import chi_square_uniform_p, reference_store_file


class FixedCoins:
    """Stub rotation source returning a scripted sequence."""

    def __init__(self, *values):
        self._values = list(values)

    def randrange(self, n):
        v = self._values.pop(0)
        assert 0 <= v <= n - 1
        return v


def cells(*tags):
    return [bytes([t]) * 4 for t in tags]


# ---------------------------------------------------------------------------
# dense mode
# ---------------------------------------------------------------------------


def test_dense_get_cell_and_bounds():
    st = DenseStore(cells(1, 2, 3, 4))
    assert st.get_cell(3) == cells(4)[0]
    with pytest.raises(OutOfRange):
        st.get_cell(4)
    with pytest.raises(OutOfRange):
        st.get_cell(-1)


def test_dense_insert_at_zero_rotation():
    st = DenseStore(cells(0, 1, 2), rng=FixedCoins(0))
    st.insert_at(1, b"XXXX")
    assert st.logical_cells() == [cells(0)[0], b"XXXX", cells(1)[0], cells(2)[0]]


def test_dense_insert_at_with_rotation():
    c0, c1, c2 = cells(0, 1, 2)
    st = DenseStore([c0, c1, c2], rng=FixedCoins(2))
    st.insert_at(1, b"XXXX")
    assert st.logical_cells() == [c1, c2, c0, b"XXXX"]


def test_dense_insert_into_empty():
    st = DenseStore(rng=FixedCoins(0))
    st.insert_at(0, b"XX")
    assert st.logical_cells() == [b"XX"]


def test_dense_insert_at_bounds():
    st = DenseStore(cells(1))
    with pytest.raises(OutOfRange):
        st.insert_at(2, b"XXXX")


def test_dense_rotation_offsets_cover_new_length():
    # with n+1 cells after insert, offsets 0..n must all be reachable
    seen = set()
    for s in range(4):
        st = DenseStore(cells(0, 1, 2), rng=FixedCoins(s))
        st.insert_at(0, b"XXXX")
        seen.add(tuple(st.logical_cells()))
    assert len(seen) == 4


def test_dense_unseeded_rotation_uses_store_rng():
    st = DenseStore(cells(0, 1, 2), rng=random.Random(5))
    st.insert_at(0, b"XXXX")  # the rotation comes from the store's rng
    want = DenseStore(cells(0, 1, 2), rng=random.Random(5))
    want.insert_at(0, b"XXXX")
    assert st == want


def test_dense_insert_at_layout_matches_a_list_model():
    # after each insert the logical cells are the old ones with the cell at
    # slot l, rotated left by the store's draw randrange(n + 1); a twin of
    # the store's rng replays the draws
    for seed in range(300):
        slots = random.Random(f"slots {seed}")
        model = cells(*range(slots.randrange(20)))
        st, twin = DenseStore(model, rng=random.Random(seed)), random.Random(seed)
        for i in range(40):
            n, cell = len(model), bytes([100 + i]) * 4
            l = slots.randrange(n + 1)
            st.insert_at(l, cell)
            model.insert(l, cell)
            s = twin.randrange(n + 1)
            model = model[s:] + model[:s]
            assert st.logical_cells() == model, (seed, i)


def test_dense_store_holds_plain_bytes(key):
    # encrypt returns a bytes subclass; the store keeps untracked plain bytes
    st = bulk_store(key, list(range(50)), Domain(64), random.Random(3))
    assert len(st) == 50
    for cell in st.logical_cells():
        assert type(cell) is bytes and not gc.is_tracked(cell)


# ---------------------------------------------------------------------------
# decoupled mode
# ---------------------------------------------------------------------------


def test_decoupled_midpoint_insert_pinned():
    st = DecoupledStore(index_bits=16)
    st.insert_at(0, b"A")  # empty: midpoint of the whole space
    assert st.sparse_indices() == [1 << 15]
    # the default 256-bit space puts the first cell at 2**255
    st = DecoupledStore()
    st.insert_at(0, b"A")
    assert st.sparse_indices() == [1 << 255]


def test_decoupled_insert_between_neighbors():
    st = DecoupledStore(index_bits=16)
    st.insert_at(0, b"A")
    st._sparse[0] = 100
    st.insert_at(1, b"C")
    st._sparse[1] = 900
    st.insert_at(1, b"B")
    assert st.sparse_indices() == [100, 500, 900]
    assert st.get_cell(1) == b"B"


def test_decoupled_rank_order_lookup():
    st = DecoupledStore(index_bits=16)
    st.insert_at(0, b"A")
    st._sparse[0] = 100
    st.insert_at(1, b"B")
    st._sparse[1] = 900
    assert st.get_cell(1) == b"B"
    with pytest.raises(OutOfRange):
        st.get_cell(2)


def test_decoupled_insert_at_every_slot_splices_in_rank_order():
    # appending in an 8-bit space halves the top gap each time, so the larger
    # stores also find a full gap and re-space the whole store at some slots
    collisions = 0
    for n in range(12):
        for l in range(n + 1):
            st = DecoupledStore(index_bits=8)
            for i in range(n):
                st.insert_at(i, bytes([i]))
            old = st.logical_cells()
            st.insert_at(l, b"N")
            assert st.logical_cells() == old[:l] + [b"N"] + old[l:], (n, l)
            idx = st.sparse_indices()
            assert all(a < b for a, b in zip(idx, idx[1:])), (n, l, idx)
            collisions += st.collisions
    assert collisions


@pytest.mark.parametrize("layout", ["dense", "decoupled"])
def test_insert_at_rejects_slots_outside_the_store(layout):
    st = DenseStore() if layout == "dense" else DecoupledStore(index_bits=16)
    for i in range(3):
        st.insert_at(i, bytes([i]))
    before = st.logical_cells()
    for l in (-1, len(st) + 1):
        with pytest.raises(OutOfRange):
            st.insert_at(l, b"C")
    assert st.logical_cells() == before


def test_decoupled_collision_respaces_the_store():
    st = DecoupledStore(index_bits=16)
    st.insert_at(0, b"A")
    st.insert_at(1, b"B")
    st._sparse[:] = [7, 8]
    st.insert_at(1, b"C")
    assert st.collisions == 1
    assert [st.get_cell(j) for j in range(3)] == [b"A", b"C", b"B"]
    # both entries re-spaced a step of 2**16 // 3 apart, then C at the midpoint
    assert st.sparse_indices() == [21845, 32767, 43690]


def _slot_patterns():
    rng = random.Random(1)
    return {
        "ascending": lambda n: n,
        "descending": lambda n: 0,
        "hot-spot": lambda n: n // 2,
        "random": lambda n: rng.randrange(n + 1),
    }


@pytest.mark.parametrize("bits, count", [(256, 4000), (16, 4000)])
@pytest.mark.parametrize("pattern", list(_slot_patterns()))
def test_decoupled_collisions_bounded_per_gap(bits, count, pattern):
    # a re-spacing leaves every gap at least 2**(bits - ceil(log2(count+1))),
    # so the next takes at least `room` inserts into one gap
    room = bits - count.bit_length() - 1  # count.bit_length() == ceil(log2(count+1))
    assert room >= 2
    slot = _slot_patterns()[pattern]
    st = DecoupledStore(index_bits=bits)
    for n in range(count):
        st.insert_at(slot(n), n.to_bytes(2, "big"))
    assert st.collisions <= -(-count // room), st.collisions
    if pattern == "random" and bits == 256:
        assert st.collisions == 0
    idx = st.sparse_indices()
    assert all(a < b for a, b in zip(idx, idx[1:]))


def test_decoupled_store_full():
    st = DecoupledStore(index_bits=8)
    for i in range(120):
        st.insert_at(0, bytes([i]))
    with pytest.raises(StoreFull):
        for i in range(120, 300):
            st.insert_at(0, bytes([i]))


def test_decoupled_store_full_leaves_the_store_as_it_was():
    # 128 entries in an 8-bit space cannot be re-spaced 2 apart
    # (floor(256 / 129) == 1), so every full gap refuses the insert: slot 127
    # too, although the gap above rank 127 is wide
    st = DecoupledStore(index_bits=8)
    st._sparse = list(range(1, 129))
    st._cells = [bytes([i]) for i in range(128)]
    st.width = 1
    st.rebalance_step(64)  # a pass in progress stays where it was
    before = (st.sparse_indices(), st.logical_cells(), st.width, st._pass_left)
    for l in (0, 64, 127):  # full gaps
        with pytest.raises(StoreFull):
            st.insert_at(l, b"X")
    assert (st.sparse_indices(), st.logical_cells(), st.width, st._pass_left) == before
    assert st.collisions == 3  # only the count sees the attempts


def test_decoupled_index_bits_validation():
    with pytest.raises(StoreError):
        DecoupledStore(index_bits=12)
    with pytest.raises(StoreError):
        DecoupledStore(index_bits=0)


# ---------------------------------------------------------------------------
# rebalance
# ---------------------------------------------------------------------------


def _spaced_store(count, index_bits=16, seed=1):
    st = DecoupledStore(index_bits=index_bits, rng=random.Random(seed))
    for i in range(count):
        st.insert_at(i, bytes([i]))
    return st


def test_rebalance_pinned_targets():
    # 3 cells in an 8-bit space: targets are 64, 128, 192
    st = _spaced_store(3, index_bits=8)
    st.rebalance()
    assert st.sparse_indices() == [64, 128, 192]


def test_rebalance_gaps_equal():
    st = _spaced_store(10, index_bits=16)
    st.rebalance()
    idx = st.sparse_indices()
    gaps = [b - a for a, b in zip(idx, idx[1:])]
    assert len(set(gaps)) == 1
    assert idx[0] == gaps[0]  # first entry one step above the bottom bound
    assert gaps[0] == (1 << 16) // 11


def test_rebalance_rotates_cell_order():
    st = _spaced_store(8, seed=3)
    before = st.logical_cells()
    st.rebalance()
    after = st.logical_cells()
    assert sorted(before) == sorted(after)
    assert after in [before[s:] + before[:s] for s in range(8)]


def test_rebalance_noop_up_to_rotation_when_already_equidistant():
    st = _spaced_store(7, seed=9)
    st.rebalance()
    idx_before = st.sparse_indices()
    cells_before = st.logical_cells()
    st.rebalance()
    assert st.sparse_indices() == idx_before
    assert st.logical_cells() in [cells_before[s:] + cells_before[:s] for s in range(7)]


def test_rebalance_batched_equals_one_shot():
    a = _spaced_store(3, seed=42)
    b = _spaced_store(3, seed=42)
    steps = 1
    while not a.rebalance_step(1):
        steps += 1
    assert steps == 3
    assert b.rebalance_step(3)
    assert a.sparse_indices() == b.sparse_indices()
    assert a.logical_cells() == b.logical_cells()


def test_rebalance_pass_after_mutation_spaces_the_post_insert_order():
    st = _spaced_store(6, seed=4)
    assert not st.rebalance_step(2)
    st.insert_at(6, b"z")  # mutate mid-pass
    assert not st.rebalance_step(2)  # the insert does not restart the pass
    assert st.rebalance_step(2)  # it ends after the 6 entries it began with
    idx = st.sparse_indices()  # and spaces all 7 live ones
    gaps = [b - a for a, b in zip(idx, idx[1:])]
    assert len(set(gaps)) == 1 and len(idx) == 7
    ranks = [bytes([i]) for i in range(6)] + [b"z"]
    assert st.logical_cells() in [ranks[s:] + ranks[:s] for s in range(7)]


def test_rebalance_passes_complete_under_steady_inserts():
    # 3 random inserts per 10 hints of 64: each pass ends after ceil(n0 / 64)
    # hints, n0 being the size at its first hint, and leaves equal gaps and a
    # rotation of the live order, inserts made mid-pass included
    rng = random.Random(14)
    st = DecoupledStore(rng=random.Random(15))
    order = [i.to_bytes(4, "big") for i in range(2000)]
    for l, cell in enumerate(order):
        st.insert_at(l, cell)
    hints, passes, n0 = 0, 0, None
    for block in range(40):
        mix = ["hint"] * 10 + ["insert"] * 3
        rng.shuffle(mix)
        for kind in mix:
            if kind == "insert":
                l = rng.randrange(len(order) + 1)
                cell = len(order).to_bytes(4, "big")
                st.insert_at(l, cell)
                order.insert(l, cell)
                continue
            n0 = len(st) if n0 is None else n0
            hints += 1
            if not st.rebalance_step(64):
                continue
            assert hints == -(-n0 // 64), (passes, hints, n0)
            after = st.logical_cells()
            s = order.index(after[0])  # cells are distinct
            assert after == order[s:] + order[:s]
            step = st.index_space // (len(order) + 1)
            assert st.sparse_indices() == [(p + 1) * step for p in range(len(order))]
            order, hints, n0 = after, 0, None
            passes += 1
    assert passes >= 11  # 400 hints, at most ceil(2120 / 64) = 34 per pass


def test_rebalance_unique_indices_at_every_batch_boundary():
    st = _spaced_store(12, seed=8)
    before = st.logical_cells()
    while True:
        done = st.rebalance_step(1)
        idx = st.sparse_indices()
        assert len(set(idx)) == len(idx) == 12
        assert idx == sorted(idx)
        if done:
            break
        assert st.logical_cells() == before  # the pass is invisible until it completes


def test_rebalance_rotation_uniformity():
    # marked first cell: after a pass its rank should be uniform over n
    n, runs = 8, 4000
    counts = [0] * n
    for trial in range(runs):
        st = _spaced_store(n, seed=None)
        st._rng = random.Random(trial)
        marked = st.get_cell(0)
        st.rebalance()
        counts[st.logical_cells().index(marked)] += 1
    assert chi_square_uniform_p(counts) > 0.001, counts


def test_rebalance_too_full():
    # more entries than the space can hold one step apart
    st = DecoupledStore(index_bits=8)
    st._sparse = list(range(256))
    st._cells = [bytes([i]) for i in range(256)]
    with pytest.raises(StoreFull):
        st.rebalance()


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_dense_save_load_round_trip(tmp_path):
    st = DenseStore(cells(9, 8, 7), rng=random.Random(2))
    st.insert_at(0, b"YYYY")
    path = tmp_path / "d.store"
    st.save(path)
    loaded = load(path)
    assert loaded.mode == MODE_DENSE
    assert loaded == st
    assert loaded.logical_cells() == st.logical_cells()


def test_decoupled_save_load_round_trip(tmp_path):
    st = _spaced_store(9)
    path = tmp_path / "s.store"
    st.save(path)
    loaded = load(path)
    assert loaded.mode == MODE_DECOUPLED
    assert loaded == st
    assert loaded.sparse_indices() == st.sparse_indices()


def test_save_load_stream_round_trip():
    st = DenseStore(cells(1, 2))
    buf = io.BytesIO()
    st.save(buf)
    buf.seek(0)
    assert load(buf) == st


def test_load_rejects_bad_magic():
    with pytest.raises(FormatError):
        load(io.BytesIO(b"NOTMAGIC" + b"\x00" * 16))


def test_load_rejects_bad_version():
    blob = MAGIC + (99).to_bytes(2, "little") + bytes(11)
    with pytest.raises(FormatError):
        load(io.BytesIO(blob))


def test_load_rejects_truncation_and_trailing():
    st = DenseStore(cells(1, 2, 3))
    buf = io.BytesIO()
    st.save(buf)
    blob = buf.getvalue()
    with pytest.raises(FormatError):
        load(io.BytesIO(blob[:-2]))
    with pytest.raises(FormatError):
        load(io.BytesIO(blob + b"zz"))


def test_load_rejects_transform_modes():
    st = DenseStore(cells(1))
    buf = io.BytesIO()
    st.save(buf)
    blob = bytearray(buf.getvalue())
    blob[8] = 3  # mode byte inside the header
    with pytest.raises(ModeError):
        load(io.BytesIO(bytes(blob)))


@pytest.mark.parametrize(
    "mode, index_bits, records",
    [
        (MODE_DECOUPLED, 12, [(1, b"abcd")]),
        (MODE_DECOUPLED, 0, []),
        (MODE_DECOUPLED, 32776, [(1, b"abcd")]),
        (MODE_DENSE, 12, [b"abcd"]),
        (MODE_DENSE, 256, [b"abcd"]),
        (MODE_FHOPE, 8, []),
    ],
)
def test_load_rejects_an_index_width_the_mode_does_not_allow(mode, index_bits, records):
    # a multiple of 8 in [8, 32768] in decoupled mode, 0 in every other
    blob = reference_store_file(mode, records, index_bits=index_bits)
    for loader in (load, load_any):
        with pytest.raises(FormatError, match="index width"):
            loader(io.BytesIO(blob))


@pytest.mark.parametrize("widths", [(4, 4, 2), (4, 5), (0, 0)])
def test_load_rejects_cells_of_more_than_one_width_or_none(widths):
    cells = [bytes([7]) * w for w in widths]
    dense = reference_store_file(MODE_DENSE, cells)
    decoupled = reference_store_file(MODE_DECOUPLED, list(zip(range(1, 4), cells)), index_bits=16)
    for blob in (dense, decoupled):
        with pytest.raises(FormatError, match="width"):
            load(io.BytesIO(blob))
    with pytest.raises(StoreError, match="width"):  # nor can a store be built of them
        DenseStore(cells)


@pytest.mark.parametrize("layout", ["dense", "decoupled"])
def test_the_first_cell_fixes_the_store_width(layout):
    st = DenseStore() if layout == "dense" else DecoupledStore(index_bits=16)
    assert st.width == 0
    with pytest.raises(StoreError):
        st.insert_at(0, b"")
    assert st.width == 0 and len(st) == 0
    with pytest.raises(OutOfRange):
        st.insert_at(1, b"abc")  # refused, so the width stays open
    st.insert_at(0, b"abcd")
    assert st.width == 4
    for cell, l in ((b"abc", 0), (b"abcde", 1), (b"", 1), (b"abc", 9)):
        with pytest.raises(StoreError, match="4-byte cells") as exc:
            st.insert_at(l, cell)
        assert exc.type is StoreError  # the width is checked before the slot
    assert st.logical_cells() == [b"abcd"]
    st.insert_at(1, b"efgh")
    assert st.get_range(1, 2) in (b"efghabcd", b"abcdefgh")
    assert _reloaded(st).width == 4


def _reloaded(st):
    buf = io.BytesIO()
    st.save(buf)
    return load(io.BytesIO(buf.getvalue()))


def test_decoupled_load_rejects_non_increasing(tmp_path):
    st = _spaced_store(3)
    path = tmp_path / "bad.store"
    st.save(path)
    blob = bytearray(path.read_bytes())
    # overwrite the second sparse index with the first one's value
    width = st.domain_bits // 8
    header = 6 + 2 + 1 + 2 + 8
    first_rec = header
    second_rec = first_rec + width + 4 + len(st.get_cell(0))
    blob[second_rec: second_rec + width] = blob[first_rec: first_rec + width]
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load(path)


def _random_cells(rng, count, width):
    """``count`` random cells of ``width`` bytes."""
    return [rng.randbytes(width) for _ in range(count)]


def _dense_file_case(key, rng):
    # more records than one write holds, and a nonzero start offset to undo
    st = DenseStore(_random_cells(rng, 2 * RECORDS_PER_WRITE + 3, 7), rng=random.Random(4))
    for cell in _random_cells(rng, 3, 7):
        st.insert_at(rng.randrange(len(st) + 1), cell)
    assert st._start != 0
    return st, reference_store_file(MODE_DENSE, [st.get_cell(j) for j in range(len(st))])


def _decoupled_file_case(key, rng):
    st = DecoupledStore(rng=random.Random(5))
    st.insert_at(0, b"first")
    for cell in _random_cells(rng, RECORDS_PER_WRITE + 10, 5):
        st.insert_at(rng.randrange(len(st) + 1), cell)
    records = list(zip(st.sparse_indices(), [st.get_cell(j) for j in range(len(st))]))
    return st, reference_store_file(MODE_DECOUPLED, records, index_bits=st.domain_bits)


def _chain_file_case(builder, mode):
    def case(key, rng):
        table = builder(key, [rng.randrange(64) for _ in range(RECORDS_PER_WRITE + 10)], 64)
        records = [(s.kw_ct, s.id_ct, s.next) for s in table.slots]
        return table, reference_store_file(mode, records)

    return case


def _fhope_file_case(key, rng):
    table = build_fhope(key, [rng.randrange(64) for _ in range(500)], 64, coins=CoinSource(3))
    return table, reference_store_file(MODE_FHOPE, table.cells)


_FILE_CASES = {
    "dense": _dense_file_case,
    "decoupled": _decoupled_file_case,
    "det": _chain_file_case(build_det, MODE_DET),
    "ope": _chain_file_case(build_ope, MODE_OPE),
    "fhope": _fhope_file_case,
}


@pytest.mark.parametrize("case", _FILE_CASES.values(), ids=_FILE_CASES)
def test_saved_file_matches_reference_encoder(tmp_path, key, case):
    target, want = case(key, random.Random(17))
    path = tmp_path / "t.store"
    target.save(path)
    assert path.read_bytes() == want
    buf = io.BytesIO()
    target.save(buf)
    assert buf.getvalue() == want


_SMALL_STORES = {
    "dense": lambda key, count: DenseStore(cells(*range(count))),
    "decoupled": lambda key, count: _spaced_store(count),
    "det": lambda key, count: build_det(key, [2, 1, 2][:count], 4),
    "ope": lambda key, count: build_ope(key, [2, 1, 2][:count], 4),
    "fhope": lambda key, count: build_fhope(key, [2, 1, 2][:count], 4, coins=CoinSource(1)),
}


def _saved(target) -> bytes:
    buf = io.BytesIO()
    target.save(buf)
    return buf.getvalue()


def _loaders(target):
    return (load, load_any) if target.mode in (MODE_DENSE, MODE_DECOUPLED) else (load_any,)


#: a layout of another type over the same cells or slots as the given one
_OTHER_TYPE = {
    "dense": lambda st: FhopeEseds(st.logical_cells(), None),
    "decoupled": lambda st: DenseStore(st.logical_cells()),
    "det": lambda table: OpeEseds(table.slots, None),
    "ope": lambda table: DetEseds(table.slots, None),
    "fhope": lambda table: DenseStore(table.cells),
}


@pytest.mark.parametrize("kind", _FILE_CASES)
def test_layouts_are_equal_by_type_index_width_and_records(key, kind):
    target, _ = _FILE_CASES[kind](key, random.Random(23))
    loaded = load_any(io.BytesIO(_saved(target)))
    assert loaded == target and not loaded != target
    other = _OTHER_TYPE[kind](target)
    assert other.records()[-1] == target.records()[-1]  # the same cells, or the same links
    assert other != target and target != other
    if kind == "decoupled":  # the same records under another index width
        assert DecoupledStore.from_records(2 * target.domain_bits, target.records()) != target


@pytest.mark.parametrize("kind", _SMALL_STORES)
def test_every_prefix_and_an_extra_byte_are_format_errors(key, kind):
    target = _SMALL_STORES[kind](key, 3)
    raw = _saved(target)
    for loader in _loaders(target):
        assert loader(io.BytesIO(raw)) == target
        for end in range(len(raw)):
            with pytest.raises(FormatError):
                loader(io.BytesIO(raw[:end]))
        with pytest.raises(FormatError, match="trailing"):
            loader(io.BytesIO(raw + b"\x00"))


class _CountingReads(io.BytesIO):
    def __init__(self, raw):
        super().__init__(raw)
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)


@pytest.mark.parametrize("kind", _SMALL_STORES)
def test_a_count_of_2_63_over_one_record_fails_at_once(key, kind):
    target = _SMALL_STORES[kind](key, 1)
    raw = bytearray(_saved(target))
    raw[11:19] = (1 << 63).to_bytes(8, "little")  # the header's record count
    for loader in _loaders(target):
        src = _CountingReads(bytes(raw))
        with pytest.raises(FormatError, match="truncated"):
            loader(src)
        # a few reads, none sized from the count
        assert len(src.sizes) < 16 and max(src.sizes) <= RECORDS_PER_WRITE * len(raw)


def test_a_first_cell_declaring_4_gib_fails_with_bounded_reads():
    raw = bytearray(_saved(DenseStore(cells(1, 2))))
    raw[19:23] = (2**32 - 1).to_bytes(4, "little")  # the first cell's length, after the header
    for loader in (load, load_any):
        src = _CountingReads(bytes(raw))
        with pytest.raises(FormatError, match="truncated"):
            loader(src)
        assert max(src.sizes) <= 1 << 20  # no read sized from the declared width


def test_failed_save_leaves_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "d.store"
    old = DenseStore(cells(1, 2, 3))
    old.save(path)
    before = path.read_bytes()
    write_records = store_mod.write_records

    def fail_midway(sink, records):
        write_records(sink, itertools.islice(records, 2))
        raise OSError("disk full")

    monkeypatch.setattr(store_mod, "write_records", fail_midway)
    with pytest.raises(OSError, match="disk full"):
        DenseStore(cells(4, 5, 6, 7)).save(path)
    assert path.read_bytes() == before
    assert load(path) == old
    assert os.listdir(tmp_path) == ["d.store"]


def test_save_keeps_permission_bits_and_symlinks(tmp_path):
    path = tmp_path / "d.store"
    DenseStore(cells(1)).save(path)
    os.chmod(path, 0o640)
    link = tmp_path / "link.store"
    link.symlink_to(path)
    DenseStore(cells(2)).save(link)
    assert link.is_symlink()
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
    assert load(path) == DenseStore(cells(2))
    assert sorted(os.listdir(tmp_path)) == ["d.store", "link.store"]
