"""Tests for the collision-free grid table."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashmap.grid_table import GridTable
from repro.mapping.kmap import CoordIndex
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.robust.errors import GridMemoryError

coords_strategy = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.integers(-10, 10),
        st.integers(-10, 10),
        st.integers(-10, 10),
    ),
    min_size=1,
    max_size=100,
)


def as_array(rows):
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


class TestGridTable:
    def test_build_and_lookup(self):
        c = np.array([[0, 1, 2, 3], [0, 4, 5, 6]], dtype=np.int64)
        t = GridTable.from_coords(c)
        assert np.array_equal(t.lookup(c), [0, 1])
        assert len(t) == 2

    def test_missing_inside_box(self):
        c = np.array([[0, 0, 0, 0], [0, 3, 3, 3]], dtype=np.int64)
        t = GridTable.from_coords(c)
        assert t.lookup(np.array([[0, 1, 1, 1]]))[0] == -1

    def test_outside_box_is_absent_not_error(self):
        c = np.array([[0, 0, 0, 0]], dtype=np.int64)
        t = GridTable.from_coords(c)
        assert t.lookup(np.array([[0, 100, 100, 100]]))[0] == -1
        assert t.lookup(np.array([[0, -50, 0, 0]]))[0] == -1

    def test_margin_extends_box(self):
        c = np.array([[0, 0, 0, 0]], dtype=np.int64)
        t = GridTable.from_coords(c, margin=2)
        # coordinates within margin are inside the box (absent, not error)
        assert t.lookup(np.array([[0, 2, -2, 1]]))[0] == -1
        assert t.volume == 1 * 5 * 5 * 5

    def test_duplicate_insert_overwrites(self):
        c = np.array([[0, 1, 1, 1]], dtype=np.int64)
        t = GridTable.from_coords(c)
        t.insert(c, np.array([42]))
        assert t.lookup(c)[0] == 42
        assert len(t) == 1

    def test_exactly_one_access_per_operation(self):
        """The collision-free property: 1 slot access per build/query."""
        rng = np.random.default_rng(0)
        c = np.unique(rng.integers(0, 10, size=(60, 4)), axis=0)
        t = GridTable.from_coords(c)
        assert t.stats.build_accesses == c.shape[0]
        t.lookup(c)
        assert t.stats.query_accesses == c.shape[0]
        assert t.stats.max_probe_len == 1

    def test_volume_is_memory_price(self):
        c = np.array([[0, 0, 0, 0], [0, 9, 9, 9]], dtype=np.int64)
        t = GridTable.from_coords(c)
        assert t.volume == 10 * 10 * 10
        assert t.stats.table_bytes == t.volume * 8

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            GridTable(origin=np.zeros(3), shape=np.ones(3))
        with pytest.raises(ValueError):
            GridTable(origin=np.zeros(4), shape=np.array([1, 0, 1, 1]))

    def test_empty_coords_sizing_rejected(self):
        with pytest.raises(ValueError):
            GridTable.from_coords(np.empty((0, 4), dtype=np.int64))

    @given(coords_strategy, coords_strategy)
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_oracle(self, insert_rows, query_rows):
        ins = np.unique(as_array(insert_rows), axis=0)
        qry = as_array(query_rows)
        oracle = {tuple(r): i for i, r in enumerate(ins.tolist())}
        t = GridTable.from_coords(ins)
        got = t.lookup(qry)
        want = np.array([oracle.get(tuple(r), -1) for r in qry.tolist()])
        assert np.array_equal(got, want.reshape(got.shape))


@st.composite
def grid_cases(draw):
    """A random box, 1-3 inserts into it (duplicates likely within and
    across calls), and probes reaching up to 2 voxels past it."""
    origin = np.array(
        [draw(st.integers(0, 2))] + [draw(st.integers(-20, 20)) for _ in range(3)]
    )
    shape = np.array(
        [draw(st.integers(1, 2))] + [draw(st.integers(1, 5)) for _ in range(3)]
    )
    slot = st.tuples(*(st.integers(0, int(s) - 1) for s in shape))
    inserts = []
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.lists(slot, max_size=30))
        n = len(rows)
        vals = draw(st.lists(st.integers(0, 1000), min_size=n, max_size=n))
        inserts.append((as_array(rows) + origin, np.array(vals, dtype=np.int64)))
    probe = st.tuples(*(st.integers(-2, int(s) + 1) for s in shape))
    probes = as_array(draw(st.lists(probe, max_size=40))) + origin
    return origin, shape, inserts, probes


class TestSortedBacking:
    """The host backing answers exactly like the dense box it models."""

    @given(grid_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_dict_oracle_across_inserts(self, case):
        origin, shape, inserts, probes = case
        with use_registry(MetricsRegistry()) as reg:
            t = GridTable(origin=origin, shape=shape)
            oracle = {}
            for rows, vals in inserts:
                t.insert(rows, vals)
                oracle.update(zip(map(tuple, rows.tolist()), vals.tolist()))
            got = t.lookup(probes)
            load = reg.scalars().get("table.load{backend=grid}")
        want = [oracle.get(tuple(r), -1) for r in probes.tolist()]
        assert got.tolist() == want
        volume = int(np.prod(shape))
        assert len(t) == len(oracle)
        assert t.volume == volume
        assert t.stats.table_bytes == volume * 8
        assert t.stats.max_probe_len == 1
        assert t.stats.build_accesses == sum(len(r) for r, _ in inserts)
        assert t.stats.query_accesses == len(probes)
        if oracle:
            assert load == len(oracle) / volume

    @given(grid_cases(), st.integers(0, 3), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_bad_insert_raises_and_changes_nothing(self, case, axis, above):
        origin, shape, inserts, probes = case
        t = GridTable(origin=origin, shape=shape)
        for rows, vals in inserts:
            t.insert(rows, vals)
        before = t.lookup(probes)
        outside = origin.copy()
        outside[axis] += shape[axis] if above else -1
        with pytest.raises(ValueError):
            t.insert(outside[None, :], np.array([0]))
        with pytest.raises(ValueError):
            t.insert(origin[None, :], np.array([-1]))
        assert (t.lookup(probes) == before).all()

    @given(grid_cases(), st.integers(0, 2), st.integers(-2, 2))
    @settings(max_examples=60, deadline=None)
    def test_budget_raises_exactly_past_max_bytes(self, case, margin, slack):
        origin, _, inserts, _ = case
        coords = np.vstack([origin[None, :]] + [rows for rows, _ in inserts])
        extent = coords.max(axis=0) - coords.min(axis=0) + 1
        extent[1:] += 2 * margin
        volume = int(np.prod(extent))
        max_bytes = volume * 8 + 4 * slack
        if volume * 8 > max_bytes:
            with pytest.raises(GridMemoryError):
                GridTable.from_coords(coords, margin=margin, max_bytes=max_bytes)
        else:
            t = GridTable.from_coords(coords, margin=margin, max_bytes=max_bytes)
            assert t.volume == volume

    def test_host_memory_is_o_n_not_o_volume(self):
        """A two-point cloud in a ~500^3 box: the modeled table is ~1 GB,
        the host backing a few hundred bytes."""
        coords = np.array([[0, 0, 0, 0], [0, 500, 500, 500]])
        outer = tracemalloc.is_tracing()
        if not outer:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        try:
            index = CoordIndex.build(coords, backend="grid", margin=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not outer:
                tracemalloc.stop()
        assert index.stats.table_bytes == 1_030_301_000  # 505^3 slots x 8
        assert peak - base < 1 << 20


class TestGridVsHashEquivalence:
    def test_same_answers_as_hash_table(self):
        """Both backends must index identically (CoordIndex contract)."""
        from repro.mapping.kmap import CoordIndex

        rng = np.random.default_rng(3)
        coords = np.unique(rng.integers(0, 15, size=(80, 4)), axis=0)
        coords[:, 0] = 0
        probes = rng.integers(-2, 17, size=(200, 4))
        probes[:, 0] = 0
        hash_idx = CoordIndex.build(coords, backend="hash")
        grid_idx = CoordIndex.build(coords, backend="grid", margin=3)
        assert np.array_equal(hash_idx.lookup(probes), grid_idx.lookup(probes))


@st.composite
def shift_sets(draw):
    """Kernel-offset-like shift lists: z-runs (+1 in z, the reused
    search), repeats and descending z, and x/y changes that break a run
    even where z still steps by one."""
    axis = st.integers(-3, 3)
    shifts = []
    for _ in range(draw(st.integers(1, 5))):
        if shifts and draw(st.booleans()):
            # z steps by one, but x or y moves: not a z-run
            x, y, z = shifts[-1]
            dx, dy = draw(
                st.tuples(axis, axis).filter(lambda v: v != (0, 0))
            )
            start = (x + dx, y + dy, z + 1)
        else:
            start = draw(st.tuples(axis, axis, axis))
        step = draw(st.sampled_from([1, 1, 0, -1]))
        length = draw(st.integers(1, 5))
        shifts += [(start[0], start[1], start[2] + step * j) for j in range(length)]
    return np.array(shifts, dtype=np.int64)


@st.composite
def dense_coords(draw):
    """A small box with a few holes, so a probe's z-neighbours are
    mostly hits too and any mis-stepped search shows."""
    extent = [draw(st.integers(1, 2))] + [draw(st.integers(1, 4)) for _ in range(3)]
    full = np.argwhere(np.ones(extent, dtype=bool)) + np.array([0, -2, -2, -2])
    holes = draw(st.lists(st.integers(0, len(full) - 1), max_size=len(full) // 3))
    return np.delete(full, holes, axis=0)


class TestShiftedLookup:
    """``lookup(c, shifts)`` answers and bills exactly like one plain
    lookup per shifted probe set, on both backends."""

    @given(
        dense_coords(),
        st.lists(st.integers(0, 99), max_size=40),
        shift_sets(),
        st.integers(0, 2),
        st.sampled_from(["grid", "hash"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_shift_lookups(self, coords, picks, shifts, margin, backend):
        # probes: indexed rows, plus rows one voxel past the first three
        probes = np.vstack(
            [coords[[i % len(coords) for i in picks]], coords[:3] + (0, 1, 1, 1)]
        )
        shifted_index = CoordIndex.build(coords, backend=backend, margin=margin)
        plain_index = CoordIndex.build(coords, backend=backend, margin=margin)

        before = shifted_index.stats.query_accesses
        got = shifted_index.lookup(probes, shifts)
        billed = shifted_index.stats.query_accesses - before

        before = plain_index.stats.query_accesses
        want = np.stack(
            [plain_index.lookup(probes + np.append(0, d)) for d in shifts]
        )
        per_shift = plain_index.stats.query_accesses - before

        # the plain lookup shares the grid's code, so also ask a dict
        row_of = {tuple(r): i for i, r in enumerate(coords.tolist())}
        truth = [
            [row_of.get(tuple(r), -1) for r in (probes + np.append(0, d)).tolist()]
            for d in shifts
        ]
        assert got.shape == (len(shifts), len(probes))
        assert np.array_equal(got, want)
        assert got.tolist() == truth
        assert billed == per_shift
        if backend == "grid":
            # one modeled access per probe (hash adds its collisions)
            assert billed == len(shifts) * len(probes)
