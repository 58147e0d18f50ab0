"""Tests for kernel map construction (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_module
from repro.core.engine import EngineConfig, ExecutionContext, TorchSparseEngine
from repro.core.kernel import (
    center_offset_index,
    is_all_odd,
    kernel_offsets,
    normalize,
    opposite_offset_index,
    to_tuple,
)
from repro.mapping.kmap import CoordIndex, KernelMap, build_kmap, identity_kmap
from repro.models import MODEL_ZOO
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.persist.blob import decode_artifact, encode_artifact

coords_strategy = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12)),
    min_size=1,
    max_size=80,
    unique=True,
)


def make_coords(rows):
    c = np.array(rows, dtype=np.int64).reshape(-1, 3)
    return np.concatenate(
        [np.zeros((c.shape[0], 1), dtype=np.int64), c], axis=1
    ).astype(np.int32)


def brute_force_map(in_coords, out_coords, kernel_size, stride):
    """Literal Algorithm 1 with Python dicts (per-axis strides too)."""
    offsets = kernel_offsets(kernel_size)
    s = to_tuple(stride, name="stride")
    table = {tuple(map(int, c)): j for j, c in enumerate(in_coords)}
    maps = [[] for _ in range(offsets.shape[0])]
    for k, q in enumerate(np.asarray(out_coords, dtype=np.int64)):
        for n, d in enumerate(offsets):
            r = (int(q[0]), *(int(q[1 + a] * s[a] + d[a]) for a in range(3)))
            j = table.get(r)
            if j is not None:
                maps[n].append((j, k))
    return maps


def assert_matches_brute_force(kmap, in_coords, out_coords, kernel_size, stride):
    oracle = brute_force_map(in_coords, out_coords, kernel_size, stride)
    for n in range(kmap.volume):
        got = sorted(zip(kmap.in_indices[n].tolist(), kmap.out_indices[n].tolist()))
        assert got == sorted(oracle[n]), f"offset {n} disagrees"


class TestBuildKmap:
    @pytest.mark.parametrize("backend", ["hash", "grid"])
    def test_stride1_matches_brute_force(self, backend):
        rng = np.random.default_rng(0)
        coords = make_coords(np.unique(rng.integers(0, 10, size=(60, 3)), axis=0))
        index = CoordIndex.build(coords, backend=backend, margin=1)
        kmap = build_kmap(coords, index, coords, kernel_size=3)
        assert_matches_brute_force(kmap, coords, coords, 3, 1)

    @pytest.mark.parametrize("kernel_size,stride", [(2, 2), (3, 2), (2, 3)])
    def test_strided_matches_brute_force(self, kernel_size, stride):
        rng = np.random.default_rng(1)
        in_coords = make_coords(np.unique(rng.integers(0, 12, size=(70, 3)), axis=0))
        out_coords = make_coords(np.unique(rng.integers(0, 6, size=(40, 3)), axis=0))
        index = CoordIndex.build(in_coords, backend="hash")
        kmap = build_kmap(
            in_coords, index, out_coords, kernel_size, stride=stride
        )
        assert_matches_brute_force(kmap, in_coords, out_coords, kernel_size, stride)

    def test_symmetry_flag_gives_identical_maps(self):
        """Symmetric search must produce exactly the same maps."""
        rng = np.random.default_rng(2)
        coords = make_coords(np.unique(rng.integers(0, 10, size=(80, 3)), axis=0))
        index = CoordIndex.build(coords, backend="hash")
        plain = build_kmap(coords, index, coords, 3, use_symmetry=False)
        sym = build_kmap(coords, index, coords, 3, use_symmetry=True)
        for n in range(27):
            a = sorted(zip(plain.in_indices[n].tolist(), plain.out_indices[n].tolist()))
            b = sorted(zip(sym.in_indices[n].tolist(), sym.out_indices[n].tolist()))
            assert a == b

    def test_symmetry_halves_queries(self):
        rng = np.random.default_rng(2)
        coords = make_coords(np.unique(rng.integers(0, 10, size=(80, 3)), axis=0))
        index = CoordIndex.build(coords, backend="hash")
        plain = build_kmap(coords, index, coords, 3, use_symmetry=False)
        sym = build_kmap(coords, index, coords, 3, use_symmetry=True)
        assert sym.queries_issued <= plain.queries_issued // 2 + plain.n_out

    def test_symmetric_sizes_equal(self):
        """|M[delta]| == |M[-delta]| for stride-1 odd kernels (Sec 4.2.1)."""
        rng = np.random.default_rng(3)
        coords = make_coords(np.unique(rng.integers(0, 8, size=(50, 3)), axis=0))
        index = CoordIndex.build(coords, backend="hash")
        kmap = build_kmap(coords, index, coords, 3)
        sizes = kmap.sizes
        for n in range(27):
            assert sizes[n] == sizes[opposite_offset_index(n, 3)]

    def test_center_is_identity_at_stride1(self):
        coords = make_coords([(0, 0, 0), (1, 1, 1), (5, 5, 5)])
        index = CoordIndex.build(coords, backend="hash")
        kmap = build_kmap(coords, index, coords, 3)
        c = kmap.center_index
        assert np.array_equal(kmap.in_indices[c], kmap.out_indices[c])
        assert len(kmap.in_indices[c]) == 3

    def test_kernel_size_one(self):
        coords = make_coords([(0, 0, 0), (2, 2, 2)])
        index = CoordIndex.build(coords, backend="hash")
        kmap = build_kmap(coords, index, coords, 1)
        assert kmap.total == 2

    def test_batch_separation(self):
        """Points in different batches must never match."""
        coords = np.array(
            [[0, 0, 0, 0], [1, 0, 0, 1]], dtype=np.int32
        )  # adjacent spatially, different batch
        index = CoordIndex.build(coords, backend="hash")
        kmap = build_kmap(coords, index, coords, 3)
        for n in range(27):
            for j, k in zip(kmap.in_indices[n], kmap.out_indices[n]):
                assert coords[j, 0] == coords[k, 0]

    def test_out_of_packing_range_probes_are_safe(self):
        """Probes past the packable coordinate range are treated as misses."""
        from repro.hashmap.coords import COORD_MAX

        coords = np.array([[0, COORD_MAX, 0, 0]], dtype=np.int32)
        index = CoordIndex.build(coords, backend="hash")
        kmap = build_kmap(coords, index, coords, 3)
        assert kmap.total == 1  # only the center matches

    @given(coords_strategy)
    @settings(max_examples=25, deadline=None)
    def test_property_matches_brute_force(self, rows):
        coords = make_coords(rows)
        index = CoordIndex.build(coords, backend="hash")
        kmap = build_kmap(coords, index, coords, 3)
        assert_matches_brute_force(kmap, coords, coords, 3, 1)
        kmap.validate()


def per_offset_build_kmap(in_coords, index, out_coords, kernel_size, stride=1,
                          use_symmetry=False):
    """Oracle: the per-offset map search, one fresh probe array and one
    plain ``lookup`` per offset, mirroring under symmetry as it goes."""
    kernel_size, stride = normalize(kernel_size), normalize(stride)
    s_arr = np.array(to_tuple(stride, name="stride"), dtype=np.int64)
    offsets = kernel_offsets(kernel_size)
    vol = offsets.shape[0]
    n_out = int(np.asarray(out_coords).shape[0])
    out64 = np.asarray(out_coords, dtype=np.int64)
    ins, outs = [None] * vol, [None] * vol
    queries = mirrored = 0
    symmetric_ok = use_symmetry and stride == 1 and is_all_odd(kernel_size)
    center = center_offset_index(kernel_size)
    for n in range(vol):
        if ins[n] is not None:
            continue
        if symmetric_ok and n == center:
            ins[n] = np.arange(n_out, dtype=np.int64)
            outs[n] = np.arange(n_out, dtype=np.int64)
            continue
        probe = out64.copy()
        probe[:, 1:] = probe[:, 1:] * s_arr + offsets[n]
        hit_vals = index.lookup(probe)
        queries += n_out
        hits = hit_vals >= 0
        ins[n] = hit_vals[hits].astype(np.int64)
        outs[n] = np.nonzero(hits)[0].astype(np.int64)
        if symmetric_ok:
            opp = opposite_offset_index(n, kernel_size)
            if opp != n and ins[opp] is None:
                ins[opp], outs[opp] = outs[n].copy(), ins[n].copy()
                mirrored += len(outs[n])
    return KernelMap(kernel_size, stride, int(np.asarray(in_coords).shape[0]),
                     n_out, ins, outs, queries_issued=queries,
                     mirrored_entries=mirrored)


def assert_same_kmap(got, want):
    """Byte-identical per-offset arrays, in order, and equal counters."""
    assert got.volume == want.volume
    for n in range(want.volume):
        for a, b in ((got.in_indices[n], want.in_indices[n]),
                     (got.out_indices[n], want.out_indices[n])):
            assert a.dtype == b.dtype == np.int64, f"offset {n} dtype"
            assert np.array_equal(a, b), f"offset {n} disagrees"
    assert got.queries_issued == want.queries_issued
    assert got.mirrored_entries == want.mirrored_entries


axis_kernel = st.integers(1, 5)
kernel_strategy = st.one_of(axis_kernel, st.tuples(*[axis_kernel] * 3))
axis_stride = st.integers(1, 2)
stride_strategy = st.one_of(axis_stride, st.tuples(*[axis_stride] * 3))
batched_rows = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 9), st.integers(0, 9),
              st.integers(0, 9)),
    max_size=70,
    unique=True,
)


class TestShiftedGridSearch:
    """The grid backend's one-ravel shifted search against the per-offset
    oracle: same maps, byte for byte and in order, same counters."""

    @given(
        in_rows=batched_rows.filter(len),
        out_rows=batched_rows,
        same_outputs=st.booleans(),
        kernel_size=kernel_strategy,
        stride=stride_strategy,
        use_symmetry=st.booleans(),
        margin=st.integers(0, 2),
        persisted=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_per_offset_search(self, in_rows, out_rows, same_outputs,
                                       kernel_size, stride, use_symmetry,
                                       margin, persisted):
        in_coords = np.array(in_rows, dtype=np.int32).reshape(-1, 4)
        out_coords = (in_coords if same_outputs
                      else np.array(out_rows, dtype=np.int32).reshape(-1, 4))
        index = CoordIndex.build(in_coords, backend="grid", margin=margin)
        if persisted:
            _, index = decode_artifact(encode_artifact("index", index))
        args = (in_coords, index, out_coords, kernel_size)
        # symmetry presumes the outputs are the inputs (the stride-1 case)
        kw = dict(stride=stride, use_symmetry=use_symmetry and same_outputs)
        before = index.stats.query_accesses
        got = build_kmap(*args, **kw)
        accesses = index.stats.query_accesses - before
        want = per_offset_build_kmap(*args, **kw)
        assert accesses == got.queries_issued
        assert_same_kmap(got, want)
        assert_same_kmap(got.transposed(), want.transposed())
        assert_matches_brute_force(got, in_coords, out_coords, kernel_size, stride)
        got.validate()

    def test_probes_leaving_the_box_do_not_alias(self):
        """Without the row mask, x + 1 past the box's x edge ravels onto
        the next y row's first slot, which is occupied here."""
        coords = np.array([[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
                          dtype=np.int32)
        index = CoordIndex.build(coords, backend="grid", margin=0)
        got = build_kmap(coords, index, coords, 3)
        assert_same_kmap(got, per_offset_build_kmap(coords, index, coords, 3))
        assert_matches_brute_force(got, coords, coords, 3, 1)

    def test_empty_outputs_issue_no_queries(self):
        coords = make_coords([(0, 0, 0), (1, 1, 1)])
        index = CoordIndex.build(coords, backend="grid", margin=1)
        empty = np.empty((0, 4), dtype=np.int32)
        reg = MetricsRegistry()
        with use_registry(reg):
            kmap = build_kmap(coords, index, empty, 3, stride=2)
        assert kmap.total == 0 and kmap.queries_issued == 0
        assert index.stats.query_accesses == 0
        assert not any("op=query" in k for k in reg.scalars())


def mapping_records(monkeypatch, key, search):
    """Priced forward of a zoo model on the grid backend with
    ``engine.build_kmap`` replaced by ``search``; returns the mapping
    records and, per search, (queries_issued, query-access delta,
    grid query-counter delta)."""
    entry = next(e for e in MODEL_ZOO if e.key == key)
    x = entry.make_dataset().sample_tensor(seed=0, scale=0.03)
    reg = MetricsRegistry()
    counter = reg.counter("table.accesses", backend="grid", op="query")
    searches = []

    def counted(in_coords, index, *args, **kw):
        accesses, count = index.stats.query_accesses, counter.value
        kmap = search(in_coords, index, *args, **kw)
        searches.append((kmap.queries_issued,
                         index.stats.query_accesses - accesses,
                         counter.value - count))
        return kmap

    engine = TorchSparseEngine(EngineConfig.torchsparse(map_backend="grid"))
    ctx = ExecutionContext(engine=engine, numerics=False)
    monkeypatch.setattr(engine_module, "build_kmap", counted)
    with use_registry(reg):
        entry.make_model()(x, ctx)
    records = [(r.name, r.time.hex(), float(r.bytes_moved).hex())
               for r in ctx.profile.records if r.stage == "mapping"]
    return records, searches


@pytest.mark.parametrize("key", ["centerpoint_3f_waymo", "minkunet_0.5x_kitti"])
def test_search_counters_and_mapping_records_unchanged(monkeypatch, key):
    """Each probe is one modeled access, so the shifted search bills the
    engine's mapping stage exactly as the per-offset search does."""
    records, searches = mapping_records(monkeypatch, key, build_kmap)
    oracle_records, oracle_searches = mapping_records(
        monkeypatch, key, per_offset_build_kmap
    )
    assert searches and records
    for queries, accesses, counted in searches:
        assert queries == accesses == counted
    assert searches == oracle_searches
    assert records == oracle_records


class TestKernelMapStructure:
    def test_transpose_swaps(self):
        rng = np.random.default_rng(5)
        coords = make_coords(np.unique(rng.integers(0, 8, size=(30, 3)), axis=0))
        index = CoordIndex.build(coords, backend="hash")
        kmap = build_kmap(coords, index, coords, 3)
        t = kmap.transposed()
        assert t.n_in == kmap.n_out and t.n_out == kmap.n_in
        for n in range(27):
            assert np.array_equal(t.in_indices[n], kmap.out_indices[n])
            assert np.array_equal(t.out_indices[n], kmap.in_indices[n])

    def test_identity_kmap(self):
        kmap = identity_kmap(3, 5)
        assert kmap.total == 5
        assert len(kmap.in_indices[kmap.center_index]) == 5
        kmap.validate()

    def test_validate_catches_bad_indices(self):
        kmap = identity_kmap(3, 5)
        kmap.in_indices[13] = np.array([99])
        kmap.out_indices[13] = np.array([0])
        with pytest.raises(ValueError):
            kmap.validate()

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            KernelMap(3, 1, 5, 5, [np.empty(0)] * 5, [np.empty(0)] * 5)

    def test_sizes_and_total(self):
        kmap = identity_kmap(3, 7)
        assert kmap.sizes.sum() == kmap.total == 7
