"""Tests for the durable artifact store (`repro.persist`).

Covers the blob codec roundtrips and defensive decoding, the
crash-consistency protocol (torn manifest tail, stray temp files,
unrecorded blobs), mandatory load-time verification (bitrot is
quarantined, never served), scrub/purge maintenance, the store-backed
mapping-cache tier (write-through, cross-process warm hits, purge of
both tiers), the seeded disk-fault sites, and the StrategyBook
persistence hooks.
"""

import os

import numpy as np
import pytest

from repro.core.engine import ExecutionContext, TorchSparseEngine
from repro.core.sparse_tensor import SparseTensor
from repro.core.tuner import (
    LayerStrategy,
    StrategyBook,
    StrategyBookError,
)
from repro.mapping.cache import (
    CoordsKey,
    IndexKey,
    MappingCache,
    coords_fingerprint,
    kmap_key,
)
from repro.mapping.kmap import CoordIndex, build_kmap
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.persist import blob
from repro.persist import (
    ARTIFACT_KINDS,
    MANIFEST_NAME,
    PERSISTED_KINDS,
    STORE_SCHEMA,
    ArtifactStore,
    StoreBackedMappingCache,
    artifact_nbytes,
    book_key,
    content_checksum,
    decode_artifact,
    encode_artifact,
    frame_key,
    store_key,
)
from repro.robust.errors import StoreCorruptionError
from repro.robust.faults import (
    STORE_FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    inject_faults,
)


def make_coords(n=60, seed=0, span=16):
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, span, size=(4 * n, 3))
    coords = np.unique(coords, axis=0)[:n]
    return np.hstack(
        [np.zeros((len(coords), 1), dtype=np.int64), coords]
    ).astype(np.int32)


def make_cloud(n=60, seed=0):
    coords = make_coords(n=n, seed=seed)
    rng = np.random.default_rng(seed + 100)
    feats = rng.standard_normal((len(coords), 4)).astype(np.float32)
    return SparseTensor(coords, feats)


def make_kmap(seed=0, backend="hash"):
    coords = make_coords(seed=seed)
    index = CoordIndex.build(coords, backend=backend)
    return build_kmap(coords, index, coords, kernel_size=3, stride=1)


# -- blob codec --------------------------------------------------------------


class TestBlobRoundtrip:
    def test_kmap_roundtrip_exact(self):
        kmap = make_kmap()
        data = encode_artifact("kmap", kmap)
        kind, back = decode_artifact(data)
        assert kind == "kmap"
        assert back.kernel_size == kmap.kernel_size
        assert back.stride == kmap.stride
        assert back.n_in == kmap.n_in and back.n_out == kmap.n_out
        assert back.total == kmap.total
        for a, b in zip(kmap.in_indices, back.in_indices):
            assert (a == b).all()
        for a, b in zip(kmap.out_indices, back.out_indices):
            assert (a == b).all()

    @pytest.mark.parametrize("backend", ["hash", "grid"])
    def test_index_roundtrip_answers_queries(self, backend):
        coords = make_coords(seed=3)
        index = CoordIndex.build(coords, backend=backend)
        kind, back = decode_artifact(
            encode_artifact("index", index)
        )
        assert kind == "index"
        assert type(back.table).__name__ == type(index.table).__name__
        # the restored table answers every original query identically
        got = back.lookup(coords)
        want = index.lookup(coords)
        assert (got == want).all()

    def test_coords_roundtrip_exact(self):
        coords = make_coords(seed=5)
        kind, back = decode_artifact(encode_artifact("coords", coords))
        assert kind == "coords"
        assert back.dtype == coords.dtype
        assert (back == coords).all()

    def test_book_roundtrip(self):
        book = StrategyBook(device_name="RTX 3090")
        book.set(
            "conv1",
            LayerStrategy(
                epsilon=0.2, s_threshold=1e4, expected_time=1.5
            ),
        )
        kind, back = decode_artifact(encode_artifact("book", book))
        assert kind == "book"
        assert back.dumps() == book.dumps()

    def test_frame_roundtrip(self):
        data = encode_artifact(
            "frame", {"model": "minkunet", "scene": "scene7"}
        )
        kind, back = decode_artifact(data)
        assert kind == "frame"
        assert back == {"model": "minkunet", "scene": "scene7"}

    def test_encoding_is_deterministic(self):
        a = encode_artifact("kmap", make_kmap(seed=1))
        b = encode_artifact("kmap", make_kmap(seed=1))
        assert a == b

    def test_nbytes_positive_for_all_kinds(self):
        kmap = make_kmap()
        coords = make_coords()
        index = CoordIndex.build(coords, backend="hash")
        book = StrategyBook(device_name="x")
        for kind, value in [
            ("kmap", kmap),
            ("coords", coords),
            ("index", index),
            ("book", book),
            ("frame", {"model": "m", "scene": "s"}),
        ]:
            assert artifact_nbytes(kind, value) > 0


class TestBlobDefensiveDecode:
    def good(self):
        return encode_artifact("coords", make_coords())

    def test_bad_magic(self):
        data = b"XXXX" + self.good()[4:]
        with pytest.raises(StoreCorruptionError):
            decode_artifact(data)

    def test_truncated_header(self):
        with pytest.raises(StoreCorruptionError):
            decode_artifact(self.good()[:10])

    def test_truncated_payload(self):
        with pytest.raises(StoreCorruptionError):
            decode_artifact(self.good()[:-8])

    def test_trailing_garbage(self):
        with pytest.raises(StoreCorruptionError):
            decode_artifact(self.good() + b"\x00" * 7)

    def test_header_not_json(self):
        data = bytearray(self.good())
        data[9] = data[9] ^ 0xFF  # inside the JSON header
        with pytest.raises(StoreCorruptionError):
            decode_artifact(bytes(data))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            encode_artifact("sandwich", b"")
        assert "sandwich" not in ARTIFACT_KINDS


def _swap_first_keys(meta, arrays):
    arrays[2][[0, 1]] = arrays[2][[1, 0]]


def _repeat_first_key(meta, arrays):
    arrays[2][1] = arrays[2][0]


def _negative_key(meta, arrays):
    arrays[2][0] = -1


def _key_past_volume(meta, arrays):
    arrays[2][-1] = int(np.prod(arrays[1]))


def _negative_value(meta, arrays):
    arrays[3][0] = -1


def _size_disagrees(meta, arrays):
    meta["size"] += 1


def _dense_layout(meta, arrays):
    """The pre-versioning grid blob: one O(volume) value+1 slot array."""
    origin, shape, keys, values = arrays
    dense = np.zeros(int(np.prod(shape)), dtype=np.int64)
    dense[keys] = values + 1
    del meta["layout"]
    arrays[:] = [origin, shape, dense]


class TestGridIndexBlob:
    """Grid-index blobs hold the occupied slots, not the dense box."""

    def index(self):
        return CoordIndex.build(make_coords(seed=3), backend="grid", margin=1)

    def repack(self, mutate):
        _, meta, arrays = blob._unpack(encode_artifact("index", self.index()))
        mutate(meta, arrays)
        return blob._pack("index", meta, arrays)

    def test_roundtrip_keeps_table_and_stats(self):
        index = self.index()
        _, back = decode_artifact(encode_artifact("index", index))
        rng = np.random.default_rng(0)
        probes = rng.integers(-2, 18, size=(300, 4))
        probes[:, 0] = rng.integers(0, 2, size=300)
        assert (back.lookup(probes) == index.lookup(probes)).all()
        assert len(back.table) == len(index.table)
        assert back.table.volume == index.table.volume
        assert back.stats == index.stats
        _, meta, _ = blob._unpack(encode_artifact("index", index))
        assert meta["layout"] == blob.GRID_LAYOUT

    @pytest.mark.parametrize(
        "mutate",
        [
            _swap_first_keys,
            _repeat_first_key,
            _negative_key,
            _key_past_volume,
            _negative_value,
            _size_disagrees,
            _dense_layout,
        ],
    )
    def test_malformed_blob_rejected(self, mutate):
        with pytest.raises(StoreCorruptionError):
            decode_artifact(self.repack(mutate))

    def test_dense_layout_quarantined_by_tier(self, tmp_path):
        with use_registry(MetricsRegistry()) as reg:
            store = ArtifactStore(tmp_path / "store")
            key = IndexKey(coords_fingerprint(make_coords(seed=3)), "grid")
            store.save(store_key(key), "index", self.repack(_dense_layout))
            assert StoreBackedMappingCache(store).get(key) is None
            assert reg.scalars()["persist.quarantined{reason=decode}"] == 1

    def test_blob_size_is_o_n_not_o_volume(self):
        coords = np.array([[0, 0, 0, 0], [0, 500, 500, 500]])
        index = CoordIndex.build(coords, backend="grid", margin=2)
        assert index.stats.table_bytes == 505**3 * 8
        assert len(encode_artifact("index", index)) < 4096


# -- store keys --------------------------------------------------------------


class TestKeys:
    def test_store_key_stable_and_distinct(self):
        coords = make_coords(seed=0)
        k1 = CoordsKey(coords_fingerprint(coords), (2, 2, 2), (2, 2, 2))
        k2 = CoordsKey(coords_fingerprint(coords), (3, 3, 3), (1, 1, 1))
        assert store_key(k1) == store_key(k1)
        assert store_key(k1) != store_key(k2)

    def test_index_vs_coords_keys_never_collide(self):
        fp = coords_fingerprint(make_coords(seed=1))
        assert store_key(IndexKey(fp, "hash")) != store_key(
            CoordsKey(fp, (1, 1, 1), (1, 1, 1))
        )

    def test_book_and_frame_keys(self):
        assert book_key("mink", "RTX 3090") != book_key("mink", "GTX")
        assert frame_key("m", "s1") != frame_key("m", "s2")


# -- the store protocol ------------------------------------------------------


class TestStore:
    def test_save_load_roundtrip(self, tmp_path):
        with use_registry(MetricsRegistry()) as reg:
            store = ArtifactStore(tmp_path / "store")
            data = encode_artifact("coords", make_coords())
            store.save("k" * 32, "coords", data, fingerprints=("fp1",))
            assert store.load("k" * 32) == data
            scalars = reg.scalars()
            assert scalars["persist.saves{kind=coords}"] == 1
            assert scalars["persist.loads{result=hit}"] == 1
            assert scalars["persist.entries"] == 1

    def test_miss_is_counted_not_raised(self, tmp_path):
        with use_registry(MetricsRegistry()) as reg:
            store = ArtifactStore(tmp_path / "store")
            assert store.load("nope") is None
            assert reg.scalars()["persist.loads{result=miss}"] == 1

    def test_cross_process_reopen_serves_same_bytes(self, tmp_path):
        root = tmp_path / "store"
        data = encode_artifact("coords", make_coords(seed=2))
        with use_registry(MetricsRegistry()):
            ArtifactStore(root).save("a" * 32, "coords", data)
            # a second open is the cross-process case: fresh entries
            # replayed from the manifest, same verified bytes
            again = ArtifactStore(root)
            assert again.load("a" * 32) == data
            assert again.recovery == {
                "torn_tail": 0,
                "damaged_records": 0,
                "missing_objects": 0,
            }

    def test_bitrot_quarantined_never_served(self, tmp_path):
        root = tmp_path / "store"
        with use_registry(MetricsRegistry()) as reg:
            store = ArtifactStore(root)
            data = encode_artifact("coords", make_coords())
            store.save("b" * 32, "coords", data)
            blob = store._path("b" * 32)
            raw = bytearray(open(blob, "rb").read())
            raw[len(raw) // 2] ^= 0xFF
            open(blob, "wb").write(bytes(raw))
            assert store.load("b" * 32) is None
            # quarantined: gone from entries, blob moved aside
            assert "b" * 32 not in store.entries
            assert not os.path.exists(blob)
            assert os.path.exists(
                os.path.join(store.quarantine_dir, "b" * 32 + ".bin")
            )
            scalars = reg.scalars()
            assert scalars["persist.loads{result=corrupt}"] == 1
            assert scalars["persist.quarantined{reason=checksum}"] == 1
            # and the eviction is durable: a reopen misses too
            assert ArtifactStore(root).load("b" * 32) is None

    def test_truncation_caught_by_size(self, tmp_path):
        with use_registry(MetricsRegistry()):
            store = ArtifactStore(tmp_path / "store")
            data = encode_artifact("coords", make_coords())
            store.save("c" * 32, "coords", data)
            blob = store._path("c" * 32)
            open(blob, "wb").write(data[: len(data) // 2])
            assert store.load("c" * 32) is None

    def test_torn_manifest_tail_recovered(self, tmp_path):
        root = tmp_path / "store"
        with use_registry(MetricsRegistry()):
            store = ArtifactStore(root)
            d1 = encode_artifact("coords", make_coords(seed=1))
            d2 = encode_artifact("coords", make_coords(seed=2))
            store.save("d" * 32, "coords", d1)
            store.save("e" * 32, "coords", d2)
            # crash mid-append: chop the final record in half
            text = open(store.manifest_path).read()
            torn = text[: len(text) - len(text.splitlines()[-1]) // 2 - 1]
            open(store.manifest_path, "w").write(torn)
            again = ArtifactStore(root)
            assert again.recovery["torn_tail"] == 1
            # the survivor is intact; the torn record's blob is simply
            # not visible (crash before durable record = not written)
            assert again.load("d" * 32) == d1
            assert again.load("e" * 32) is None

    def test_damaged_interior_record_skipped(self, tmp_path):
        root = tmp_path / "store"
        with use_registry(MetricsRegistry()):
            store = ArtifactStore(root)
            store.save(
                "f" * 32, "coords", encode_artifact("coords", make_coords())
            )
            lines = open(store.manifest_path).read().splitlines()
            lines.insert(1, '{"op": "put", "key"')  # interior damage
            open(store.manifest_path, "w").write("\n".join(lines) + "\n")
            again = ArtifactStore(root)
            assert again.recovery["damaged_records"] == 1
            assert again.load("f" * 32) is not None

    def test_unrecorded_blob_invisible(self, tmp_path):
        """A blob written but not recorded (crash between rename and
        manifest append) must be invisible, then scrubbed as orphan."""
        root = tmp_path / "store"
        with use_registry(MetricsRegistry()):
            store = ArtifactStore(root)
            orphan = os.path.join(store.objects_dir, "zz", "z" * 32 + ".bin")
            os.makedirs(os.path.dirname(orphan))
            open(orphan, "wb").write(b"whatever")
            assert store.load("z" * 32) is None
            assert store.scrub()["orphans"] == 1
            assert not os.path.exists(orphan)

    def test_missing_object_dropped_on_replay(self, tmp_path):
        root = tmp_path / "store"
        with use_registry(MetricsRegistry()):
            store = ArtifactStore(root)
            store.save(
                "g" * 32, "coords", encode_artifact("coords", make_coords())
            )
            os.remove(store._path("g" * 32))
            again = ArtifactStore(root)
            assert again.recovery["missing_objects"] == 1
            assert "g" * 32 not in again.entries

    def test_corrupt_header_raises_typed(self, tmp_path):
        root = tmp_path / "store"
        with use_registry(MetricsRegistry()):
            ArtifactStore(root)
            open(os.path.join(root, MANIFEST_NAME), "w").write(
                '{"schema": "bogus/9"}\n'
            )
            with pytest.raises(StoreCorruptionError):
                ArtifactStore(root)

    def test_open_missing_without_create(self, tmp_path):
        with pytest.raises(StoreCorruptionError):
            ArtifactStore(tmp_path / "absent", create=False)

    def test_evict_by_fingerprint(self, tmp_path):
        with use_registry(MetricsRegistry()):
            store = ArtifactStore(tmp_path / "store")
            data = encode_artifact("coords", make_coords())
            store.save("h" * 32, "coords", data, fingerprints=("fpA",))
            store.save("i" * 32, "coords", data, fingerprints=("fpB",))
            assert store.evict_fingerprints(["fpA"]) == 1
            assert store.load("h" * 32) is None
            assert store.load("i" * 32) == data
            # durable across reopen
            assert (tmp_path / "store").exists()
            assert ArtifactStore(tmp_path / "store").load("h" * 32) is None

    def test_stats_shape(self, tmp_path):
        with use_registry(MetricsRegistry()):
            store = ArtifactStore(tmp_path / "store")
            store.save(
                "j" * 32, "coords", encode_artifact("coords", make_coords())
            )
            s = store.stats()
            assert s["schema"] == STORE_SCHEMA
            assert s["entries"] == 1
            assert s["by_kind"] == {"coords": 1}
            assert s["bytes"] > 0
            assert s["quarantined"] == 0


class TestScrubAndPurge:
    def test_scrub_evicts_and_compacts(self, tmp_path):
        root = tmp_path / "store"
        with use_registry(MetricsRegistry()):
            store = ArtifactStore(root)
            good = encode_artifact("coords", make_coords(seed=1))
            bad = encode_artifact("coords", make_coords(seed=2))
            store.save("k" * 32, "coords", good)
            store.save("l" * 32, "coords", bad)
            open(store._path("l" * 32), "ab").write(b"rot")
            # stray temp file from a simulated crash
            open(store._path("k" * 32) + ".tmp", "wb").write(b"x")
            report = store.scrub()
            assert report["evicted"] == ["l" * 32]
            assert report["tmp_files"] == 1
            # second scrub of the repaired store finds nothing
            again = store.scrub()
            assert again == {"evicted": [], "orphans": 0, "tmp_files": 0}
            # compaction: manifest has exactly header + one live record
            reopened = ArtifactStore(root)
            assert reopened.recovery == {
                "torn_tail": 0,
                "damaged_records": 0,
                "missing_objects": 0,
            }
            assert list(reopened.entries) == ["k" * 32]
            assert reopened.load("k" * 32) == good

    def test_verify_is_read_only(self, tmp_path):
        with use_registry(MetricsRegistry()):
            store = ArtifactStore(tmp_path / "store")
            store.save(
                "m" * 32, "coords", encode_artifact("coords", make_coords())
            )
            open(store._path("m" * 32), "ab").write(b"!")
            report = store.verify()
            assert report["checked"] == 1 and report["ok"] == 0
            assert report["corrupt"][0]["reason"] == "size"
            # still present until scrub acts
            assert "m" * 32 in store.entries

    def test_purge_empties_but_store_stays_openable(self, tmp_path):
        root = tmp_path / "store"
        with use_registry(MetricsRegistry()):
            store = ArtifactStore(root)
            store.save(
                "n" * 32, "coords", encode_artifact("coords", make_coords())
            )
            assert store.purge() == 1
            assert store.stats()["entries"] == 0
            assert ArtifactStore(root).stats()["entries"] == 0


# -- seeded disk-fault sites -------------------------------------------------


class TestFaultSites:
    def test_store_kinds_registered(self):
        from repro.robust.faults import PIPELINE_FAULT_KINDS

        assert set(STORE_FAULT_KINDS) == {
            "store_torn_write",
            "store_bitrot",
            "store_manifest_corrupt",
            "store_stale_entry",
        }
        for kind in STORE_FAULT_KINDS:
            assert kind in PIPELINE_FAULT_KINDS

    @pytest.mark.parametrize(
        "kind", ["store_torn_write", "store_bitrot", "store_stale_entry"]
    )
    def test_damaged_save_detected_on_load(self, kind, tmp_path):
        with use_registry(MetricsRegistry()) as reg:
            store = ArtifactStore(tmp_path / "store")
            data = encode_artifact("coords", make_coords())
            inj = FaultInjector(seed=0, specs=[FaultSpec(kind, count=1)])
            with inject_faults(inj):
                store.save("o" * 32, "coords", data)
                assert inj.shots == 1
                # verification catches it under the injector too
                assert store.load("o" * 32) is None
            assert reg.scalars()["persist.loads{result=corrupt}"] == 1
            # rebuild succeeds once the fault is spent
            store.save("o" * 32, "coords", data)
            assert store.load("o" * 32) == data

    def test_manifest_corrupt_recovered_on_reopen(self, tmp_path):
        root = tmp_path / "store"
        with use_registry(MetricsRegistry()):
            store = ArtifactStore(root)
            data = encode_artifact("coords", make_coords())
            inj = FaultInjector(
                seed=0, specs=[FaultSpec("store_manifest_corrupt", count=1)]
            )
            with inject_faults(inj):
                store.save("p" * 32, "coords", data)
            assert inj.shots == 1
            again = ArtifactStore(root)
            assert (
                again.recovery["torn_tail"]
                + again.recovery["damaged_records"]
                >= 1
            )
            # the damaged record's entry is not trusted...
            assert again.load("p" * 32) is None
            # ...and scrub leaves a clean, re-writable store
            again.scrub()
            again.save("p" * 32, "coords", data)
            assert again.load("p" * 32) == data


# -- the store-backed tier ---------------------------------------------------


def run_conv(x, ctx, w):
    return ctx.engine.convolution(x, w, ctx, kernel_size=3, stride=1)


class TestStoreBackedTier:
    def weights(self):
        rng = np.random.default_rng(7)
        return rng.standard_normal((27, 4, 8)).astype(np.float32)

    def test_write_through_and_cross_process_warm_hit(self, tmp_path):
        x = make_cloud(seed=0)
        w = self.weights()
        engine = TorchSparseEngine()
        root = tmp_path / "store"
        with use_registry(MetricsRegistry()):
            tier = StoreBackedMappingCache(ArtifactStore(root))
            cold = ExecutionContext(engine=engine, mapcache=tier)
            out_cold = run_conv(x, cold, w)
            stats = tier.store.stats()
            assert stats["entries"] > 0
            assert set(stats["by_kind"]) <= set(PERSISTED_KINDS)
        # "new process": fresh registry, fresh memory tier, same disk
        with use_registry(MetricsRegistry()) as reg:
            tier2 = StoreBackedMappingCache(ArtifactStore(root))
            warm = ExecutionContext(engine=engine, mapcache=tier2)
            out_warm = run_conv(x, warm, w)
            scalars = reg.scalars()
            assert scalars["persist.tier{result=warm}"] > 0
            assert scalars["persist.loads{result=hit}"] > 0
        assert out_warm.feats.tobytes() == out_cold.feats.tobytes()
        assert (out_warm.coords == out_cold.coords).all()

    def test_tier_matches_plain_cache_bit_exact(self, tmp_path):
        x = make_cloud(seed=1)
        w = self.weights()
        engine = TorchSparseEngine()
        with use_registry(MetricsRegistry()):
            tier = StoreBackedMappingCache(
                ArtifactStore(tmp_path / "store")
            )
            a = ExecutionContext(engine=engine, mapcache=tier)
            out_a = run_conv(x, a, w)
            b = ExecutionContext(engine=engine, mapcache=MappingCache())
            out_b = run_conv(x, b, w)
        assert out_a.feats.tobytes() == out_b.feats.tobytes()

    def test_corrupted_store_entry_rebuilt_not_served(self, tmp_path):
        x = make_cloud(seed=2)
        w = self.weights()
        engine = TorchSparseEngine()
        root = tmp_path / "store"
        with use_registry(MetricsRegistry()):
            tier = StoreBackedMappingCache(ArtifactStore(root))
            out_clean = run_conv(
                x, ExecutionContext(engine=engine, mapcache=tier), w
            )
            # rot every blob on disk
            for key in list(tier.store.entries):
                path = tier.store._path(key)
                raw = bytearray(open(path, "rb").read())
                raw[len(raw) // 2] ^= 0xFF
                open(path, "wb").write(bytes(raw))
        with use_registry(MetricsRegistry()) as reg:
            tier2 = StoreBackedMappingCache(ArtifactStore(root))
            out = run_conv(
                x, ExecutionContext(engine=engine, mapcache=tier2), w
            )
            scalars = reg.scalars()
            assert scalars.get("persist.loads{result=corrupt}", 0) > 0
            assert scalars.get("persist.tier{result=warm}", 0) == 0
        # rebuilt output identical to the clean run
        assert out.feats.tobytes() == out_clean.feats.tobytes()

    def test_purge_hits_both_tiers(self, tmp_path):
        x = make_cloud(seed=3)
        w = self.weights()
        engine = TorchSparseEngine()
        root = tmp_path / "store"
        with use_registry(MetricsRegistry()):
            tier = StoreBackedMappingCache(ArtifactStore(root))
            run_conv(x, ExecutionContext(engine=engine, mapcache=tier), w)
            fp = coords_fingerprint(x.coords)
            assert tier.purge([fp]) > 0
            assert tier.stats()["entries"] == 0
            assert tier.store.stats()["entries"] == 0
            # and durably: a reopen sees the evictions
            assert ArtifactStore(root).stats()["entries"] == 0

    def test_decode_damage_quarantined(self, tmp_path):
        """Checksum-valid but structurally bad blob: the tier must
        quarantine on decode failure, not crash or serve."""
        with use_registry(MetricsRegistry()) as reg:
            store = ArtifactStore(tmp_path / "store")
            coords = make_coords(seed=4)
            key = IndexKey(coords_fingerprint(coords), "hash")
            # record garbage *as* the entry: checksum matches garbage
            store.save(store_key(key), "index", b"not a blob")
            tier = StoreBackedMappingCache(store)
            assert tier.get(key) is None
            assert (
                reg.scalars()["persist.quarantined{reason=decode}"] == 1
            )

    def test_kind_mismatch_quarantined(self, tmp_path):
        with use_registry(MetricsRegistry()) as reg:
            store = ArtifactStore(tmp_path / "store")
            coords = make_coords(seed=5)
            key = IndexKey(coords_fingerprint(coords), "hash")
            # a frame blob filed under an index key
            store.save(
                store_key(key),
                "index",
                encode_artifact("frame", {"model": "m", "scene": "s"}),
            )
            tier = StoreBackedMappingCache(store)
            assert tier.get(key) is None
            assert (
                reg.scalars()["persist.quarantined{reason=kind_mismatch}"]
                == 1
            )


# -- StrategyBook persistence ------------------------------------------------


class TestBookStore:
    def book(self):
        book = StrategyBook(device_name="RTX 3090")
        book.set(
            "conv1",
            LayerStrategy(
                epsilon=0.15, s_threshold=2e4, expected_time=0.8
            ),
        )
        return book

    def test_roundtrip_through_store(self, tmp_path):
        with use_registry(MetricsRegistry()):
            store = ArtifactStore(tmp_path / "store")
            book = self.book()
            key = book.save_to_store(store, "minkunet")
            assert key == book_key("minkunet", "RTX 3090")
            back = StrategyBook.load_from_store(
                store, "minkunet", device_name="RTX 3090"
            )
            assert back.dumps() == book.dumps()

    def test_missing_raises_unless_fallback(self, tmp_path):
        with use_registry(MetricsRegistry()):
            store = ArtifactStore(tmp_path / "store")
            with pytest.raises(StrategyBookError):
                StrategyBook.load_from_store(store, "absent")
            assert (
                StrategyBook.load_from_store(
                    store, "absent", fallback=True
                )
                is None
            )

    def test_corrupt_book_falls_back(self, tmp_path):
        with use_registry(MetricsRegistry()) as reg:
            store = ArtifactStore(tmp_path / "store")
            self.book().save_to_store(store, "minkunet")
            key = book_key("minkunet", "RTX 3090")
            path = store._path(key)
            raw = bytearray(open(path, "rb").read())
            raw[len(raw) // 2] ^= 0xFF
            open(path, "wb").write(bytes(raw))
            assert (
                StrategyBook.load_from_store(
                    store,
                    "minkunet",
                    device_name="RTX 3090",
                    fallback=True,
                )
                is None
            )
            assert reg.scalars()["persist.quarantined{reason=checksum}"] == 1
