"""Tests for the ABFT integrity layer: checksummed GEMM, buffer
sentinels, detect -> recompute -> escalate wiring, and the seeded SDC
campaign."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import BaseEngine, EngineConfig, ExecutionContext
from repro.core.sparse_tensor import SparseTensor
from repro.gpu.device import RTX_2080TI
from repro.gpu.gemm import checksum_cost, sequential_cost
from repro.gpu.memory import DType
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.robust.degrade import RobustConfig
from repro.robust.errors import FAULT_ERRORS, IntegrityError
from repro.robust.faults import (
    PIPELINE_FAULT_KINDS,
    SDC_FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    inject_faults,
    maybe_bitflip_features,
    maybe_bitflip_weights,
    maybe_force_checksum_mismatch,
    maybe_silent_corruption,
)
from repro.robust.tolerance import CLOSE_FP32, END_TO_END
from repro.robust.integrity import (
    DTYPE_PRESET_KEYS,
    INTEGRITY_SCHEMA,
    IntegrityChecker,
    IntegrityConfig,
    IntegrityReport,
    run_clean_probe,
    run_integrity_campaign,
    run_integrity_trial,
)


def make_checker(dtype=DType.FP32, **cfg):
    return IntegrityChecker(
        IntegrityConfig(**cfg), dtype, RTX_2080TI, metrics=MetricsRegistry()
    )


def make_operands(m=32, c_in=4, c_out=6, vol=27, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, c_in)).astype(np.float32)
    w = (rng.standard_normal((vol, c_in, c_out)) * 0.3).astype(np.float32)
    return x, w


class TestConfig:
    def test_defaults_arm_everything(self):
        cfg = IntegrityConfig()
        assert cfg.verify_gemm and cfg.verify_movement
        assert cfg.verify_output and cfg.verify_weights

    def test_rejects_nonpositive_safety(self):
        with pytest.raises(ValueError):
            IntegrityConfig(safety=0.0)

    def test_sdc_kinds_are_registered_pipeline_faults(self):
        assert set(SDC_FAULT_KINDS) <= set(PIPELINE_FAULT_KINDS)
        for kind in SDC_FAULT_KINDS:
            FaultSpec(kind=kind)  # must not raise

    def test_integrity_error_taxonomy(self):
        e = IntegrityError("boom")
        assert e.kind == "integrity"
        assert e.stage == "numeric"  # routes to the fp32-scalar rung
        assert IntegrityError in FAULT_ERRORS


class TestCheckerUnit:
    def test_clean_matmul_passes_and_counts(self):
        x, w = make_operands()
        chk = make_checker()
        chk.begin(x, w)
        idx = np.arange(x.shape[0])
        src = chk.source_checksum(x, idx)
        partial = x[idx] @ w[0]
        chk.check_matmul(partial, src, w[0], len(idx), "matmul.o0")
        assert chk.checks == 1 and chk.mismatches == 0

    def test_corrupted_matmul_raises(self):
        x, w = make_operands()
        chk = make_checker()
        chk.begin(x, w)
        idx = np.arange(x.shape[0])
        src = chk.source_checksum(x, idx)
        partial = x[idx] @ w[0]
        partial[3, 2] *= 2.0**40  # an exponent-flip-sized corruption
        with pytest.raises(IntegrityError, match="matmul"):
            chk.check_matmul(partial, src, w[0], len(idx), "matmul.o0")
        assert chk.mismatches == 1

    def test_gather_sentinel_catches_row_corruption(self):
        x, w = make_operands()
        chk = make_checker()
        chk.begin(x, w)
        idx = np.arange(0, x.shape[0], 2)
        src = chk.source_checksum(x, idx)
        buf = x[idx].copy()
        chk.check_buffer(buf, src, "gather.o0")  # clean: identical rows
        buf[1, 0] *= 2.0**40
        with pytest.raises(IntegrityError, match="gather"):
            chk.check_buffer(buf, src, "gather.o0")

    def test_weight_sentinel_sees_post_load_flip(self):
        x, w = make_operands()
        chk = make_checker()
        chk.begin(x, w)  # golden checksum taken here
        chk.verify_weights(w, "weights")  # still clean
        w[5, 1, 2] *= 2.0**40
        with pytest.raises(IntegrityError, match="weights"):
            chk.verify_weights(w, "weights")

    def test_output_sentinel_tracks_absorbed_partials(self):
        x, w = make_operands()
        chk = make_checker()
        chk.begin(x, w)
        p0 = x @ w[0]
        p1 = x[:10] @ w[1]
        chk.absorb(p0)
        chk.absorb(p1)
        acc = p0.copy()
        acc[:10] += p1
        chk.check_output(acc, "scatter.out")  # clean
        acc[7, 1] *= 2.0**40
        with pytest.raises(IntegrityError, match="scatter"):
            chk.check_output(acc, "scatter.out")

    def test_disabled_checks_are_noops(self):
        x, w = make_operands()
        chk = make_checker(
            verify_gemm=False, verify_movement=False,
            verify_output=False, verify_weights=False,
        )
        chk.begin(x, w)
        garbage = np.full((4, 6), 1e30, dtype=np.float32)
        chk.check_buffer(garbage, np.zeros(6), "gather.o0")
        chk.check_matmul(garbage, np.zeros(4), w[0], 4, "matmul.o0")
        chk.absorb(garbage)
        chk.check_output(garbage, "scatter.out")
        chk.verify_weights(w * 100, "weights")
        assert chk.checks == 0

    def test_verdict_emits_metrics(self):
        x, w = make_operands()
        reg = MetricsRegistry()
        chk = IntegrityChecker(
            IntegrityConfig(), DType.FP32, RTX_2080TI, metrics=reg
        )
        chk.begin(x, w)
        chk.verify_weights(w, "weights")
        scalars = reg.scalars()
        assert any(k.startswith("integrity.checks") for k in scalars)


class TestCheckerProperties:
    @given(
        st.integers(4, 40),
        st.integers(1, 6),
        st.integers(0, 500),
    )
    @settings(max_examples=40, deadline=None)
    def test_checksum_is_permutation_invariant(self, rows, c, seed):
        # the kernel map may visit gathered rows in any order; the
        # sentinel must not care
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, c)).astype(np.float32)
        w = rng.standard_normal((1, c, c)).astype(np.float32)
        idx = rng.choice(rows, size=rows // 2 + 1, replace=False)
        perm = rng.permutation(len(idx))
        chk = make_checker()
        chk.begin(x, w)
        src = chk.source_checksum(x, idx)
        chk.check_buffer(x[idx[perm]], src, "gather.perm")  # no raise
        assert chk.mismatches == 0

    @given(
        st.integers(4, 40),
        st.integers(2, 5),
        st.integers(0, 500),
    )
    @settings(max_examples=40, deadline=None)
    def test_output_checksum_is_scatter_order_invariant(self, rows, parts,
                                                        seed):
        # scatter-add linearity: however partials interleave into the
        # accumulator, column sums add up
        rng = np.random.default_rng(seed)
        c = 4
        x = rng.standard_normal((rows, c)).astype(np.float32)
        w = rng.standard_normal((parts, c, c)).astype(np.float32)
        chk = make_checker()
        chk.begin(x, w)
        acc = np.zeros((rows, c), dtype=np.float32)
        order = rng.permutation(parts)
        partials = [x @ w[n] for n in range(parts)]
        for n in order:  # absorb and scatter in a random order
            chk.absorb(partials[n])
            acc += partials[n]
        chk.check_output(acc, "scatter.out")
        assert chk.mismatches == 0

    @given(st.sampled_from([DType.FP32, DType.FP16, DType.INT8]),
           st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_no_false_positives_across_dtypes(self, dtype, seed):
        # clean data must pass under every storage dtype's envelope
        x, w = make_operands(seed=seed)
        chk = make_checker(dtype=dtype)
        chk.begin(x, w)
        idx = np.arange(x.shape[0])
        src = chk.source_checksum(x, idx)
        partial = x[idx] @ w[0]
        chk.check_buffer(x[idx], src, "gather.o0")
        chk.check_matmul(partial, src, w[0], len(idx), "matmul.o0")
        chk.absorb(partial)
        chk.check_output(partial.copy(), "scatter.out")
        chk.verify_weights(w, "weights")
        assert chk.mismatches == 0


class TestFaultSites:
    def test_bitflip_is_finite_and_large(self):
        rng_arr = np.random.default_rng(0).standard_normal((64, 4))
        arr = rng_arr.astype(np.float32)
        before = arr.copy()
        inj = FaultInjector(
            seed=1, specs=[FaultSpec(kind="bitflip_feature", severity=0.1)]
        )
        with inject_faults(inj):
            assert maybe_bitflip_features(arr, site="gather.o0")
        assert np.isfinite(arr).all()  # silent: never NaN/Inf
        changed = int((arr != before).sum())
        assert changed == max(1, int(arr.size * 0.1))
        # an exponent flip rescales hugely -- far outside any envelope
        ratio = np.abs(arr[arr != before] / before[arr != before])
        assert ((ratio > 1e9) | (ratio < 1e-9)).all()

    def test_bitflip_weight_fires_once(self):
        w = np.random.default_rng(0).standard_normal((8, 3, 3)).astype(
            np.float32
        )
        inj = FaultInjector(seed=1, specs=[FaultSpec(kind="bitflip_weight")])
        with inject_faults(inj):
            assert maybe_bitflip_weights(w, site="weights.v8")
            assert not maybe_bitflip_weights(w, site="weights.v8")
        assert inj.shots == 1

    def test_checksum_mismatch_fires_at_verifier_site(self):
        inj = FaultInjector(
            seed=0, specs=[FaultSpec(kind="checksum_mismatch", site="matmul")]
        )
        with inject_faults(inj):
            assert not maybe_force_checksum_mismatch("conv.gather.o0")
            assert maybe_force_checksum_mismatch("conv.matmul.o0")

    def test_silent_corruption_matches_any_bitflip_kind(self):
        inj = FaultInjector(
            seed=0, specs=[FaultSpec(kind="bitflip_weight", count=1)]
        )
        with inject_faults(inj):
            assert maybe_silent_corruption("RTX 3090")
            assert not maybe_silent_corruption("RTX 3090")
        assert maybe_silent_corruption("RTX 3090") is False  # no injector

    def test_bitflip_writes_through_noncontiguous_views(self):
        # reshape(-1) on a non-contiguous view returns a copy, which
        # would silently drop the flips while still consuming the shot
        arr = np.ones((8, 8), dtype=np.float32)
        view = arr[:, ::2]
        inj = FaultInjector(
            seed=0, specs=[FaultSpec(kind="bitflip_feature", severity=0.25)]
        )
        with inject_faults(inj):
            assert maybe_bitflip_features(view, site="gather.o0")
        changed = int((view != 1.0).sum())
        assert changed == max(1, int(view.size * 0.25))
        # the flips landed in the parent buffer, not a throwaway copy
        assert int((arr != 1.0).sum()) == changed

    def test_sites_are_noops_without_injector(self):
        arr = np.ones((4, 4), dtype=np.float32)
        assert not maybe_bitflip_features(arr)
        assert not maybe_bitflip_weights(arr)
        assert not maybe_force_checksum_mismatch("x")
        assert (arr == 1.0).all()


class TestChecksumCost:
    def test_fused_epilogue_adds_no_launch(self):
        cost = checksum_cost(512, 64, 64, DType.FP16, RTX_2080TI)
        assert cost.launches == 0
        assert cost.flops == 512 * 64 + 2 * 64 * 64 + 512 * 64 + 64
        assert cost.time > 0

    def test_overhead_is_small_against_the_gemm(self):
        gemm = sequential_cost([4096], 64, 64, DType.FP16, RTX_2080TI)
        extra = checksum_cost(4096, 64, 64, DType.FP16, RTX_2080TI)
        assert extra.flops < 0.05 * gemm.flops


def hardened(dtype=DType.FP32):
    base = (
        EngineConfig.baseline()
        if dtype is DType.FP32
        else EngineConfig.torchsparse(dtype=dtype)
    )
    from dataclasses import replace

    return replace(
        base, robustness=RobustConfig(integrity=IntegrityConfig())
    )


def small_instance(seed=0, n=60, c_in=4, c_out=6):
    rng = np.random.default_rng(seed)
    coords = np.unique(
        np.concatenate(
            [np.zeros((n, 1), dtype=np.int64),
             rng.integers(0, 10, size=(n, 3))],
            axis=1,
        ),
        axis=0,
    )
    feats = rng.standard_normal((coords.shape[0], c_in)).astype(np.float32)
    w = (rng.standard_normal((27, c_in, c_out)) * 0.3).astype(np.float32)
    return coords, feats, w


class TestEngineIntegration:
    def test_verification_is_observation_only(self):
        # verified and unverified runs must agree bit for bit
        coords, feats, w = small_instance()
        outs = []
        for config in (hardened(), EngineConfig.baseline()):
            with use_registry(MetricsRegistry()):
                engine = BaseEngine(config=config)
                ctx = ExecutionContext(engine=engine)
                y = engine.convolution(
                    SparseTensor(coords, feats), w, ctx, kernel_size=3
                )
            outs.append(y)
        assert np.array_equal(outs[0].coords, outs[1].coords)
        assert np.array_equal(outs[0].feats, outs[1].feats)

    @pytest.mark.parametrize("dtype", [DType.FP32, DType.FP16, DType.INT8])
    def test_clean_run_emits_checks_no_mismatches(self, dtype):
        coords, feats, w = small_instance()
        with use_registry(MetricsRegistry()) as reg:
            engine = BaseEngine(config=hardened(dtype))
            ctx = ExecutionContext(engine=engine)
            engine.convolution(SparseTensor(coords, feats), w, ctx,
                               kernel_size=3)
        scalars = reg.scalars()
        assert sum(
            v for k, v in scalars.items() if k.startswith("integrity.checks")
        ) > 0
        assert sum(
            v
            for k, v in scalars.items()
            if k.startswith("integrity.mismatches")
        ) == 0
        assert scalars.get("integrity.flops", 0) > 0

    @pytest.mark.parametrize("dtype_key", DTYPE_PRESET_KEYS)
    @pytest.mark.parametrize("kind", SDC_FAULT_KINDS)
    def test_detect_recompute_recovers(self, kind, dtype_key):
        # one seeded shot: detected, recomputed at fp32-scalar, survives
        # -- and the recovered output matches a clean (uninjected) run,
        # so a "recovery" that ships corrupted data cannot pass
        trial = run_integrity_trial(kind, dtype_key, seed=0)
        assert trial.shots == 1
        assert trial.detected >= 1
        assert trial.survived and trial.caught
        assert trial.output_ok, "recovered output differs from a clean run"
        assert trial.ok
        assert "fp32-scalar" in trial.recovered_layers.values()

    @pytest.mark.parametrize(
        "dtype", [DType.FP32, DType.FP16, DType.INT8],
        ids=lambda d: d.name.lower(),
    )
    def test_weight_flip_cannot_corrupt_caller_weights(self, dtype):
        # regression: the FP32 dtype cast used to alias the caller's
        # weight tensor, so an injected flip outlived the failed
        # attempt, the recompute re-took its golden checksum from the
        # corrupted buffer, and the corruption shipped as a recovery;
        # every storage dtype's cast must hand the fault site a copy
        coords, feats, w = small_instance()
        pristine = w.copy()
        inj = FaultInjector(
            seed=0, specs=[FaultSpec(kind="bitflip_weight", count=1)]
        )
        with use_registry(MetricsRegistry()):
            engine = BaseEngine(config=hardened(dtype))
            ctx = ExecutionContext(engine=engine)
            with inject_faults(inj):
                out = engine.convolution(
                    SparseTensor(coords, feats), w, ctx, kernel_size=3
                )
        assert inj.shots == 1
        assert np.array_equal(w, pristine), "model weights were mutated"
        with use_registry(MetricsRegistry()):
            clean = BaseEngine(config=hardened(dtype))
            ref = clean.convolution(
                SparseTensor(coords, feats), w,
                ExecutionContext(engine=clean), kernel_size=3,
            )
        # the recovery recomputes at fp32, so a sub-FP32 run differs
        # from its clean run by the layer's quantization error
        env = CLOSE_FP32 if dtype is DType.FP32 else END_TO_END
        env.assert_close(out.feats, ref.feats)

    @pytest.mark.parametrize("kind", SDC_FAULT_KINDS[:2])
    def test_undetected_without_integrity(self, kind):
        # the control: the same corruption ships silently when the
        # verifier is off -- finishes fine, zero mismatches recorded
        from repro.robust.chaos import _make_book, _make_cloud, _make_model

        coords, feats = _make_cloud(0, kind)
        model = _make_model(0)
        from dataclasses import replace

        config = replace(
            EngineConfig.torchsparse(), strategy_book=_make_book(model)
        )
        inj = FaultInjector(seed=0, specs=[FaultSpec(kind=kind, count=1)])
        with use_registry(MetricsRegistry()) as reg:
            with inject_faults(inj):
                engine = BaseEngine(config=config)
                ctx = ExecutionContext(engine=engine)
                model(SparseTensor.sanitized(coords, feats, policy="repair"),
                      ctx)
        assert inj.shots == 1  # fault fired...
        assert not any(  # ...and nothing noticed
            k.startswith("integrity.mismatches") for k in reg.scalars()
        )

    def test_detect_only_mode_escalates_typed(self):
        # robustness armed but degrade off: the IntegrityError surfaces
        from repro.robust.chaos import _make_book, _make_cloud, _make_model

        coords, feats = _make_cloud(0, "bitflip_feature")
        model = _make_model(0)
        from dataclasses import replace

        config = replace(
            EngineConfig.torchsparse(),
            strategy_book=_make_book(model),
            robustness=RobustConfig(
                degrade=False, integrity=IntegrityConfig()
            ),
        )
        inj = FaultInjector(
            seed=0, specs=[FaultSpec(kind="bitflip_feature", count=1)]
        )
        with use_registry(MetricsRegistry()):
            with inject_faults(inj):
                engine = BaseEngine(config=config)
                ctx = ExecutionContext(engine=engine)
                with pytest.raises(IntegrityError):
                    model(
                        SparseTensor.sanitized(coords, feats, policy="repair"),
                        ctx,
                    )


class TestCampaign:
    def test_clean_probe_all_dtypes(self):
        for key in DTYPE_PRESET_KEYS:
            probe = run_clean_probe(key, seed=0)
            assert probe.checks > 0
            assert probe.false_positives == 0
            assert probe.bitexact and probe.reference_ok and probe.ok

    def test_campaign_gate_and_schema(self):
        report = run_integrity_campaign(
            kinds=("bitflip_feature",), dtypes=("fp32", "fp16"), seeds=(0,)
        )
        assert report.recall == 1.0
        assert report.fp32_false_positives == 0
        assert report.gate() and report.passed
        blob = report.to_json()
        assert blob["schema"] == INTEGRITY_SCHEMA
        assert blob["recall_by_kind"] == {"bitflip_feature": 1.0}
        assert set(blob["false_positive_rate"]) == {"fp32", "fp16"}

    def test_default_campaign_catches_and_survives_every_fault(self):
        # the CLI's ``integrity --seeds 2 --seed 0``: every SDC kind
        # crossed with every dtype preset, two seeds
        report = run_integrity_campaign(seeds=(0, 1))
        blob = report.to_json()
        assert blob["schema"] == INTEGRITY_SCHEMA
        assert blob["passed"]
        assert report.recall >= 0.95
        assert report.fp32_false_positives == 0
        for probe in report.clean:
            assert probe.bitexact and probe.reference_ok, probe.to_json()
        for t in report.trials:
            assert t.shots == 0 or t.caught, t.to_json()
            assert t.survived, t.to_json()

    def test_campaign_is_deterministic(self):
        a = run_integrity_campaign(
            kinds=("bitflip_weight",), dtypes=("int8",), seeds=(3,)
        )
        b = run_integrity_campaign(
            kinds=("bitflip_weight",), dtypes=("int8",), seeds=(3,)
        )
        assert a.to_json() == b.to_json()

    def test_report_json_passed_matches_custom_floor(self):
        # the serialized 'passed' must honour the same recall floor as
        # the CLI exit status (they used to diverge on --recall-floor)
        report = IntegrityReport()
        assert report.to_json()["passed"]
        assert not report.to_json(recall_floor=1.01)["passed"]

    def test_campaign_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            run_integrity_campaign(kinds=("nonsense",))

    def test_gate_fails_on_missed_detection(self):
        report = IntegrityReport()
        from repro.robust.integrity import IntegrityTrial

        report.trials.append(
            IntegrityTrial(
                kind="bitflip_feature", dtype="fp16", seed=0,
                shots=1, detected=0, survived=True,
            )
        )
        assert report.recall == 0.0
        assert not report.gate()
