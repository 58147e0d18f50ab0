"""End-to-end chaos campaign tests (survival, bit-exactness, visibility)."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.robust.chaos import (
    PRESETS,
    ChaosReport,
    reference_probe,
    run_campaign,
    run_trial,
)
from repro.robust.faults import PIPELINE_FAULT_KINDS


class TestCampaign:
    @pytest.fixture(scope="class")
    def campaign(self):
        # the CLI's ``chaos --seeds 2``
        return run_campaign(seeds=(0, 1))

    def test_covers_all_kinds_and_presets(self, campaign):
        cells = {(t.kind, t.preset) for t in campaign.trials}
        assert cells == {(k, p) for k in PIPELINE_FAULT_KINDS for p in PRESETS}
        assert len(PIPELINE_FAULT_KINDS) >= 5

    def test_full_survival(self, campaign):
        assert campaign.survival_rate == 1.0

    def test_every_trial_ok(self, campaign):
        bad = [t.to_json() for t in campaign.trials if not t.ok]
        assert not bad, bad

    def test_surviving_outputs_bitexact(self, campaign):
        for t in campaign.trials:
            assert t.bitexact is True, t.to_json()

    def test_fired_faults_are_visible(self, campaign):
        fired = [t for t in campaign.trials if t.shots > 0]
        assert fired  # the campaign actually injects
        for t in fired:
            assert t.visible, t.to_json()

    def test_degradation_mix_reports_rungs(self, campaign):
        mix = campaign.degradation_mix
        assert mix.get("hashmap", 0) > 0
        assert mix.get("fp32-scalar", 0) > 0

    def test_detection_visible_for_engine_faults(self, campaign):
        engine_kinds = {"kmap_corrupt", "hash_overflow", "matmul_nan"}
        for t in campaign.trials:
            if t.kind in engine_kinds and t.shots:
                assert t.detected >= 1, t.to_json()

    def test_report_passes(self, campaign):
        assert campaign.passed
        assert all(campaign.reference_ok.values())


class TestDetectOnly:
    def test_faults_surface_as_typed_errors(self):
        report = run_campaign(seeds=(0,), degrade=False)
        assert report.ok_rate == 1.0
        assert report.passed
        # at least the always-detectable kinds must have raised typed errors
        raised = {t.kind for t in report.trials if t.error_kind}
        assert {"kmap_corrupt", "hash_overflow", "input_corrupt"} <= raised
        for t in report.trials:
            if not t.survived:
                assert t.error_kind, t.to_json()  # never an untyped crash


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        a = run_trial("kmap_corrupt", "torchsparse", 3)
        b = run_trial("kmap_corrupt", "torchsparse", 3)
        assert a.to_json() == b.to_json()

    def test_reference_probe_both_presets(self):
        for preset in PRESETS:
            assert reference_probe(preset)


class TestReportShape:
    def test_json_roundtrips(self):
        report = run_campaign(
            kinds=("matmul_nan",), presets=("torchsparse",), seeds=(0,)
        )
        d = json.loads(json.dumps(report.to_json()))
        assert d["passed"] is True
        assert d["survival_rate"] == 1.0
        assert d["trials"][0]["kind"] == "matmul_nan"

    def test_empty_report_defaults(self):
        r = ChaosReport()
        assert r.survival_rate == 1.0
        assert r.ok_rate == 1.0
        assert r.degradation_mix == {}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(kinds=("nope",), seeds=(0,))
        with pytest.raises(ValueError):
            run_campaign(presets=("nope",), seeds=(0,))


class TestChaosCli:
    def test_cli_passes_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        rc = main(
            ["chaos", "--seeds", "1", "--kinds", "matmul_nan,grid_oom",
             "--json", str(out)]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "survival 100%" in text
        d = json.loads(out.read_text())
        assert d["passed"] is True

    def test_cli_no_degrade(self, capsys):
        rc = main(
            ["chaos", "--seeds", "1", "--kinds", "kmap_corrupt",
             "--no-degrade"]
        )
        assert rc == 0
        assert "detect-only" in capsys.readouterr().out

    def test_cli_rejects_unknown_kind(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--kinds", "bogus"])


# -- durable-store fault sites ----------------------------------------------


class TestStoreChaos:
    def test_store_kinds_in_pipeline_sweep(self):
        from repro.robust.faults import STORE_FAULT_KINDS

        for kind in STORE_FAULT_KINDS:
            assert kind in PIPELINE_FAULT_KINDS

    @pytest.mark.parametrize(
        "kind",
        [
            "store_torn_write",
            "store_bitrot",
            "store_manifest_corrupt",
            "store_stale_entry",
        ],
    )
    def test_store_trial_survives_detects_bitexact(self, kind):
        for seed in (0, 1):
            t = run_trial(kind, "torchsparse", seed=seed)
            assert t.ok, t.to_json()
            assert t.survived and t.visible
            assert t.detected >= 1
            # the repaired store never served damaged bytes: outputs
            # match the clean run bit for bit
            assert t.bitexact is True

    def test_store_trial_deterministic(self):
        a = run_trial("store_bitrot", "torchsparse", seed=5).to_json()
        b = run_trial("store_bitrot", "torchsparse", seed=5).to_json()
        assert a == b


# -- correlated failure-domain fault sites -----------------------------------


class TestDomainChaos:
    def test_domain_kinds_in_pipeline_sweep(self):
        from repro.robust.faults import DOMAIN_FAULT_KINDS

        for kind in DOMAIN_FAULT_KINDS:
            assert kind in PIPELINE_FAULT_KINDS

    @pytest.mark.parametrize("kind", ["domain_outage", "domain_degrade"])
    @pytest.mark.parametrize("degrade", [True, False])
    def test_domain_trial_survives_and_reproduces(self, kind, degrade):
        for seed in (0, 1):
            t = run_trial(kind, "torchsparse", seed=seed, degrade=degrade)
            assert t.ok, t.to_json()
            assert t.survived and t.visible
            # two same-seed campaigns under the same correlated fault
            # schedule produce identical serve reports
            assert t.bitexact is True

    def test_domain_outage_detected_by_fleet_machinery(self):
        t = run_trial("domain_outage", "torchsparse", seed=0)
        assert t.detected >= 1

    def test_domain_trial_deterministic(self):
        a = run_trial("domain_outage", "torchsparse", seed=5).to_json()
        b = run_trial("domain_outage", "torchsparse", seed=5).to_json()
        assert a == b
