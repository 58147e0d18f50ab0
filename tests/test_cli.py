"""Tests for the repro-bench CLI."""

import json
import os
import re

import pytest

from repro.cli import DEVICES, ENGINE_FACTORIES, build_parser, main


class TestParser:
    def test_info_parses(self):
        args = build_parser().parse_args(["info"])
        assert args.command == "info"

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench", "--model", "x"])
        assert args.engine == "torchsparse"
        assert args.device == "2080ti"

    def test_missing_command_fails(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_engine_fails(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--model", "x", "--engine", "y"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "minkunet_1.0x_kitti" in out
        assert "torchsparse" in out
        assert "3090" in out

    def test_unknown_model_exits(self):
        with pytest.raises(SystemExit, match="unknown model"):
            main(["bench", "--model", "nope"])

    def test_bench_runs(self, capsys):
        rc = main(
            ["bench", "--model", "minkunet_0.5x_kitti", "--scale", "0.12",
             "--engine", "baseline"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "modeled latency" in out
        assert "matmul" in out

    def test_compare_runs(self, capsys):
        rc = main(
            ["compare", "--model", "minkunet_0.5x_kitti", "--scale", "0.12"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for engine in ENGINE_FACTORIES:
            assert engine in out

    def test_tune_runs(self, tmp_path, capsys):
        out_file = tmp_path / "book.json"
        rc = main(
            ["tune", "--model", "minkunet_0.5x_kitti", "--scale", "0.1",
             "--out", str(out_file)]
        )
        assert rc == 0
        assert out_file.exists()
        from repro.core.tuner import StrategyBook

        book = StrategyBook.loads(out_file.read_text())
        assert len(book.layers) > 10

    def test_cpu_device_available(self):
        assert "cpu" in DEVICES
        rc = main(
            ["bench", "--model", "minkunet_0.5x_kitti", "--scale", "0.1",
             "--device", "cpu"]
        )
        assert rc == 0


BENCH = ["--model", "minkunet_0.5x_kitti", "--scale", "0.12"]
#: the committed regress baseline for BENCH (see benchmarks/README.md)
BASELINE = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "baselines",
    "minkunet_0.5x_kitti.json",
)


class TestObservabilityExports:
    def test_bench_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.jsonl"
        snap = tmp_path / "snap.json"
        rc = main(
            ["bench", *BENCH, "--trace", str(trace), "--metrics", str(metrics),
             "--json", str(snap), "--report"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-layer breakdown" in out

        loaded = json.loads(trace.read_text())
        spans = [
            e for e in loaded["traceEvents"]
            if e["ph"] == "X" and e.get("cat") == "span"
        ]
        depths = {e["args"]["depth"] for e in spans}
        assert {0, 1} <= depths  # layer spans nest stage spans

        names = {json.loads(l)["name"] for l in metrics.read_text().splitlines()}
        assert "gemm.utilization" in names
        assert "gemm.padded_flops" in names
        assert "engine.cache.hits" in names
        assert "mem.coalescing_efficiency" in names

        s = json.loads(snap.read_text())
        assert s["schema"] == "repro-bench.snapshot/1"
        assert s["latency"] > 0
        assert any(k.startswith("engine.cache.hit_rate") for k in s["metrics"])

    def test_regress_gate(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        # first run writes the baseline
        assert main(["regress", *BENCH, "--baseline", str(base)]) == 0
        assert "baseline written" in capsys.readouterr().out
        # identical rerun passes (the model is deterministic)
        assert main(["regress", *BENCH, "--baseline", str(base)]) == 0
        assert "0 drifted" in capsys.readouterr().out
        # tampered baseline fails the gate
        snap = json.loads(base.read_text())
        snap["latency"] *= 2.0
        base.write_text(json.dumps(snap))
        assert main(["regress", *BENCH, "--baseline", str(base)]) == 1
        assert "FAIL latency" in capsys.readouterr().out
        # ... unless the tolerance override forgives it
        rc = main(
            ["regress", *BENCH, "--baseline", str(base), "--tol", "latency=2.0"]
        )
        assert rc == 0
        # --update rewrites the baseline and the gate passes again
        assert main(["regress", *BENCH, "--baseline", str(base), "--update"]) == 0
        assert main(["regress", *BENCH, "--baseline", str(base)]) == 0

    def test_regress_rejects_baseline_from_another_configuration(
        self, tmp_path, capsys
    ):
        from repro.obs.regress import CONFIG_KEYS, config_mismatch

        base = tmp_path / "base.json"
        assert main(["regress", *BENCH, "--baseline", str(base)]) == 0
        capsys.readouterr()
        # no tolerance makes another engine's numbers comparable
        other = [*BENCH, "--engine", "minkowski", "--baseline", str(base)]
        assert main(["regress", *other, "--tolerance", "100"]) == 1
        out = capsys.readouterr().out
        assert "engine: 'torchsparse' -> 'minkowski'" in out
        assert "drifted" not in out
        # every run key the snapshot records is checked
        snap = json.loads(base.read_text())
        assert config_mismatch(snap, snap) == []
        for key in CONFIG_KEYS:
            assert config_mismatch(snap, {**snap, key: "x"}) == [
                f"{key}: {snap[key]!r} -> 'x'"
            ]
        # --update still rewrites the baseline, which then gates
        assert main(["regress", *other, "--update"]) == 0
        assert main(["regress", *other]) == 0

    def test_tree_passes_committed_baseline(self, capsys):
        rc = main(["regress", *BENCH, "--baseline", BASELINE])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "0 drifted" in out

    def test_regress_bad_tol_spec(self, tmp_path):
        base = tmp_path / "b.json"
        main(["regress", *BENCH, "--baseline", str(base)])
        with pytest.raises(SystemExit, match="NAME=REL"):
            main(["regress", *BENCH, "--baseline", str(base), "--tol", "oops"])


class TestServeCli:
    SERVE = ["serve", "--scale", "0.1", "--rate", "300", "--duration", "0.3",
             "--seed", "3"]
    CHAOS = [*SERVE, "--faults", "device_crash,device_stall,queue_spike"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.devices == "2080ti,2080ti,3090"
        assert args.preset == "torchsparse"
        assert args.faults == ""  # clean campaign unless asked
        assert args.slo_floor == 0.0

    def test_clean_campaign_passes(self, capsys):
        rc = main(self.SERVE)
        assert rc == 0
        out = capsys.readouterr().out
        assert "serve campaign" in out
        assert "terminal states: all" in out
        assert "SLO" in out

    def test_chaos_campaign_artifacts(self, tmp_path, capsys):
        snap = tmp_path / "serve.json"
        metrics = tmp_path / "serve-metrics.jsonl"
        rc = main(
            [*self.CHAOS, "--json", str(snap), "--metrics", str(metrics)]
        )
        assert rc == 0
        d = json.loads(snap.read_text())
        assert d["schema"] == "repro-bench.serve/1"
        assert d["all_terminal"] is True
        assert d["total"] == len(d["requests"])
        assert d["total"] == sum(d["outcomes"].values())
        # the straggler is hedged, and every losing twin is cancelled
        assert d["hedges"]["launched"] > 0
        assert d["hedges"]["cancelled"] == d["hedges"]["launched"]
        names = {
            json.loads(l)["name"] for l in metrics.read_text().splitlines()
        }
        for required in ("serve.arrivals", "serve.completed",
                         "serve.latency_ms", "serve.queue_depth"):
            assert required in names
        assert any(n.startswith("faults.injected") for n in names)

    def test_same_seed_bit_for_bit_json(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*self.CHAOS, "--json", str(a)]) == 0
        assert main([*self.CHAOS, "--json", str(b)]) == 0
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("n", [1, 4])
    def test_max_batch_is_the_batching_switch(self, n, tmp_path, capsys):
        snap = tmp_path / "serve.json"
        rc = main(["serve", "--scale", "0.04", "--rate", "400",
                   "--duration", "0.1", "--seed", "3",
                   "--max-batch", str(n), "--json", str(snap)])
        assert rc == 0
        d = json.loads(snap.read_text())
        if n == 1:
            # the default: one request per device, no batch metadata
            assert build_parser().parse_args(["serve"]).max_batch == 1
            assert "batching" not in d
        else:
            assert d["batching"]["enabled"] and d["batching"]["max_batch"] == n
            assert "batching:" in capsys.readouterr().out

    BATCHED = ["serve", "--scale", "0.04", "--rate", "400", "--duration",
               "0.1", "--seed", "3", "--max-batch", "4"]
    BROWNOUT = ["serve", "--scale", "0.04", "--rate", "600", "--duration",
                "0.3", "--seed", "11", "--traffic-shape", "flash",
                "--peak-factor", "8", "--queue-capacity", "16",
                "--deadline-factor", "5", "--brownout",
                "--brownout-interval", "0.02"]

    @pytest.mark.parametrize(
        "args, facts",
        [
            (BATCHED, ("batch", "occupancy", "mix x")),
            (BROWNOUT, ("qos", "degraded", "level changes", "full:")),
        ],
        ids=["batching", "brownout"],
    )
    def test_feature_facts_printed_once(self, args, facts, capsys):
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        for fact in facts:
            assert sum(fact in line for line in lines) == 1, fact

    def test_same_seed_same_stdout(self, capsys):
        outs = []
        for _ in range(2):
            assert main(self.CHAOS) == 0
            outs.append(re.sub(r"host wall [0-9.]+s", "host wall -",
                               capsys.readouterr().out))
        assert "host wall -" in outs[0]
        assert outs[0] == outs[1]

    def test_max_batch_below_one_rejected(self):
        with pytest.raises(SystemExit, match="max_batch must be >= 1, got 0"):
            main([*self.SERVE, "--max-batch", "0"])

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--brownout", "--brownout-interval", "0"], "interval"),
            (["--storm", "--retry-budget", "-1"], "retry_budget"),
        ],
    )
    def test_bad_feature_knobs_rejected(self, flags, message):
        with pytest.raises(SystemExit, match=message):
            main([*self.SERVE, *flags])

    def test_slo_floor_gate_fails(self, capsys):
        # an impossible floor flips the exit code, not the report
        rc = main([*self.SERVE, "--slo-floor", "1.01"])
        assert rc == 1
        assert "FAIL: slo_attainment" in capsys.readouterr().out

    def test_unknown_device_rejected(self):
        with pytest.raises(SystemExit, match="unknown device"):
            main([*self.SERVE, "--devices", "quantum9000"])

    def test_unknown_fault_rejected(self):
        with pytest.raises(SystemExit, match="unknown serve fault"):
            main([*self.SERVE, "--faults", "kmap_corrupt"])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit, match="unknown model"):
            main([*self.SERVE, "--models", "nope"])


class TestChaosJsonSchema:
    def test_chaos_snapshot_schema_and_per_preset(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        rc = main(
            ["chaos", "--seeds", "1", "--kinds", "matmul_nan",
             "--json", str(out)]
        )
        assert rc == 0
        d = json.loads(out.read_text())
        assert d["schema"] == "repro-bench.chaos/1"
        assert set(d["per_preset"]) == {"torchsparse", "baseline"}
        for stats in d["per_preset"].values():
            assert stats["trials"] >= 1
        from repro.obs.regress import CHAOS_SCHEMA, load_snapshot

        # the snapshot loader accepts it under the chaos schema...
        assert load_snapshot(str(out), schema=CHAOS_SCHEMA)["passed"] is True
        # ...and rejects it under the default benchmark schema
        with pytest.raises(ValueError, match="expected"):
            load_snapshot(str(out))


class TestSteadyStateCli:
    BENCH = ["bench", "--model", "minkunet_0.5x_kitti", "--scale", "0.12",
             "--engine", "baseline", "--steady-state", "--frames", "3"]
    CENTERPOINT = ["bench", "--model", "centerpoint_3f_waymo",
                   "--engine", "minkowski", "--scale", "0.2",
                   "--steady-state", "--frames", "4", "--seed", "0"]
    CENTERPOINT_SERVE = [
        "serve", "--models", "centerpoint_3f_waymo",
        "--devices", "2080ti,2080ti", "--preset", "baseline",
        "--scale", "0.2", "--rate", "300", "--duration", "1.0",
        "--seed", "0", "--queue-capacity", "128", "--deadline-factor", "20",
        "--coherence", "0.9",
    ]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench", "--model", "x"])
        assert args.steady_state is False
        assert args.frames == 4
        serve = build_parser().parse_args(["serve"])
        assert serve.steady_state is False
        assert serve.coherence == 0.0

    def test_bench_steady_state_runs(self, capsys):
        assert main(self.BENCH) == 0
        out = capsys.readouterr().out
        assert "cold frame" in out and "warm frames" in out
        assert "warm reduction" in out and "mapping 100.0%" in out

    def test_bench_steady_state_snapshot(self, tmp_path, capsys):
        snap = tmp_path / "steady.json"
        assert main([*self.BENCH, "--json", str(snap)]) == 0
        d = json.loads(snap.read_text())
        assert d["schema"] == "repro-bench.steady/1"
        assert d["frames"] == 3
        assert d["warm_mapping"] == 0.0
        assert d["mapping_reduction"] == 1.0
        assert d["latency_reduction"] > 0.0
        assert d["cache"]["entries"] > 0
        assert any(
            k.startswith("mapcache.hits") and v > 0
            for k, v in d["mapcache_metrics"].items()
        )

    def test_bench_steady_state_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*self.BENCH, "--json", str(a)]) == 0
        assert main([*self.BENCH, "--json", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_centerpoint_warm_frames_skip_mapping(self, tmp_path, capsys):
        """The stream the ``bench-steady-state`` CI entry runs: on
        CenterPoint, mapping is a large enough share of the frame that
        skipping it cuts warm-frame latency by more than 10%."""
        snap = tmp_path / "steady.json"
        assert main([*self.CENTERPOINT, "--json", str(snap)]) == 0
        d = json.loads(snap.read_text())
        assert d["schema"] == "repro-bench.steady/1"
        assert d["mapping_reduction"] >= 0.95
        assert d["warm_mapping"] < 0.05 * d["cold_mapping"]
        assert d["latency_reduction"] > 0.10
        assert d["cache"]["entries"] > 0
        assert any(
            k.startswith("mapcache.hits") and v > 0
            for k, v in d["mapcache_metrics"].items()
        )

    def test_steady_state_serving_cuts_mean_latency(self, tmp_path, capsys):
        """The ``serve-cold`` / ``serve-steady-state`` CI pair: the same
        scene-coherent CenterPoint traffic, with and without warm-frame
        mapping reuse."""
        cold, steady = tmp_path / "cold.json", tmp_path / "steady.json"
        assert main([*self.CENTERPOINT_SERVE, "--json", str(cold)]) == 0
        assert main(
            [*self.CENTERPOINT_SERVE, "--steady-state", "--json", str(steady)]
        ) == 0
        cold = json.loads(cold.read_text())
        steady = json.loads(steady.read_text())
        assert not cold["steady_state"]["enabled"]
        assert steady["steady_state"]["enabled"]
        assert steady["steady_state"]["warm_dispatches"] > 0

        def mean_latency(report):
            lats = [
                r["latency"] for r in report["requests"]
                if r["latency"] is not None
                and r["state"] in ("completed", "deadline_exceeded")
            ]
            return sum(lats) / len(lats)

        assert 1.0 - mean_latency(steady) / mean_latency(cold) >= 0.30
        assert steady["p99"] < cold["p99"]

    def test_serve_steady_state_smoke(self, capsys):
        rc = main(
            ["serve", "--scale", "0.1", "--rate", "300", "--duration", "0.3",
             "--seed", "3", "--coherence", "0.8", "--steady-state"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "steady state:" in out and "warm" in out

    def test_bad_coherence_rejected(self):
        with pytest.raises(SystemExit, match="coherence"):
            main(["serve", "--scale", "0.1", "--rate", "100",
                  "--duration", "0.2", "--coherence", "1.5"])


class TestFlightRecorderCli:
    SERVE = ["serve", "--scale", "0.1", "--rate", "300", "--duration", "0.3",
             "--seed", "3", "--faults", "device_crash,device_stall"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.events is None and args.trace is None
        assert args.slo_window is None and args.slo_target == 0.99
        assert args.burn_ceiling is None and args.prom is None

    def test_events_and_trace_artifacts(self, tmp_path, capsys):
        ev = tmp_path / "events.jsonl"
        tr = tmp_path / "trace.json"
        rc = main([*self.SERVE, "--events", str(ev), "--trace", str(tr)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "event journal written" in out
        from repro.obs.timeline import load_journal, validate_journal

        header, events = load_journal(str(ev))
        assert header["schema"] == "repro-bench.events/1"
        assert header["seed"] == 3
        assert validate_journal(header, events) == []
        kinds = {e["kind"] for e in events}
        assert {"arrival", "dispatch", "attempt_finish", "terminal"} <= kinds
        trace = json.loads(tr.read_text())
        assert trace["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_same_seed_journal_bit_for_bit(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        ta, tb = tmp_path / "ta.json", tmp_path / "tb.json"
        assert main([*self.SERVE, "--events", str(a), "--trace", str(ta)]) == 0
        assert main([*self.SERVE, "--events", str(b), "--trace", str(tb)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert ta.read_bytes() == tb.read_bytes()

    def test_slo_window_summary_and_burn_gate(self, capsys):
        rc = main([*self.SERVE, "--slo-window", "0.1"])
        assert rc == 0
        assert "SLO windows" in capsys.readouterr().out
        # an impossible ceiling flips the exit code
        rc = main([*self.SERVE, "--slo-window", "0.1",
                   "--burn-ceiling", "-1.0"])
        assert rc == 1
        assert "FAIL: worst-window burn" in capsys.readouterr().out

    def test_prometheus_exposition_artifact(self, tmp_path, capsys):
        prom = tmp_path / "metrics.prom"
        assert main([*self.SERVE, "--prom", str(prom)]) == 0
        text = prom.read_text()
        assert "# TYPE repro_serve_arrivals_total counter" in text
        assert "repro_serve_latency_ms_bucket" in text

    def test_timeline_subcommand_validates(self, tmp_path, capsys):
        ev = tmp_path / "events.jsonl"
        tr = tmp_path / "offline.json"
        assert main([*self.SERVE, "--events", str(ev)]) == 0
        capsys.readouterr()
        rc = main(["timeline", "--events", str(ev), "--request", "0",
                   "--trace", str(tr)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "schema repro-bench.events/1" in out
        assert "causal timeline of request 0" in out
        assert "lifecycle: valid" in out
        assert json.loads(tr.read_text())["traceEvents"]

    def test_timeline_flags_corrupt_journal(self, tmp_path, capsys):
        ev = tmp_path / "events.jsonl"
        assert main([*self.SERVE, "--events", str(ev)]) == 0
        lines = ev.read_text().splitlines()
        # drop a terminal event: the lifecycle is no longer closed
        cut = next(i for i, l in enumerate(lines) if '"kind":"terminal"' in l)
        ev.write_text("\n".join(lines[:cut] + lines[cut + 1:]) + "\n")
        capsys.readouterr()
        rc = main(["timeline", "--events", str(ev)])
        assert rc == 1
        assert "INVALID" in capsys.readouterr().out

    def test_timeline_rejects_non_journal(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": "repro-bench.serve/1"}\n')
        with pytest.raises(SystemExit, match="not an event journal"):
            main(["timeline", "--events", str(bad)])


class TestStoreCli:
    def populate(self, tmp_path, seed="5"):
        """A store filled by a short steady-state serve campaign."""
        root = tmp_path / "store"
        rc = main([
            "serve", "--scale", "0.1", "--rate", "200", "--duration",
            "0.3", "--seed", seed, "--steady-state", "--coherence",
            "0.8", "--store", str(root),
        ])
        assert rc == 0
        return root

    def test_parser_defaults(self):
        args = build_parser().parse_args(["store", "stats", "--dir", "x"])
        assert args.command == "store"
        assert args.action == "stats"
        args = build_parser().parse_args(["serve"])
        assert args.store is None
        assert args.spares == 0

    def test_stats_verify_scrub_pass(self, tmp_path, capsys):
        root = self.populate(tmp_path)
        assert main(["store", "stats", "--dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "store stats" in out and "frame=" in out
        assert main(["store", "verify", "--dir", str(root)]) == 0
        assert "0 corrupt" in capsys.readouterr().out
        assert main(["store", "scrub", "--dir", str(root)]) == 0

    def test_snapshot_deterministic_across_same_seed_runs(
        self, tmp_path, capsys
    ):
        """Two same-seed campaigns into two stores must produce
        byte-identical `store stats` snapshots (and manifests)."""
        ra = self.populate(tmp_path / "a")
        capsys.readouterr()
        assert main(["store", "stats", "--dir", str(ra)]) == 0
        out_a = capsys.readouterr().out.replace(str(ra), "<dir>")
        rb = self.populate(tmp_path / "b")
        capsys.readouterr()
        assert main(["store", "stats", "--dir", str(rb)]) == 0
        out_b = capsys.readouterr().out.replace(str(rb), "<dir>")
        assert out_a == out_b
        assert (ra / "MANIFEST.jsonl").read_bytes() == (
            rb / "MANIFEST.jsonl"
        ).read_bytes()

    def test_stats_json_snapshot(self, tmp_path, capsys):
        root = self.populate(tmp_path)
        snap = tmp_path / "store.json"
        assert main(
            ["store", "stats", "--dir", str(root), "--json", str(snap)]
        ) == 0
        d = json.loads(snap.read_text())
        assert d["schema"] == "repro-store/1"
        assert d["entries"] > 0

    def test_verify_exits_1_on_corrupt_entry(self, tmp_path, capsys):
        root = self.populate(tmp_path)
        blobs = sorted(
            os.path.join(dirpath, fn)
            for dirpath, _, files in os.walk(root / "objects")
            for fn in files
        )
        # rot one blob on disk
        with open(blobs[0], "r+b") as fh:
            raw = bytearray(fh.read())
            raw[len(raw) // 2] ^= 0xFF
            fh.seek(0)
            fh.write(bytes(raw))
        assert main(["store", "verify", "--dir", str(root)]) == 1
        assert "corrupt" in capsys.readouterr().out
        # scrub repairs; verify passes again
        assert main(["store", "scrub", "--dir", str(root)]) == 0
        assert main(["store", "verify", "--dir", str(root)]) == 0
        # a torn write: another blob keeps only its first half
        with open(blobs[1], "rb") as fh:
            data = fh.read()
        with open(blobs[1], "wb") as fh:
            fh.write(data[: len(data) // 2])
        capsys.readouterr()
        assert main(["store", "verify", "--dir", str(root)]) == 1
        assert main(["store", "scrub", "--dir", str(root)]) == 0
        assert "evicted 1" in capsys.readouterr().out
        assert main(["store", "verify", "--dir", str(root)]) == 0

    def test_corrupt_manifest_exits_1(self, tmp_path, capsys):
        root = self.populate(tmp_path)
        (root / "MANIFEST.jsonl").write_text('{"schema": "bogus/9"}\n')
        assert main(["store", "stats", "--dir", str(root)]) == 1
        assert "CORRUPT MANIFEST" in capsys.readouterr().out

    def test_missing_dir_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["store", "stats", "--dir", str(tmp_path / "nope")])

    def test_purge_empties(self, tmp_path, capsys):
        root = self.populate(tmp_path)
        assert main(["store", "purge", "--dir", str(root)]) == 0
        capsys.readouterr()
        assert main(["store", "stats", "--dir", str(root)]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_serve_with_spares_prints_replacement(self, capsys, tmp_path):
        rc = main([
            "serve", "--scale", "0.1", "--rate", "200", "--duration",
            "0.4", "--seed", "7", "--steady-state", "--coherence",
            "0.9", "--store", str(tmp_path / "store"), "--spares", "1",
            "--max-probes", "2", "--faults", "device_crash",
            "--crashes", "-1", "--crash-site", "RTX 2080Ti #0",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replacement: spare1 filled slot RTX 2080Ti #0" in out
        assert "warm-started" in out
