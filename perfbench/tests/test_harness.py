"""Harness tests: the benchmark's own rules, on tiny inputs.

The workload functions are called in-process with a few frames or a
fraction of a simulated second, so the whole file runs in well under a
minute.
"""

import importlib
import re
from dataclasses import replace

import numpy as np
import pytest
from repro.core.engine import BaselineEngine

from perfbench import DETERMINISTIC, ROOT, load_spec
from perfbench import workloads as W
from perfbench.calibration import REFERENCE_S, SpeedProbe
from perfbench.stats import verdict
from perfbench.tracing import WRAPS, SpanRecorder, self_times
from perfbench.worker import span_metrics

SPEC = load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module", autouse=True)
def small_runs():
    """One set-up per engine run, one campaign per serve run, and serve
    fleets priced on a smoke-test-sized scan."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(W, "SETUP_REPS", 1)
        mp.setattr(W, "CAMPAIGNS", 1)
        mp.setattr(W, "SERVE_SCALE", 0.05)
        yield


def tiny(name: str):
    """The named workload shrunk to a smoke-test size."""
    w = W.WORKLOADS[name]
    if isinstance(w, W.EngineWorkload):
        return replace(w, scale=0.05, scans=2)
    return replace(w, duration=0.05, crashes=min(w.crashes, 2))


def traced_run(w, seed=0):
    rec = SpanRecorder()
    with rec.installed():
        result = W.run(w, seed, 0.0, rec)
    result["per_layer"].update(span_metrics(rec.spans))
    return result, rec.spans


@pytest.fixture(scope="module")
def traced():
    return {w["name"]: traced_run(tiny(w["name"])) for w in SPEC["workloads"]}


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for w in SPEC["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_metric_is_emitted_for_every_workload(traced):
    for name, (result, _) in traced.items():
        for m in SPEC["end_to_end"]:
            value = result["end_to_end"][m["name"]]
            assert np.isfinite(value) and value > 0, (name, m["name"])
        for m in SPEC["per_layer"]:
            assert np.isfinite(result["per_layer"][m["name"]]), (name, m["name"])


def test_outputs_pass_the_gate(traced):
    for name, (result, _) in traced.items():
        assert result["attempted"] >= 1
        assert result["failed"] == 0, name


def test_span_accounting(traced):
    for name, (_, spans) in traced.items():
        assert spans, name
        assert all(t >= 0 for t in self_times(spans)), name
        children = [0] * len(spans)
        for s in spans:
            if s[3] is not None:
                children[s[3]] += s[2] - s[1]
                # a span shares its parent's trace id unless it opens a region
                if s[0] not in ("frame", "campaign", "setup", "prime"):
                    assert s[4] == spans[s[3]][4], (name, s)
        for s, inner in zip(spans, children):
            assert inner <= s[2] - s[1], (name, s)
    frames = [s for s in traced["kitti-seg-cold"][1] if s[0] == "frame"]
    assert len({s[4] for s in frames}) == len(frames)


def test_wrapped_attributes_are_restored():
    before = {}
    for _, module, attr in WRAPS:
        owner = importlib.import_module(module)
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        before[(module, attr)] = (owner, last, owner.__dict__[last])
    rec = SpanRecorder()
    with pytest.raises(RuntimeError):
        with rec.installed():
            assert all(owner.__dict__[last] is not original
                       for owner, last, original in before.values())
            raise RuntimeError("unwind")
    W.run(tiny("serve-solo-faults"), 0, 0.0)  # patches Server.run itself
    for owner, last, original in before.values():
        assert owner.__dict__[last] is original


class _Perturbed:
    """A model whose optimized-engine output drifts off the reference
    (or goes NaN); the unoptimized reference engine stays correct."""

    def __init__(self, model, nan: bool):
        self.model, self.nan = model, nan
        self.num_classes = model.num_classes

    def __call__(self, x, ctx):
        out = self.model(x, ctx)
        if isinstance(ctx.engine, BaselineEngine):
            return out
        feats = np.full_like(out.feats, np.nan) if self.nan else out.feats + 1.0
        return out.replace_feats(feats)


@pytest.mark.parametrize("nan", [False, True])
def test_failed_frac_catches_a_perturbed_output(monkeypatch, nan):
    real = W._zoo("minkunet_1.0x_kitti")
    entry = replace(real, make_model=lambda: _Perturbed(real.make_model(), nan))
    monkeypatch.setattr(W, "_zoo", lambda key: entry)
    result = W.run(tiny("kitti-seg-cold"), 0, 0.0)
    assert result["failed"] == result["attempted"] == 2


def test_invalid_journal_fails_every_request(monkeypatch):
    monkeypatch.setattr(W, "validate_journal", lambda header, events: ["broken"])
    result = W.run(tiny("serve-batched-light"), 0, 0.0)
    assert result["failed"] == result["attempted"] > 0


def test_sim_metrics_repeat_exactly_on_the_same_seed():
    w = tiny("serve-batched-light")
    a, b = W.run(w, 3, 0.0), W.run(w, 3, 0.0)
    for name in DETERMINISTIC:
        assert a["end_to_end"][name] == b["end_to_end"][name]
    sim = [k for k in a["per_layer"] if k.startswith("serve.sim.")]
    assert sim and all(a["per_layer"][k] == b["per_layer"][k] for k in sim)
    other = W.run(w, 4, 0.0)
    assert other["end_to_end"]["modeled_ms_mean"] != a["end_to_end"]["modeled_ms_mean"]


def test_host_times_are_scaled_by_the_bracketing_probes():
    probe = SpeedProbe()
    before = probe.measure()
    scaled = probe.scaled(2.0)
    after = probe.times[-1]
    assert len(probe.times) == 2
    assert scaled == pytest.approx(2.0 * REFERENCE_S / ((before + after) / 2))


def test_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    assert verdict(parent, [v * 0.8 for v in parent], "lower", 0.1)[0] == "improved"
    assert verdict(parent, [v * 1.3 for v in parent], "lower", 0.1)[0] == "regressed"
    assert verdict(parent, list(parent), "lower", 0.1)[0] == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, [v * 1.02 for v in noisy], "lower", 0.1)[0] == "unresolved"
    assert verdict(noisy, [v + 20 for v in noisy], "higher", 0.1)[0] == "improved"


def test_run_refuses_a_checkout_without_sources(tmp_path):
    import shutil
    import subprocess
    import sys

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kitti-seg-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
