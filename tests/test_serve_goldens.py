"""Byte-level goldens of the serve loop across the batching axis.

Every case below runs one seeded campaign and digests five outputs:
the canonical report JSON, the journal JSONL, the Perfetto serve trace
rendered from that journal, the metrics registry's JSONL, and the text
view :func:`~repro.serve.report.format_serve_report` prints.  The
digests in ``tests/data/serve_goldens.json`` pin all five for

* ``batching=None``, ``BatchingConfig(max_batch=1)`` and
  ``BatchingConfig(max_batch=4)``, crossed with
* seven fleet scenarios on synthetic latencies (crashes, a straggler
  and verified corruption with hedges firing, overload, steady state,
  brownout, failure domains with a storm defense and an outage, spares
  with a durable store, and unverified silent corruption),

plus two small engine-priced batched steady-state campaigns that pin
the latency oracle's pricing: one model on two RTX 3090s, and two KITTI
models sharing one input on an RTX 3090 and an RTX 2080Ti under
brownout, whose warm prices take mapping-cache hits on their first
forward.  A refactor of the serve loop must keep every digest.

The module also checks that ``max_batch=1`` is the unbatched fleet:
every request ends in the same state, at the same instant, on the same
devices, with the same retries and hedge flags; that each case's
journal, written to disk and read back, folds to the report's request
rows, device table, busy times, domain rows, tallies and the
registry's ``serve.*`` lines; and that each journal validates
and renders one trace slice per attempt, solo or batched.

Regenerate the data file (only when a change of behaviour is intended)
with ``PYTHONPATH=src python tests/test_serve_goldens.py``.
"""

import hashlib
import json
import os
from typing import NamedTuple

import pytest

from repro.gpu.device import RTX_2080TI, RTX_3090
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.timeline import (
    TimelineRecorder,
    load_journal,
    validate_journal,
)
from repro.profiling.trace import attempt_events, flow_events, to_serve_trace
from repro.robust.brownout import BrownoutConfig
from repro.robust.domains import StormConfig
from repro.robust.faults import FaultInjector, FaultSpec
from repro.serve import (
    BatchingConfig,
    RetryPolicy,
    ServeConfig,
    TrafficConfig,
    run_serve_campaign,
)
from repro.serve.report import ServeReport, fold_journal, format_serve_report

GOLDENS = os.path.join(os.path.dirname(__file__), "data", "serve_goldens.json")

#: synthetic base latency; no engine evaluation in the matrix
LAT = {"m": 0.004, "big": 0.012}
DEVICES = (RTX_2080TI, RTX_2080TI, RTX_3090, RTX_3090)
RACKS = ("rack0", "rack0", "rack1", "rack1")
SEED = 11
#: the title every golden text view is rendered under
TITLE = "serve campaign (golden)"

#: scenario -> (ServeConfig kwargs, TrafficConfig kwargs, fault specs)
SCENARIOS = {
    "faults": (
        dict(retry=RetryPolicy(max_retries=2)),
        dict(rate=150.0, duration=0.5, models=("m", "big"),
             weights=(3.0, 1.0)),
        [
            FaultSpec(kind="device_crash", count=4),
            FaultSpec(kind="device_stall", site="RTX 3090 #3", count=-1,
                      severity=0.1),
            FaultSpec(kind="bitflip_feature", count=2),
        ],
    ),
    "overload": (
        dict(queue_capacity=32),
        dict(rate=1500.0, duration=0.2),
        [FaultSpec(kind="device_crash", count=2)],
    ),
    "steady": (
        dict(steady_state=True),
        dict(rate=400.0, duration=0.4, coherence=0.8),
        [FaultSpec(kind="device_crash", count=2)],
    ),
    "brownout": (
        dict(slo_window=0.05, brownout=BrownoutConfig()),
        dict(rate=900.0, duration=0.4, shape="flash", peak_factor=6.0),
        [],
    ),
    "storm": (
        dict(domains=RACKS, storm=StormConfig()),
        dict(rate=300.0, duration=0.4),
        [
            FaultSpec(kind="domain_outage", count=1),
            FaultSpec(kind="device_crash", count=2),
        ],
    ),
    "spares": (
        dict(max_probes=2, steady_state=True, spares=1),
        dict(rate=300.0, duration=0.4, coherence=0.9),
        [FaultSpec(kind="device_crash", site="RTX 2080Ti #0", count=-1)],
    ),
    "sdc": (
        dict(verify_integrity=False),
        dict(rate=300.0, duration=0.4),
        [FaultSpec(kind="bitflip_feature", count=4)],
    ),
}

ARMS = {
    "none": None,
    "b1": BatchingConfig(max_batch=1),
    "b4": BatchingConfig(max_batch=4),
}

MATRIX = [f"{s}/{a}" for s in SCENARIOS for a in ARMS]

#: engine-priced case -> (ServeConfig kwargs, TrafficConfig kwargs,
#: fault specs); no latency overrides, so the oracle prices forwards
ENGINE_CASES = {
    "engine/b4-steady": (
        dict(devices=(RTX_3090, RTX_3090),
             batching=BatchingConfig(max_batch=4), scale=0.04),
        dict(rate=400.0, duration=0.2, models=("minkunet_0.5x_kitti",)),
        [FaultSpec(kind="device_crash", count=2)],
    ),
    "engine/b2-steady-brownout": (
        dict(devices=(RTX_3090, RTX_2080TI),
             batching=BatchingConfig(max_batch=2), scale=0.04,
             deadline_factor=5.0,
             brownout=BrownoutConfig(interval=0.02)),
        dict(rate=300.0, duration=0.3,
             models=("minkunet_0.5x_kitti", "minkunet_1.0x_kitti")),
        [],
    ),
}
CASES = MATRIX + list(ENGINE_CASES)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class CaseRun(NamedTuple):
    report: ServeReport
    digests: dict
    recorder: TimelineRecorder
    registry: MetricsRegistry


def run_case(case: str, store_root: str) -> CaseRun:
    """One golden case's campaign, with the digests of its outputs."""
    if case in ENGINE_CASES:
        config_kw, traffic_kw, specs = ENGINE_CASES[case]
        config = ServeConfig(steady_state=True, seed=SEED, **config_kw)
        traffic = TrafficConfig(seed=SEED, coherence=0.8, **traffic_kw)
    else:
        scenario, arm = case.split("/")
        config_kw, traffic_kw, specs = SCENARIOS[scenario]
        config_kw = dict(config_kw)
        if config_kw.get("spares"):
            config_kw["store_dir"] = os.path.join(store_root, "store")
        config = ServeConfig(
            devices=DEVICES, latency_overrides=LAT, seed=SEED,
            batching=ARMS[arm], **config_kw,
        )
        traffic = TrafficConfig(**{"models": ("m",), "seed": SEED,
                                   **traffic_kw})
    injector = FaultInjector(seed=SEED, specs=list(specs)) if specs else None
    recorder = TimelineRecorder()
    with use_registry(MetricsRegistry()) as reg:
        report = run_serve_campaign(
            config, traffic, injector=injector, recorder=recorder
        )
    trace = to_serve_trace(recorder.header(), recorder.events)
    digests = {
        "report": _digest(_canonical(report.to_json()) + "\n"),
        "journal": _digest(recorder.to_jsonl()),
        "trace": _digest(_canonical(trace)),
        "metrics": _digest(reg.to_jsonl()),
        "text": _digest(format_serve_report(report, TITLE)),
    }
    return CaseRun(report, digests, recorder, reg)


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDENS) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def campaigns(tmp_path_factory):
    """case -> its :class:`CaseRun`, each campaign run once per module."""
    runs: dict = {}

    def get(case: str) -> CaseRun:
        if case not in runs:
            store_root = tmp_path_factory.mktemp("case")
            runs[case] = run_case(case, str(store_root))
        return runs[case]

    return get


@pytest.mark.parametrize("case", CASES)
def test_campaign_matches_golden(case, goldens, campaigns):
    assert campaigns(case).digests == goldens[case]


@pytest.mark.parametrize("case", CASES)
def test_journal_file_folds_to_report_and_metrics(case, campaigns, tmp_path):
    """The journal file alone (header and events, float reprs and JSON
    nulls included) and the campaign's end time reproduce every request
    row of the report, the device table, the busy times, the domain
    rows, every tally and every folded metric."""
    run = campaigns(case)
    path = tmp_path / "events.jsonl"
    run.recorder.write(str(path))
    header, events = load_journal(str(path))
    ledger = fold_journal(header, events, run.report.end_time)
    assert [r.to_json() for r in ledger.requests] == [
        r.to_json() for r in run.report.requests
    ]
    assert ledger.fleet == run.report.fleet
    assert ledger.utilization == run.report.utilization
    assert ledger.domain_summary == run.report.domain_summary
    assert ledger.domains == run.report.domains
    fields = ledger.report_fields()
    assert fields == {name: getattr(run.report, name) for name in fields}
    folded = MetricsRegistry()
    ledger.publish(folded)
    names = {m["name"] for m in folded.collect()}
    live = run.registry.collect()
    assert folded.collect() == [m for m in live if m["name"] in names]
    # every serve.* counter and histogram is a folded one
    assert {
        m["name"] for m in live
        if m["name"].startswith("serve.") and m["type"] != "gauge"
    } <= names


@pytest.mark.parametrize("case", CASES)
def test_journal_validates_and_traces_one_slice_per_attempt(case, campaigns):
    """Each golden journal is a valid flight record, and its trace draws
    one attempt slice per attempt id (probes included) and one flow
    arrow per member dispatch whose parent attempt was dispatched."""
    recorder = campaigns(case).recorder
    header, events = recorder.header(), recorder.events
    assert validate_journal(header, events) == []
    dispatches = [
        e for e in events if e["kind"] in ("dispatch", "batch_dispatch")
    ]
    attempt_ids = {e["attempt"] for e in dispatches}
    trace = to_serve_trace(header, events)
    slices = [e["args"]["attempt"] for e in attempt_events(trace)]
    assert sorted(slices) == sorted(attempt_ids)
    linked = sum(
        1 for e in dispatches if e["attrs"].get("parent") in attempt_ids
    )
    flows = flow_events(trace)
    assert [e["ph"] for e in flows] == ["s", "f"] * linked
    assert [e["id"] for e in flows] == [i // 2 + 1 for i in range(2 * linked)]


def _outcomes(report) -> list:
    return [
        (
            r.id, r.state, r.finish, r.latency, tuple(r.devices), r.retries,
            r.hedged, r.hedge_won, r.corrupted, r.integrity_failures,
        )
        for r in report.requests
    ]


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_batch_of_one_is_the_unbatched_fleet(scenario, campaigns):
    solo = campaigns(f"{scenario}/none").report
    ones = campaigns(f"{scenario}/b1").report
    assert _outcomes(ones) == _outcomes(solo)
    assert ones.attempts == solo.attempts
    assert ones.hedges_launched == solo.hedges_launched


def test_matrix_exercises_hedges_and_batches(campaigns):
    report = campaigns("faults/none").report
    assert report.hedges_launched > 0
    assert report.hedges_won > 0
    assert report.integrity_failures > 0
    report = campaigns("overload/b4").report
    assert report.mean_batch_size > 1.0


if __name__ == "__main__":
    import tempfile

    out = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            out[case] = run_case(case, tmp).digests
    with open(GOLDENS, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
