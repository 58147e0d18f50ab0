"""The resilient serving layer: deadline-aware admission, retry and
hedging, and fleet health over sharded inference.

PR 2 hardened the *single-request* path (fault detection, the
degradation ladder, per-layer circuit breakers); this package extends
robustness to the *fleet and traffic* level.  A seeded, simulated-clock
discrete-event loop serves open-loop Poisson traffic (zoo models) over
a :class:`~repro.gpu.device.GPUSpec` fleet with:

* a bounded admission queue with backpressure and load shedding
  (:mod:`repro.serve.queue`);
* per-request deadlines, retry with exponential backoff + jitter, and
  straggler hedging with first-result-wins duplicate cancellation
  (:mod:`repro.serve.server`);
* per-device health — crash-fed circuit breakers, quarantine, and
  probed re-admission (:mod:`repro.serve.health`), reusing the breaker
  machinery from :mod:`repro.robust.degrade`;
* failure-domain awareness — correlated outage/degrade fault windows,
  domain breakers with mass quarantine, domain-diverse retry/hedge
  placement, and the metastable-failure defense (retry token bucket,
  deadline-aware retry admission, hedge suppression) configured via
  :class:`~repro.robust.domains.StormConfig`;
* fleet-level fault sites (``device_crash``, ``device_stall``,
  ``queue_spike``, ``domain_outage``, ``domain_degrade``) from
  :mod:`repro.robust.faults`.

Every request ends in exactly one terminal state (completed / shed /
deadline_exceeded / failed), journaled as a ``terminal`` event and
counted in the ``serve.*`` metrics folded from the journal
(:func:`~repro.serve.report.fold_journal`).  ``repro-bench serve``
runs campaigns from the command line.
"""

from repro.serve.batching import BatchingConfig, FormingBatch, batch_close_time
from repro.serve.cluster import DeviceWorker, LatencyOracle
from repro.serve.health import (
    DEAD,
    HEALTHY,
    PROBING,
    QUARANTINED,
    DeviceHealth,
    FleetHealth,
)
from repro.serve.queue import AdmissionQueue
from repro.serve.report import SERVE_SCHEMA, ServeReport, format_serve_report
from repro.serve.request import (
    COMPLETED,
    DEADLINE_EXCEEDED,
    FAILED,
    QUEUED,
    RUNNING,
    SHED,
    TERMINAL_STATES,
    HedgePolicy,
    Request,
    RetryPolicy,
)
from repro.robust.domains import DomainTopology, RetryBudget, StormConfig
from repro.serve.server import (
    Attempt,
    ServeConfig,
    Server,
    run_serve_campaign,
)
from repro.serve.traffic import TRAFFIC_SHAPES, TrafficConfig, generate_arrivals

__all__ = [
    "AdmissionQueue",
    "Attempt",
    "BatchingConfig",
    "COMPLETED",
    "DEAD",
    "DEADLINE_EXCEEDED",
    "DeviceHealth",
    "DeviceWorker",
    "DomainTopology",
    "FAILED",
    "FleetHealth",
    "FormingBatch",
    "HEALTHY",
    "HedgePolicy",
    "LatencyOracle",
    "PROBING",
    "QUARANTINED",
    "QUEUED",
    "RUNNING",
    "Request",
    "RetryBudget",
    "RetryPolicy",
    "SERVE_SCHEMA",
    "SHED",
    "TRAFFIC_SHAPES",
    "ServeConfig",
    "ServeReport",
    "Server",
    "StormConfig",
    "TERMINAL_STATES",
    "TrafficConfig",
    "batch_close_time",
    "format_serve_report",
    "generate_arrivals",
    "run_serve_campaign",
]
