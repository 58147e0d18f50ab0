"""Deadline-aware cross-request dynamic batching policy.

The serve loop's one-request-per-device dispatch caps fleet throughput
at per-request latency; the source paper's amortization result (batched
gather-bmm-scatter with adaptive grouping) says a collated pass over
``n`` frames costs far less than ``n`` single passes.  The batching
scheduler exploits exactly that: when a device frees up it may coalesce
up to ``max_batch`` queued requests for the same model (and, in
steady-state mode, the same scene) into **one** batched attempt priced
by :meth:`~repro.serve.cluster.LatencyOracle.batch_latency`.

Batch formation is *deadline-aware, not timer-based*:

* a batch under ``max_batch`` holds its (reserved, idle) device open
  for late joiners, but only while every member's deadline still
  absorbs the modeled batch service time — the batch closes at
  :func:`batch_close_time`, the instant the oldest member's slack minus
  the modeled batch service time hits zero;
* a queued request whose deadline cannot survive the *larger* batch is
  never coalesced — left at the queue head it becomes the next batch's
  lead, where the same close rule fires immediately and it dispatches
  solo (a batch of one).

``ServeConfig.batching=None`` (the default) is the degenerate case of
the same scheduler: ``max_batch`` is 1, so every request is a batch of
one that closes the instant it opens.  No extra RNG is drawn, no batch
events are journaled, and same-seed campaigns stay bit-exact with
pre-batching runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.robust.errors import ConfigError


@dataclass(frozen=True)
class BatchingConfig:
    """Knobs of the cross-request batching scheduler.

    Attributes:
        max_batch: largest number of requests one batched attempt may
            carry.  ``1`` dispatches one request per device, like
            ``batching=None``, but still journals the batch events
            (useful as an ablation baseline with identical event
            kinds).
    """

    max_batch: int = 4

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )


@dataclass
class FormingBatch:
    """A batch still accreting members on a reserved idle device."""

    id: int
    device: int
    model: str
    #: scene every member must share (steady-state mode only; ``None``
    #: means any scene may join — there is no warm frame to protect)
    scene: int | None
    members: list
    #: sim time the batch opened (the lead's dequeue instant)
    opened: float
    close_at: float = 0.0
    #: invalidation token: a stale ``batch_close`` heap event whose
    #: token no longer matches is a no-op
    token: int = 0


def batch_close_time(members, service: float) -> float:
    """Latest instant the batch can dispatch without the modeled batch
    service time pushing any member past its deadline.

    Holding past this point would convert waiting — which exists to buy
    throughput — into a deadline miss for the tightest member, so the
    scheduler arms a ``batch_close`` event here and dispatches no later.
    """
    return min(m.deadline for m in members) - service
