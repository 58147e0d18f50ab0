"""The serve-campaign flight recorder: causal event journal + SLO windows.

Every request flowing through the serving layer leaves a *causal
timeline*: a sequence of typed, schema-versioned events
(``repro-bench.events/1``) stamped with the **simulated** clock, the
device label, the admission-queue depth, and the remaining deadline
slack at the instant the transition happened.  The journal is the
ground truth every serve-policy decision can be audited against —
where a request waited, which attempt crashed, what hedged what, and
how much slack was left when the scheduler acted.

Three pieces live here:

* :class:`TimelineRecorder` — an append-only event journal.  Events are
  plain dicts serialized as deterministic JSONL (compact separators,
  sorted keys), so two same-seed campaigns produce byte-for-bit
  identical journals.
* :func:`validate_journal` — the lifecycle checker: dense sequence
  numbers, monotonic sim timestamps, exactly one terminal event per
  request, no event before its request's arrival, every dispatch paired
  with an ``attempt_finish``, every retry/hedge dispatch causally
  linked to a parent attempt of the same request.
* :func:`windowed_slo` — the windowed SLO monitor: deadline-miss rate,
  **exact** nearest-rank latency percentiles (not
  :meth:`~repro.obs.metrics.Histogram.quantile` bucket bounds), and
  error-budget burn rate per sim-clock window.

The recorder is deliberately decoupled from :mod:`repro.serve`: it
records whatever lifecycle the emitter describes, and the validator
checks structural invariants only — so the journal format outlives any
one scheduler.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

EVENTS_SCHEMA = "repro-bench.events/1"

#: Request-scoped lifecycle transitions.
REQUEST_EVENT_KINDS = (
    "arrival",          # request entered the system
    "admit",            # accepted by the admission queue
    "dequeue",          # popped from the queue for dispatch
    "dispatch",         # attempt started on a device
    "attempt_finish",   # attempt left its device (ok/crash/... in attrs)
    "retry_scheduled",  # backoff timer armed after a failed attempt
    "retry_denied",     # storm defense refused a retry (attrs["reason"])
    "hedge_skip",       # hedge wanted but no eligible device
    "batch_formed",     # batching scheduler closed a batch (attrs:
                        #   batch, size, members, reason)
    "batch_dispatch",   # one member's slice of a batched attempt —
                        #   members of a batch share the attempt id
    "terminal",         # exactly-once terminal state (attrs["state"])
)

#: Device-scoped health transitions.
DEVICE_EVENT_KINDS = (
    "quarantine",       # breaker opened; device pulled from placement
    "readmit",          # probe succeeded; device rejoined the fleet
    "device_dead",      # probe budget exhausted; device never returns
    "device_replaced",  # spare admitted into a dead device's slot
    "store_warmstart",  # a worker primed its caches from the artifact store
)

#: Fleet-scoped control-plane transitions.
FLEET_EVENT_KINDS = (
    "qos_change",        # brownout controller stepped the fleet QoS level
    "domain_outage",     # a domain breaker opened (attrs["domain"])
    "domain_recovered",  # a member probe readmission closed the breaker
)

EVENT_KINDS = frozenset(
    REQUEST_EVENT_KINDS + DEVICE_EVENT_KINDS + FLEET_EVENT_KINDS
)

#: Attempt outcomes carried by ``attempt_finish`` events.
ATTEMPT_OUTCOMES = ("ok", "crash", "integrity_fail", "cancelled")

#: Terminal request states (mirrors ``repro.serve.request``; duplicated
#: so the journal layer never imports the serving layer).
TERMINAL_EVENT_STATES = ("completed", "shed", "deadline_exceeded", "failed")

#: Dispatch kinds whose events must carry a causal ``parent`` attempt.
LINKED_DISPATCH_KINDS = ("retry", "hedge")

#: Reasons a ``retry_denied`` event may carry: the fleet retry token
#: bucket ran dry, or the remaining deadline slack could not fit the
#: best healthy device's expected service time.
RETRY_DENIAL_REASONS = ("budget", "deadline")

#: Reasons a ``batch_formed`` event may carry: the batch hit
#: ``max_batch`` (``full``), the oldest member's slack minus the
#: modeled batch service time hit zero (``deadline``), or the same
#: close rule fired on a single member that no batch could absorb
#: (``solo`` — the member dispatches alone).
BATCH_CLOSE_REASONS = ("full", "deadline", "solo", "starved")


def _dumps(obj: dict) -> str:
    """Canonical JSON: compact separators + sorted keys, so a journal
    is byte-for-bit a function of its events."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class TimelineRecorder:
    """Append-only journal of typed lifecycle events.

    Args:
        meta: campaign metadata stored in the header line (seed, device
            labels, preset, ...).  The header always carries the schema
            version.
    """

    def __init__(self, meta: dict | None = None) -> None:
        self.meta: dict = dict(meta or {})
        self.events: list = []

    def __len__(self) -> int:
        return len(self.events)

    def emit(
        self,
        kind: str,
        t: float,
        /,
        *,
        request: int | None = None,
        attempt: int | None = None,
        device: str | None = None,
        queue_depth: int = 0,
        slack: float | None = None,
        **attrs,
    ) -> dict:
        """Record one lifecycle transition; returns the event dict.

        The keyword spelling of :meth:`record`.
        """
        return self.record(
            kind, t, request, attempt, device, queue_depth, slack, attrs
        )

    def record(
        self,
        kind: str,
        t: float,
        request: int | None,
        attempt: int | None,
        device: str | None,
        queue_depth: int,
        slack: float | None,
        attrs: dict,
    ) -> dict:
        """Build and append one event; returns the event dict.

        ``t`` is the *simulated* clock.  ``slack`` is the request's
        remaining deadline budget (``deadline - t``) at this instant,
        ``None`` for events with no request (probes, device health).
        The event keeps ``attrs`` itself, not a copy: pass a fresh dict.
        """
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; expected one of "
                f"{sorted(EVENT_KINDS)}"
            )
        event = {
            "seq": len(self.events),
            "t": float(t),
            "kind": kind,
            "request": request,
            "attempt": attempt,
            "device": device,
            "queue_depth": int(queue_depth),
            "slack": None if slack is None else float(slack),
            "attrs": attrs,
        }
        self.events.append(event)
        return event

    def header(self) -> dict:
        return {"schema": EVENTS_SCHEMA, **self.meta}

    def to_jsonl(self) -> str:
        """Header line + one line per event, deterministically encoded."""
        lines = [_dumps(self.header())]
        lines.extend(_dumps(e) for e in self.events)
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_jsonl())


def load_journal(path: str) -> tuple[dict, list]:
    """Read a journal file back into ``(header, events)``.

    Raises ``ValueError`` on a missing/mismatched schema header or a
    line that is not valid JSON.
    """
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty journal")
    try:
        header = json.loads(lines[0])
        events = [json.loads(line) for line in lines[1:]]
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: malformed journal line: {e}") from e
    if not isinstance(header, dict) or header.get("schema") != EVENTS_SCHEMA:
        raise ValueError(
            f"{path}: not an event journal (schema "
            f"{header.get('schema') if isinstance(header, dict) else None!r},"
            f" expected {EVENTS_SCHEMA!r})"
        )
    return header, events


def validate_journal(header: dict, events: list) -> list:
    """Check the journal's structural invariants; returns violations.

    An empty list means the journal is a valid flight record:

    * dense ``seq`` numbering and monotonic (non-decreasing) sim time;
    * every event kind known to the schema;
    * per request — the first event is ``arrival``, there is **exactly
      one** ``terminal`` event (with a known state), nothing happens
      after it, and no event precedes the arrival timestamp;
    * every attempt is one device plus a set of member slices
      ``(attempt, request)``.  A ``dispatch`` opens an attempt with
      exactly one slice (request ``None`` for a probe); a
      ``batch_dispatch`` adds a slice for a member of a formed batch,
      and all of an attempt's slices agree on device and batch.  Each
      slice is closed by exactly one ``attempt_finish`` for its
      request, on the attempt's device, with a known outcome — a
      batched attempt fans back out to one finish per member, which
      the per-request terminal rule then enforces;
    * every retry/hedge slice, solo or batched, carries a ``parent``
      attempt id that belongs to an earlier dispatch of the same
      request (the causal link the trace renders as a flow arrow);
    * every ``batch_formed`` names a fresh batch id, a known close
      reason, and a member list matching its ``size`` — and every
      member was *admitted* before the batch formed (a batch can only
      coalesce requests the admission queue accepted) and is not yet
      terminal;
    * every ``qos_change`` carries a valid level/rung/direction and
      steps the level by exactly one from the previous change (the
      brownout controller never jumps rungs);
    * every ``device_replaced`` names a replacement device and a
      ``slot`` for which a ``device_dead`` event was already journaled
      — a spare may only ever fill a slot the fleet actually lost —
      and no slot is filled twice;
    * every ``store_warmstart`` names its device and carries a
      non-negative integer ``frames`` count (how many cached frames
      the worker inherited from the artifact store);
    * every ``retry_denied`` carries a known reason (``budget`` /
      ``deadline``);
    * every ``domain_outage`` names a domain whose breaker is not
      already open, and every ``domain_recovered`` closes a breaker a
      prior ``domain_outage`` opened — outages and recoveries alternate
      per domain.
    """
    problems: list = []
    if header.get("schema") != EVENTS_SCHEMA:
        problems.append(
            f"header schema {header.get('schema')!r} != {EVENTS_SCHEMA!r}"
        )
    last_t = None
    qos_level = 0
    arrivals: dict = {}
    terminals: dict = {}
    attempts: dict = {}        # attempt id -> the event that opened it
    slices: dict = {}          # (attempt id, request id) keys, in order
    closed: set = set()        # slices an attempt_finish closed
    attempts_of: dict = {}     # request id -> [attempt ids]
    admitted: set = set()      # request ids the queue accepted
    batch_members: dict = {}   # batch id -> set of member request ids
    dead_slots: set = set()    # device labels with a journaled device_dead
    filled_slots: set = set()  # dead slots already taken by a replacement
    open_domains: set = set()  # domains with an unrecovered domain_outage
    for i, e in enumerate(events):
        seq, kind, t = e.get("seq"), e.get("kind"), e.get("t")
        if seq != i:
            problems.append(f"event {i}: seq {seq} not dense")
        if kind not in EVENT_KINDS:
            problems.append(f"event {i}: unknown kind {kind!r}")
            continue
        if last_t is not None and t < last_t:
            problems.append(
                f"event {i}: time {t} precedes previous event ({last_t})"
            )
        last_t = t
        req = e.get("request")
        if req is not None:
            if kind == "arrival":
                if req in arrivals:
                    problems.append(f"event {i}: duplicate arrival for "
                                    f"request {req}")
                arrivals[req] = t
            elif req not in arrivals:
                problems.append(
                    f"event {i}: {kind} for request {req} before its arrival"
                )
            elif t < arrivals[req]:
                problems.append(
                    f"event {i}: {kind} at {t} precedes request {req}'s "
                    f"arrival ({arrivals[req]})"
                )
            if req in terminals:
                problems.append(
                    f"event {i}: {kind} for request {req} after its "
                    f"terminal event (seq {terminals[req]})"
                )
            if kind == "terminal":
                state = e.get("attrs", {}).get("state")
                if state not in TERMINAL_EVENT_STATES:
                    problems.append(
                        f"event {i}: terminal with unknown state {state!r}"
                    )
                terminals[req] = i
        if kind == "admit" and req is not None:
            admitted.add(req)
        if kind in ("dispatch", "batch_dispatch"):
            attempt = e.get("attempt")
            device = e.get("device")
            attrs = e.get("attrs", {})
            if attempt is None or device is None:
                problems.append(f"event {i}: {kind} without attempt/device")
                continue
            batch = None
            if kind == "batch_dispatch":
                batch = attrs.get("batch")
                if batch not in batch_members:
                    problems.append(
                        f"event {i}: batch_dispatch for unformed batch "
                        f"{batch!r}"
                    )
                elif req not in batch_members[batch]:
                    problems.append(
                        f"event {i}: request {req} is not a member of batch "
                        f"{batch}"
                    )
            prior = attempts.get(attempt)
            if prior is not None and "dispatch" in (kind, prior["kind"]):
                # a dispatch is an attempt's only slice
                problems.append(
                    f"event {i}: attempt {attempt} dispatched twice"
                )
                prior = None
            if prior is None:
                attempts[attempt] = e
            else:
                opened = (prior["device"], prior.get("attrs", {}).get("batch"))
                if opened != (device, batch):
                    problems.append(
                        f"event {i}: attempt {attempt} slices disagree on "
                        f"device/batch ({opened} vs {(device, batch)})"
                    )
                if (attempt, req) in slices:
                    problems.append(
                        f"event {i}: request {req} dispatched twice in "
                        f"attempt {attempt}"
                    )
            slices[(attempt, req)] = None
            if req is not None:
                attempts_of.setdefault(req, []).append(attempt)
            dkind = attrs.get("kind")
            if dkind in LINKED_DISPATCH_KINDS:
                parent = attrs.get("parent")
                if parent is None:
                    problems.append(
                        f"event {i}: {dkind} {kind} without parent attempt"
                    )
                elif parent not in (attempts_of.get(req) or [])[:-1]:
                    problems.append(
                        f"event {i}: {dkind} parent {parent} is not an "
                        f"earlier attempt of request {req}"
                    )
        elif kind == "batch_formed":
            attrs = e.get("attrs", {})
            batch = attrs.get("batch")
            members = attrs.get("members")
            if not isinstance(batch, int) or isinstance(batch, bool):
                problems.append(
                    f"event {i}: batch_formed with invalid batch id "
                    f"{batch!r}"
                )
                continue
            if batch in batch_members:
                problems.append(
                    f"event {i}: batch {batch} formed twice"
                )
            if not isinstance(members, list) or not members:
                problems.append(
                    f"event {i}: batch_formed without a member list"
                )
                continue
            if attrs.get("size") != len(members):
                problems.append(
                    f"event {i}: batch_formed size {attrs.get('size')!r} "
                    f"!= {len(members)} members"
                )
            if attrs.get("reason") not in BATCH_CLOSE_REASONS:
                problems.append(
                    f"event {i}: batch_formed with unknown reason "
                    f"{attrs.get('reason')!r}"
                )
            for m in members:
                if m not in admitted:
                    problems.append(
                        f"event {i}: batch {batch} member {m} was never "
                        f"admitted before formation"
                    )
                if m in terminals:
                    problems.append(
                        f"event {i}: batch {batch} member {m} is already "
                        f"terminal"
                    )
            batch_members[batch] = set(members)
        elif kind == "qos_change":
            attrs = e.get("attrs", {})
            level = attrs.get("level")
            direction = attrs.get("direction")
            if not isinstance(level, int) or level < 0:
                problems.append(
                    f"event {i}: qos_change with invalid level {level!r}"
                )
            elif direction not in ("up", "down"):
                problems.append(
                    f"event {i}: qos_change with unknown direction "
                    f"{direction!r}"
                )
            else:
                expected = qos_level + (1 if direction == "down" else -1)
                if level != expected:
                    problems.append(
                        f"event {i}: qos_change to level {level} skips "
                        f"rungs (previous level {qos_level}, {direction})"
                    )
                qos_level = level
            if not attrs.get("rung"):
                problems.append(f"event {i}: qos_change without a rung name")
        elif kind == "device_dead":
            if e.get("device") is not None:
                dead_slots.add(e["device"])
        elif kind == "device_replaced":
            attrs = e.get("attrs", {})
            slot = attrs.get("slot")
            if e.get("device") is None:
                problems.append(
                    f"event {i}: device_replaced without a replacement device"
                )
            if slot is None:
                problems.append(
                    f"event {i}: device_replaced without a slot"
                )
            elif slot not in dead_slots:
                problems.append(
                    f"event {i}: device_replaced for slot {slot!r} with no "
                    f"prior device_dead event"
                )
            elif slot in filled_slots:
                problems.append(
                    f"event {i}: slot {slot!r} replaced twice"
                )
            else:
                filled_slots.add(slot)
        elif kind == "store_warmstart":
            frames = e.get("attrs", {}).get("frames")
            if e.get("device") is None:
                problems.append(
                    f"event {i}: store_warmstart without a device"
                )
            if (
                not isinstance(frames, int)
                or isinstance(frames, bool)
                or frames < 0
            ):
                problems.append(
                    f"event {i}: store_warmstart with invalid frames "
                    f"{frames!r}"
                )
        elif kind == "retry_denied":
            reason = e.get("attrs", {}).get("reason")
            if reason not in RETRY_DENIAL_REASONS:
                problems.append(
                    f"event {i}: retry_denied with unknown reason "
                    f"{reason!r}"
                )
        elif kind == "domain_outage":
            domain = e.get("attrs", {}).get("domain")
            if not domain:
                problems.append(
                    f"event {i}: domain_outage without a domain"
                )
            elif domain in open_domains:
                problems.append(
                    f"event {i}: domain_outage for {domain!r} while its "
                    f"breaker is already open"
                )
            else:
                open_domains.add(domain)
        elif kind == "domain_recovered":
            domain = e.get("attrs", {}).get("domain")
            if domain not in open_domains:
                problems.append(
                    f"event {i}: domain_recovered for {domain!r} with no "
                    f"open domain_outage"
                )
            else:
                open_domains.discard(domain)
        elif kind == "attempt_finish":
            attempt = e.get("attempt")
            if attempt not in attempts:
                problems.append(
                    f"event {i}: attempt_finish for undispatched attempt "
                    f"{attempt}"
                )
            else:
                opened = attempts[attempt]
                solo = opened["kind"] == "dispatch"
                member = (attempt, req)
                if solo:
                    # a dispatch's one slice is the attempt's only slice
                    if req != opened.get("request"):
                        problems.append(
                            f"event {i}: attempt {attempt} finished for "
                            f"request {req}, dispatched for "
                            f"{opened.get('request')}"
                        )
                    member = (attempt, opened.get("request"))
                if e.get("device") != opened["device"]:
                    problems.append(
                        f"event {i}: attempt {attempt} finished on "
                        f"{e.get('device')!r}, dispatched on "
                        f"{opened['device']!r}"
                    )
                if member not in slices:
                    problems.append(
                        f"event {i}: attempt_finish for request {req} "
                        f"never dispatched in attempt {attempt}"
                    )
                elif member in closed:
                    problems.append(
                        f"event {i}: attempt {attempt} finished twice"
                        + ("" if solo else f" for request {req}")
                    )
                else:
                    closed.add(member)
            outcome = e.get("attrs", {}).get("outcome")
            if outcome not in ATTEMPT_OUTCOMES:
                problems.append(
                    f"event {i}: attempt_finish with unknown outcome "
                    f"{outcome!r}"
                )
    for req in arrivals:
        if req not in terminals:
            problems.append(f"request {req}: no terminal event")
    for attempt, req in slices:
        if (attempt, req) in closed:
            continue
        opened = attempts[attempt]
        if opened["kind"] == "dispatch":
            problems.append(
                f"attempt {attempt} (request {req}, seq {opened.get('seq')}) "
                f"never finished"
            )
        else:
            problems.append(
                f"batched attempt {attempt} never finished for request {req}"
            )
    return problems


def request_timeline(events: list, request: int) -> list:
    """Every event of one request, in journal order."""
    return [e for e in events if e.get("request") == request]


# -- windowed SLO monitor --------------------------------------------------


@dataclass(frozen=True)
class SLOWindow:
    """One sim-clock window of the SLO monitor.

    ``miss_rate`` is the fraction of requests *finishing* in the window
    that did not complete within their deadline (late, failed, and shed
    all burn error budget).  ``burn_rate`` is that miss rate divided by
    the error budget ``1 - target``: a burn of 1.0 consumes budget
    exactly as fast as the SLO allows, anything above eats into it.
    Percentiles are **exact** nearest-rank values over the window's
    finished-latency samples, not histogram bucket bounds.
    """

    start: float
    end: float
    total: int
    misses: int
    miss_rate: float
    p50: float
    p99: float
    burn_rate: float

    def to_json(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "total": self.total,
            "misses": self.misses,
            "miss_rate": self.miss_rate,
            "p50": self.p50,
            "p99": self.p99,
            "burn_rate": self.burn_rate,
        }


def windowed_slo(
    samples,
    width: float,
    *,
    target: float = 0.99,
    end: float | None = None,
) -> list:
    """Tile ``[0, end]`` with ``width``-second windows of SLO health.

    Args:
        samples: iterable of ``(t, ok, latency)`` — finish time on the
            sim clock, whether the request met its SLO, and its
            end-to-end latency (``None`` if it never ran).
        width: window width in sim seconds.
        target: SLO objective (e.g. ``0.99`` = 1% error budget).
        end: campaign end time; defaults to the latest sample.

    Returns:
        One :class:`SLOWindow` per window, empty windows included, so
        the series has no gaps for a monitor to misread.
    """
    from repro.profiling.report import percentile

    if width <= 0:
        raise ValueError("window width must be positive")
    if not 0.0 < target < 1.0:
        raise ValueError("slo target must be in (0, 1)")
    samples = list(samples)
    horizon = max(
        [end or 0.0] + [t for t, _, _ in samples]
    )
    # integer-nanosecond ceiling avoids float-division edge cases at
    # exact window boundaries
    n_windows = max(1, -(-int(round(horizon * 1e9)) //
                         int(round(width * 1e9))))
    budget = 1.0 - target
    buckets: list = [[] for _ in range(n_windows)]
    for t, ok, latency in samples:
        i = min(int(t / width), n_windows - 1)
        buckets[i].append((ok, latency))
    windows = []
    for i, bucket in enumerate(buckets):
        total = len(bucket)
        misses = sum(not ok for ok, _ in bucket)
        lats = [lat for _, lat in bucket if lat is not None]
        miss_rate = 0.0 if total == 0 else misses / total
        windows.append(
            SLOWindow(
                start=i * width,
                end=(i + 1) * width,
                total=total,
                misses=misses,
                miss_rate=miss_rate,
                p50=percentile(lats, 50.0),
                p99=percentile(lats, 99.0),
                burn_rate=miss_rate / budget,
            )
        )
    return windows


def worst_burn(windows) -> float:
    """The worst window's error-budget burn rate (0.0 on no windows)."""
    return max((w.burn_rate for w in windows), default=0.0)
