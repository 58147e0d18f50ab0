"""Chrome-trace export of execution profiles and serve campaigns.

Serializes a :class:`~repro.gpu.timeline.Profile` into the Trace Event
Format consumed by ``chrome://tracing`` / Perfetto.  The model is a
single-stream device, so record order is execution order: kernels are
laid out back-to-back on one ``pipeline`` track, and the span paths
stamped on each record (by the hierarchical tracer) are rendered as
enclosing ``X`` events, so the trace nests layer -> stage -> kernel the
way a real Nsight timeline nests NVTX ranges over kernels.

Untraced profiles (no span paths) degrade gracefully to a flat
back-to-back kernel track.

**Serve mode** (:func:`to_serve_trace`) renders a whole serving
campaign from its flight-recorder journal
(:mod:`repro.obs.timeline`): one track per fleet device with attempts
as duration slices, retries and hedges linked to their parent attempt
by flow arrows, breaker/quarantine transitions and mapping-cache
warm/cold dispatches as instant events, a request-outcome track, and
an admission-queue-depth counter track.  The trace is a pure function
of the journal, so ``repro-bench timeline --trace`` can convert a
journal offline and two same-seed campaigns render identically.
"""

from __future__ import annotations

import json

from repro.gpu.timeline import Profile

#: The single pseudo-thread all kernels and spans render on.
PIPELINE_TID = 1

#: Category assigned to span (non-kernel) events.
SPAN_CATEGORY = "span"


def _span_event(name: str, start_us: float, end_us: float, depth: int) -> dict:
    return {
        "name": name,
        "cat": SPAN_CATEGORY,
        "ph": "X",
        "pid": 1,
        "tid": PIPELINE_TID,
        "ts": round(start_us, 3),
        "dur": round(end_us - start_us, 3),
        "args": {"depth": depth},
    }


def to_chrome_trace(profile: Profile, process_name: str = "repro") -> dict:
    """Build a Trace Event Format dict (``traceEvents`` + metadata).

    Span intervals are reconstructed from the records they contain:
    consecutive records sharing a span-path prefix stay inside one span
    event; when the path changes, the divergent spans close and new
    ones open.  Re-entering an identical path after leaving it opens a
    fresh span event (two calls to the same layer stay two boxes).
    """
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": process_name},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": PIPELINE_TID,
            "args": {"name": "pipeline"},
        },
    ]
    clock_us = 0.0
    open_spans: list = []  # (name, start_us), outermost first

    def close_spans(down_to: int) -> None:
        while len(open_spans) > down_to:
            name, start = open_spans.pop()
            events.append(
                _span_event(name, start, clock_us, depth=len(open_spans))
            )

    for rec in profile.records:
        path = rec.span
        common = 0
        for (open_name, _), name in zip(open_spans, path):
            if open_name != name:
                break
            common += 1
        close_spans(common)
        for name in path[len(open_spans):]:
            open_spans.append((name, clock_us))
        dur_us = rec.time * 1e6
        events.append(
            {
                "name": rec.name,
                "cat": rec.stage,
                "ph": "X",
                "pid": 1,
                "tid": PIPELINE_TID,
                "ts": round(clock_us, 3),
                "dur": round(dur_us, 3),
                "args": {
                    "stage": rec.stage,
                    "bytes_moved": rec.bytes_moved,
                    "flops": rec.flops,
                    "launches": rec.launches,
                    "span": "/".join(path),
                },
            }
        )
        clock_us += dur_us
    close_spans(0)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def kernel_events(trace: dict) -> list:
    """The kernel ``X`` events of a trace (span boxes filtered out)."""
    return [
        e
        for e in trace["traceEvents"]
        if e["ph"] == "X" and e.get("cat") != SPAN_CATEGORY
    ]


def span_events(trace: dict) -> list:
    """The span ``X`` events of a trace (layer/stage boxes)."""
    return [
        e
        for e in trace["traceEvents"]
        if e["ph"] == "X" and e.get("cat") == SPAN_CATEGORY
    ]


def write_chrome_trace(profile: Profile, path: str, **kwargs) -> None:
    """Serialize :func:`to_chrome_trace` to a JSON file."""
    with open(path, "w") as f:
        json.dump(to_chrome_trace(profile, **kwargs), f)


# -- serve-campaign traces -------------------------------------------------

#: Pseudo-thread carrying per-request terminal-state instants.
REQUESTS_TID = 2

#: Pseudo-thread carrying brownout QoS level changes.
QOS_TID = 3

#: Pseudo-thread carrying failure-domain breaker transitions.
DOMAINS_TID = 4

#: First device track; device ``i`` renders on ``DEVICE_TID_BASE + i``.
DEVICE_TID_BASE = 10


def _us(t: float) -> float:
    return round(t * 1e6, 3)


def _counter(name: str, t: float, **args) -> dict:
    """One sample of the counter track ``name`` at sim time ``t``."""
    return {"name": name, "ph": "C", "pid": 1, "ts": _us(t), "args": args}


def to_serve_trace(
    header: dict, events: list, process_name: str = "serve-campaign"
) -> dict:
    """Render a flight-recorder journal as a Perfetto-loadable trace.

    Track layout (one process):

    * one thread per fleet device — every attempt (primary / retry /
      hedge / probe, solo or batched) is **one** ``X`` duration slice
      from its first ``dispatch`` / ``batch_dispatch`` slice to its
      ``attempt_finish``, with the outcome in ``args``.  A solo
      attempt is named by its dispatch kind, a batched one ``batch
      xN`` (``hedge xN`` for a hedge duplicate of a batch);
    * flow arrows (``s``/``f`` pairs) link every member dispatch that
      carries a causal parent (a retry or hedge, solo or inside a
      batch) back to that parent attempt;
    * ``quarantine`` / ``readmit`` / ``device_dead`` render as instant
      events on the device that produced them, and so does the
      mapping-cache warm/cold of a steady-state solo ``dispatch``.  A
      batched steady-state attempt gets no mapcache instant;
    * a ``requests`` thread carries one instant per terminal state;
    * a ``queue depth`` counter tracks the admission queue over the
      campaign;
    * brownout campaigns add a ``qos`` thread (one instant per
      controller level change, named by the engaged rung) and a ``qos
      level`` counter track following the fleet's quality level;
    * campaigns with a non-trivial failure-domain topology add a
      ``domains`` thread (one instant per ``domain_outage`` /
      ``domain_recovered`` breaker transition, plus one per storm-
      defense ``retry_denied``) and a ``domains down`` counter tracking
      how many domain breakers are open;
    * batched campaigns add an instant per ``batch_formed`` close,
      carrying the close reason and hold time, and a ``batch size``
      counter track stepping at every close.
    """
    devices = list(header.get("devices") or [])
    for e in events:
        dev = e.get("device")
        if dev is not None and dev not in devices:
            devices.append(dev)
    tid_of = {label: DEVICE_TID_BASE + i for i, label in enumerate(devices)}
    trace_events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": process_name},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": REQUESTS_TID,
            "args": {"name": "requests"},
        },
    ]
    has_qos = bool(header.get("brownout")) or any(
        e["kind"] == "qos_change" for e in events
    )
    if has_qos:
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": QOS_TID,
                "args": {"name": "qos"},
            }
        )
        # anchor the counter at full quality from t=0
        trace_events.append(_counter("qos level", 0.0, level=0))
    has_batching = bool(header.get("batching")) or any(
        e["kind"] == "batch_formed" for e in events
    )
    if has_batching:
        # anchor the counter so the track exists from t=0
        trace_events.append(_counter("batch size", 0.0, size=0))
    has_domains = bool(header.get("domains")) or any(
        e["kind"] in ("domain_outage", "domain_recovered", "retry_denied")
        for e in events
    )
    domains_down = 0
    if has_domains:
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": DOMAINS_TID,
                "args": {"name": "domains"},
            }
        )
        # anchor the breaker counter at all-closed from t=0
        trace_events.append(_counter("domains down", 0.0, down=0))
    for label, tid in tid_of.items():
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": label},
            }
        )

    # first pass: attempt intervals (first slice -> attempt_finish)
    dispatches: dict = {}  # attempt -> its first dispatch slice
    finishes: dict = {}    # attempt -> attempt_finish event
    for e in events:
        if e["kind"] in ("dispatch", "batch_dispatch"):
            dispatches.setdefault(e["attempt"], e)
        elif e["kind"] == "attempt_finish":
            finishes[e["attempt"]] = e

    flow_id = 0
    last_depth = None
    for e in events:
        kind, t = e["kind"], e["t"]
        depth = e.get("queue_depth")
        if depth is not None and depth != last_depth:
            trace_events.append(_counter("queue depth", t, depth=depth))
            last_depth = depth
        if kind in ("dispatch", "batch_dispatch"):
            attempt = e["attempt"]
            tid = tid_of[e["device"]]
            attrs = e.get("attrs", {})
            dkind = attrs.get("kind", "primary")
            if dispatches[attempt] is e:
                # the attempt's first slice draws it: a batch's members
                # share one slice on the device
                finish = finishes.get(attempt)
                end_t = finish["t"] if finish is not None else t
                args = {
                    "attempt": attempt,
                    "outcome": (finish or {}).get("attrs", {}).get("outcome"),
                }
                if kind == "dispatch":
                    name = dkind
                    args["request"] = e.get("request")
                    args["slack"] = e.get("slack")
                    keys = ("model", "scene", "warm", "qos")
                else:
                    name = "%s x%s" % (
                        "hedge" if dkind == "hedge" else "batch",
                        attrs.get("size"),
                    )
                    args["batch"] = attrs.get("batch")
                    args["size"] = attrs.get("size")
                    keys = ("model", "warm", "qos")
                for key in keys:
                    if key in attrs:
                        args[key] = attrs[key]
                trace_events.append(
                    {
                        "name": name,
                        "cat": "attempt",
                        "ph": "X",
                        "pid": 1,
                        "tid": tid,
                        "ts": _us(t),
                        "dur": round(_us(end_t) - _us(t), 3),
                        "args": args,
                    }
                )
            if kind == "dispatch" and "warm" in attrs:
                trace_events.append(
                    {
                        "name": "mapcache:%s"
                        % ("warm" if attrs["warm"] else "cold"),
                        "cat": "mapcache",
                        "ph": "i",
                        "s": "t",
                        "pid": 1,
                        "tid": tid,
                        "ts": _us(t),
                    }
                )
            parent = attrs.get("parent")
            if parent is not None and parent in dispatches:
                parent_tid = tid_of[dispatches[parent]["device"]]
                parent_finish = finishes.get(parent)
                # a retry's parent already finished (arrow leaves the
                # end of the failed slice); a hedge's parent is still
                # running (arrow leaves at the fork instant)
                s_t = (
                    parent_finish["t"]
                    if parent_finish is not None and parent_finish["t"] <= t
                    else t
                )
                flow_id += 1
                common = {
                    "cat": dkind,
                    "name": dkind,
                    "id": flow_id,
                    "pid": 1,
                }
                trace_events.append(
                    {**common, "ph": "s", "tid": parent_tid, "ts": _us(s_t)}
                )
                trace_events.append(
                    {**common, "ph": "f", "bp": "e", "tid": tid, "ts": _us(t)}
                )
        elif kind == "batch_formed":
            attrs = e.get("attrs", {})
            trace_events.append(
                {
                    "name": "batch_formed:%s" % attrs.get("reason"),
                    "cat": "batch",
                    "ph": "i",
                    "s": "t",
                    "pid": 1,
                    "tid": tid_of[e["device"]],
                    "ts": _us(t),
                    "args": {
                        "batch": attrs.get("batch"),
                        "size": attrs.get("size"),
                        "members": attrs.get("members"),
                        "reason": attrs.get("reason"),
                        "held": attrs.get("held"),
                    },
                }
            )
            trace_events.append(
                _counter("batch size", t, size=attrs.get("size"))
            )
        elif kind in ("quarantine", "readmit", "device_dead"):
            trace_events.append(
                {
                    "name": kind,
                    "cat": "health",
                    "ph": "i",
                    "s": "t",
                    "pid": 1,
                    "tid": tid_of[e["device"]],
                    "ts": _us(t),
                }
            )
        elif kind == "terminal":
            attrs = e.get("attrs", {})
            args = {"request": e.get("request")}
            for key in ("reason", "error", "latency"):
                if key in attrs:
                    args[key] = attrs[key]
            trace_events.append(
                {
                    "name": attrs.get("state", "terminal"),
                    "cat": "terminal",
                    "ph": "i",
                    "s": "t",
                    "pid": 1,
                    "tid": REQUESTS_TID,
                    "ts": _us(t),
                    "args": args,
                }
            )
        elif kind == "qos_change":
            attrs = e.get("attrs", {})
            trace_events.append(
                {
                    "name": attrs.get("rung", "qos"),
                    "cat": "qos",
                    "ph": "i",
                    "s": "p",
                    "pid": 1,
                    "tid": QOS_TID,
                    "ts": _us(t),
                    "args": {
                        "level": attrs.get("level"),
                        "direction": attrs.get("direction"),
                        "burn": attrs.get("burn"),
                    },
                }
            )
            trace_events.append(
                _counter("qos level", t, level=attrs.get("level"))
            )
        elif kind == "hedge_skip":
            trace_events.append(
                {
                    "name": "hedge_skip",
                    "cat": "hedge",
                    "ph": "i",
                    "s": "t",
                    "pid": 1,
                    "tid": REQUESTS_TID,
                    "ts": _us(t),
                    "args": {
                        "request": e.get("request"),
                        "reason": e.get("attrs", {}).get("reason"),
                    },
                }
            )
        elif kind in ("domain_outage", "domain_recovered"):
            attrs = e.get("attrs", {})
            domains_down += 1 if kind == "domain_outage" else -1
            trace_events.append(
                {
                    "name": f"{kind}:{attrs.get('domain')}",
                    "cat": "domain",
                    "ph": "i",
                    "s": "p",
                    "pid": 1,
                    "tid": DOMAINS_TID,
                    "ts": _us(t),
                    "args": {
                        "domain": attrs.get("domain"),
                        "swept": attrs.get("swept"),
                    },
                }
            )
            trace_events.append(_counter("domains down", t, down=domains_down))
        elif kind == "retry_denied":
            trace_events.append(
                {
                    "name": "retry_denied",
                    "cat": "storm",
                    "ph": "i",
                    "s": "t",
                    "pid": 1,
                    "tid": DOMAINS_TID,
                    "ts": _us(t),
                    "args": {
                        "request": e.get("request"),
                        "reason": e.get("attrs", {}).get("reason"),
                    },
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def flow_events(trace: dict) -> list:
    """The flow (``s``/``f``) events of a serve trace."""
    return [e for e in trace["traceEvents"] if e["ph"] in ("s", "f")]


def attempt_events(trace: dict) -> list:
    """The attempt ``X`` slices of a serve trace."""
    return [
        e
        for e in trace["traceEvents"]
        if e["ph"] == "X" and e.get("cat") == "attempt"
    ]


def write_serve_trace(
    header: dict, events: list, path: str, **kwargs
) -> None:
    """Serialize :func:`to_serve_trace` to a JSON file (deterministic:
    sorted keys, compact separators)."""
    with open(path, "w") as f:
        json.dump(
            to_serve_trace(header, events, **kwargs),
            f,
            sort_keys=True,
            separators=(",", ":"),
        )
