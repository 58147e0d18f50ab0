"""Bounded admission queue with backpressure and load shedding.

Two shedding rules, both reported to the ``on_shed`` observer (the
serve loop journals each as a ``shed`` terminal with its reason):

* **reject-on-full** — an arrival finding the queue at capacity is shed
  immediately (after first evicting any already-expired entries to make
  room, so a burst doesn't reject live requests while dead ones hold
  slots);
* **oldest-first expiry** — whenever the queue is inspected, entries
  whose deadline has passed are shed front-to-back before anything is
  dispatched; a request that cannot possibly meet its SLO must not
  occupy a device.
"""

from __future__ import annotations

from collections import deque

from repro.serve.request import QUEUED, SHED, Request


class AdmissionQueue:
    """FIFO of admitted-but-not-yet-dispatched requests.

    ``on_shed`` is an optional observer called as
    ``on_shed(request, reason, now)`` *after* a request is shed — the
    server's flight recorder hooks in here so queue-internal terminal
    transitions (``queue_full``, ``expired``) reach the event journal
    without the queue knowing about journals.
    """

    def __init__(self, capacity: int, on_shed=None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.on_shed = on_shed
        self._q: deque = deque()

    def __len__(self) -> int:
        return len(self._q)

    def _shed(self, req: Request, reason: str, now: float) -> None:
        req.resolve(SHED)
        if self.on_shed is not None:
            self.on_shed(req, reason, now)

    def shed_expired(self, now: float) -> list:
        """Drop queued requests past their deadline, oldest first."""
        if not any(req.deadline <= now for req in self._q):
            return []
        kept: deque = deque()
        dropped = []
        while self._q:
            req = self._q.popleft()
            if req.deadline <= now:
                self._shed(req, "expired", now)
                dropped.append(req)
            else:
                kept.append(req)
        self._q = kept
        return dropped

    def offer(self, req: Request, now: float) -> bool:
        """Admit ``req`` or shed it (reject-on-full); True if admitted."""
        if req.state != QUEUED:
            raise ValueError(
                f"request {req.id} is {req.state!r}, cannot enqueue"
            )
        if len(self._q) >= self.capacity:
            self.shed_expired(now)
        if len(self._q) >= self.capacity:
            self._shed(req, "queue_full", now)
            return False
        self._q.append(req)
        return True

    def pop(self, now: float) -> Request | None:
        """Next live request (expired entries are shed on the way)."""
        self.shed_expired(now)
        return self._q.popleft() if self._q else None

    def peek(self, now: float) -> Request | None:
        """The request ``pop`` would return, without removing it."""
        self.shed_expired(now)
        return self._q[0] if self._q else None

    def take_matching(self, predicate, limit: int, now: float) -> list:
        """Remove up to ``limit`` queued requests accepted by
        ``predicate``, scanning front to back.

        The batching scheduler's coalescing primitive: expired entries
        are shed first (batch formation must not bypass the queue's
        shedding rules), then live entries are offered to ``predicate``
        oldest-first; rejected entries keep their relative FIFO order.
        ``predicate`` may be stateful — the scheduler's deadline-fit
        closure tightens as the batch it is building grows.  It is not
        called once ``limit`` requests are taken.  The queue is scanned
        in place; only when something was taken is the scanned prefix
        replaced by its rejects.
        """
        self.shed_expired(now)
        taken: list = []
        kept: list = []
        for req in self._q:
            if len(taken) >= limit:
                break
            if predicate(req):
                taken.append(req)
            else:
                kept.append(req)
        if taken:
            for _ in taken:
                self._q.popleft()
            for _ in kept:
                self._q.popleft()
            if kept:
                self._q.extendleft(reversed(kept))
        return taken

    def drain(self) -> list:
        """Remove and return everything still queued (campaign teardown)."""
        out = list(self._q)
        self._q.clear()
        return out
