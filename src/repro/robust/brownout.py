"""Load-adaptive brownout: a hysteresis controller over the QoS ladder.

A production fleet under overload has three choices: shed requests,
miss deadlines, or serve *degraded but on time*.  The brownout
controller implements the third: it watches the serving loop's windowed
load signals — admission-queue depth and the error-budget burn rate of
the SLO monitor (PR 6's ``windowed_slo`` math) — and steps the fleet's
quality-of-service level up and down the
:class:`~repro.robust.degrade.QoSLadder` (INT8 compute, coarser
voxelization).  Every step is cheaper to serve, so the queue drains
faster and deadline misses fall, at an explicit, reported quality cost.

Hysteresis, not a thermostat: the controller uses *separate* enter and
exit thresholds (``enter_depth > exit_depth``, ``enter_burn >
exit_burn``) and a *dwell time* — after any level change it refuses to
move again until ``dwell`` sim-seconds have passed.  Together these
guarantee the ladder never flaps: an enter→exit→enter sequence inside
one dwell window is structurally impossible, and a load level sitting
between the enter and exit thresholds holds the current rung.

The controller is a pure state machine over explicit signals — no
clocks, no RNG, no references into the server — so the same tick
sequence always produces the same level trajectory (the serve loop's
bit-for-bit reproducibility extends through brownout), and it unit-
tests without a fleet.

Kept deliberately separate from the *fault* ladder
(:class:`~repro.robust.degrade.DegradationLadder`): breakers pin fault
rungs per layer on detected faults; brownout steps quality rungs
fleet-wide on load.  They own disjoint state and compose in a fixed
order (quality chooses the base configuration, fault recovery degrades
from it), so the two control loops cannot fight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.robust.degrade import QoSLadder


@dataclass(frozen=True)
class BrownoutConfig:
    """Knobs of the load-adaptive QoS controller.

    Attributes:
        ladder: the quality rungs the controller steps through.
        interval: controller tick period in sim seconds — also the
            width of the signal window the miss rate is computed over.
            ``None`` resolves (in the server) to the campaign's SLO
            window when one is configured, else 8x the traffic mix's
            mean base latency.
        enter_depth: queue depth at or above which a tick engages the
            next deeper rung.
        exit_depth: queue depth at or below which (burn permitting) a
            tick steps back toward full quality.  Must be strictly
            below ``enter_depth`` (the hysteresis band).
        enter_burn: windowed error-budget burn rate (miss rate over
            ``1 - slo_target``) at or above which a tick engages the
            next rung; 1.0 = burning budget exactly as fast as the SLO
            allows.
        exit_burn: burn rate at or below which (depth permitting) a
            tick steps back up.  Must be strictly below ``enter_burn``.
        dwell: minimum sim seconds between level changes.  ``None``
            resolves to 4x the tick interval.
        max_level: deepest level the controller may engage (``None`` =
            the ladder floor).
    """

    ladder: QoSLadder = field(default_factory=QoSLadder)
    interval: float | None = None
    enter_depth: int = 16
    exit_depth: int = 2
    enter_burn: float = 1.0
    exit_burn: float = 0.25
    dwell: float | None = None
    max_level: int | None = None

    def __post_init__(self) -> None:
        if self.interval is not None and self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.dwell is not None and self.dwell <= 0:
            raise ValueError("dwell must be positive")
        if self.exit_depth < 0 or self.enter_depth <= self.exit_depth:
            raise ValueError(
                "need enter_depth > exit_depth >= 0 (the hysteresis band)"
            )
        if self.exit_burn < 0 or self.enter_burn <= self.exit_burn:
            raise ValueError(
                "need enter_burn > exit_burn >= 0 (the hysteresis band)"
            )
        if self.max_level is not None and not (
            0 <= self.max_level <= self.ladder.floor
        ):
            raise ValueError(
                f"max_level must be in [0, {self.ladder.floor}]"
            )

    @property
    def ceiling(self) -> int:
        """Deepest engageable level."""
        return self.ladder.floor if self.max_level is None else self.max_level


class BrownoutController:
    """The hysteresis state machine stepping the fleet's QoS level.

    One :meth:`observe` call per controller tick: the caller supplies
    the instantaneous queue depth and the window's terminal tallies
    (requests finished, requests that missed — late, failed, or shed).
    The controller answers with a change record when it moved, ``None``
    when it held.

    Args:
        config: thresholds and the ladder.
        target: the SLO objective the burn rate is measured against
            (``0.99`` = 1% error budget).
        dwell: resolved dwell time in sim seconds (the server resolves
            ``config.dwell=None`` against the tick interval before
            constructing the controller).
    """

    def __init__(
        self, config: BrownoutConfig, *, target: float = 0.99, dwell: float
    ) -> None:
        if not 0.0 < target < 1.0:
            raise ValueError("target must be in (0, 1)")
        if dwell <= 0:
            raise ValueError("dwell must be positive")
        self.config = config
        self.target = target
        self.dwell = dwell
        #: current QoS level (0 = full quality)
        self.level = 0
        #: sim time of the most recent level change (None before any)
        self.last_change: float | None = None

    @property
    def rung(self) -> str:
        """Display name of the current level."""
        return self.config.ladder.rung_name(self.level)

    def burn_rate(self, misses: int, finished: int) -> float:
        """Windowed error-budget burn: miss rate over ``1 - target``."""
        if finished <= 0:
            return 0.0
        return (misses / finished) / (1.0 - self.target)

    def observe(
        self, now: float, *, queue_depth: int, misses: int, finished: int
    ) -> dict | None:
        """One controller tick; returns the change record or ``None``.

        The decision rule, in order:

        1. inside the dwell window after a change — hold;
        2. overloaded (depth **or** burn at/above its enter threshold)
           and below the ceiling — step one rung deeper;
        3. recovered (depth **and** burn at/below its exit threshold)
           and above full quality — step one rung back up;
        4. otherwise (between the thresholds) — hold.
        """
        cfg = self.config
        if (
            self.last_change is not None
            and now - self.last_change < self.dwell
        ):
            return None
        burn = self.burn_rate(misses, finished)
        overloaded = (
            queue_depth >= cfg.enter_depth or burn >= cfg.enter_burn
        )
        recovered = (
            queue_depth <= cfg.exit_depth and burn <= cfg.exit_burn
        )
        if overloaded and self.level < cfg.ceiling:
            direction, new = "down", self.level + 1  # quality goes down
        elif recovered and self.level > 0:
            direction, new = "up", self.level - 1
        else:
            return None
        self.level = new
        self.last_change = now
        return {
            "t": float(now),
            "level": new,
            "rung": cfg.ladder.rung_name(new),
            "direction": direction,
            "queue_depth": int(queue_depth),
            "burn": burn,
        }
