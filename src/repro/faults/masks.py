"""Fault plans compiled into per-interval windows for the vector tier.

The event tier turns a :class:`~repro.faults.plan.FaultPlan` into DES
kernel callbacks (:mod:`repro.faults.injector`); at 10^7+ nodes there is
no kernel, so the vector tier compiles the same plan into *windows* —
``[start, end)`` intervals, each tagged with the population effect it
has — and applies them as array masks over the population columns:

* **compute outages** suspend task execution on a victim subset for the
  window (``churn_storm``, ``link_down``, ``backend_crash``, and
  ``link_flap`` expanded into its down phases);
* **recruitment blackouts** defer wakeups that would land inside the
  window (``broadcast_outage``, ``carousel_interrupt`` — which degrades
  to a broadcast outage exactly as it does on carousel-less event-tier
  systems — and ``signature_corruption``, during which PNAs reject the
  wakeup messages);
* **census outages** freeze the self-healing census (``controller_crash``
  — the census reads zero until the window closes, matching the
  availability convention in :mod:`repro.faults.availability`).

Jitter is resolved *at compile time, in plan declaration order*, from
the caller-supplied generator — the same contract the event-tier
injector follows, so a plan compiled twice from the same stream state
yields identical windows.

Adversary kinds (``saboteur`` etc.) model per-result behaviour the
vector tier cannot express with capacity masks; compiling a plan that
contains one raises :class:`~repro.errors.FaultPlanError` so the caller
is pointed at the event tier instead of silently dropping the fault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import FaultPlanError
from repro.faults.plan import ADVERSARY_FAULT_KINDS, FaultPlan

__all__ = [
    "COMPUTE_OUTAGE_KINDS",
    "RECRUITMENT_BLACKOUT_KINDS",
    "CENSUS_OUTAGE_KINDS",
    "FaultWindow",
    "CompiledFaultPlan",
    "compile_fault_plan",
    "storm_victims",
    "deferred_start",
]

#: Kinds whose window suspends task execution on a victim fraction.
COMPUTE_OUTAGE_KINDS = ("churn_storm", "link_down", "backend_crash")
#: Kinds whose window blocks recruitment (wakeups defer past the end).
RECRUITMENT_BLACKOUT_KINDS = (
    "broadcast_outage", "carousel_interrupt", "signature_corruption")
#: Kinds whose window freezes the census (gauges/availability read 0).
CENSUS_OUTAGE_KINDS = ("controller_crash",)


@dataclass(frozen=True)
class FaultWindow:
    """One compiled ``[start, end)`` disturbance interval.

    ``fraction`` is the share of the eligible population the window
    removes (compute outages; 1.0 for whole-fleet effects), already
    resolved from the plan event's kind-specific ``magnitude``
    convention.  ``end`` is ``inf`` for permanent faults
    (``duration_s == 0``).
    """

    kind: str
    start: float
    end: float
    fraction: float = 1.0
    target: str = ""
    event_id: str = ""

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise FaultPlanError(
                f"fault window must have end > start, got "
                f"[{self.start}, {self.end})")

    def overlaps(self, start: float, end: float) -> bool:
        """Does the window intersect ``[start, end)``?"""
        return self.start < end and start < self.end


class CompiledFaultPlan:
    """A fault plan lowered to windows, grouped by population effect."""

    def __init__(self, windows: Tuple[FaultWindow, ...],
                 name: str = "") -> None:
        self.name = name
        self.windows = tuple(sorted(windows, key=lambda w: w.start))

    def __len__(self) -> int:
        return len(self.windows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CompiledFaultPlan {self.name!r} windows={len(self)}>"

    def _kinds(self, kinds) -> List[FaultWindow]:
        return [w for w in self.windows if w.kind in kinds]

    def compute_outages(self) -> List[FaultWindow]:
        return self._kinds(COMPUTE_OUTAGE_KINDS)

    def recruitment_blackouts(self) -> List[FaultWindow]:
        return self._kinds(RECRUITMENT_BLACKOUT_KINDS)

    def census_outages(self) -> List[FaultWindow]:
        return self._kinds(CENSUS_OUTAGE_KINDS)


def _window_end(start: float, duration_s: float) -> float:
    return start + duration_s if duration_s > 0 else math.inf


def compile_fault_plan(plan: FaultPlan,
                       rng: np.random.Generator) -> CompiledFaultPlan:
    """Lower ``plan`` into a :class:`CompiledFaultPlan`.

    ``rng`` supplies the jitter draws (one ``uniform(0, jitter)`` per
    jittered event, consumed in declaration order — mirror of the
    event-tier injector's resolution rule, normally the population's
    ``"vector.faults"`` stream).
    """
    windows: List[FaultWindow] = []
    for event in plan.events:
        if event.kind in ADVERSARY_FAULT_KINDS:
            raise FaultPlanError(
                f"fault kind {event.kind!r} models per-result adversarial "
                "behaviour the vector tier cannot express as a capacity "
                "mask; run adversary plans on the event tier")
        start = event.time
        if event.jitter_s > 0:
            start += float(rng.uniform(0.0, event.jitter_s))
        kind = event.kind
        if kind == "link_flap":
            # int(magnitude) down/up cycles, each phase duration_s long:
            # expand into one link_down window per down phase.
            cycles = max(1, int(event.magnitude))
            phase = event.duration_s if event.duration_s > 0 else 1.0
            for cycle in range(cycles):
                down = start + 2 * cycle * phase
                windows.append(FaultWindow(
                    kind="link_down", start=down, end=down + phase,
                    fraction=1.0, target=event.target,
                    event_id=event.event_id))
            continue
        if kind == "carousel_interrupt":
            # No carousel object at this tier: degrade to a broadcast
            # outage of duration_s, the documented fallback.
            windows.append(FaultWindow(
                kind="broadcast_outage", start=start,
                end=_window_end(start, event.duration_s),
                target=event.target, event_id=event.event_id))
            continue
        if kind == "churn_storm":
            fraction = event.magnitude
        elif kind == "link_down":
            # magnitude 0 partitions every link.
            fraction = event.magnitude if event.magnitude > 0 else 1.0
        else:
            fraction = 1.0
        windows.append(FaultWindow(
            kind=kind, start=start, end=_window_end(start, event.duration_s),
            fraction=fraction, target=event.target,
            event_id=event.event_id))
    return CompiledFaultPlan(tuple(windows), name=plan.name)


#: numpy's ``Generator.choice(size, k, replace=False)`` runs a tail
#: shuffle of an int64 ``arange(size)`` when ``size`` exceeds this and
#: ``k > size // _CHOICE_TAIL_DIVISOR``, and Floyd's O(k) algorithm
#: otherwise.
_CHOICE_TAIL_MIN_SIZE = 10_000
_CHOICE_TAIL_DIVISOR = 50
#: Steps drawn, and sorted keys resolved, per pass of
#: :func:`_tail_shuffle_victims`.
_CHUNK = 1 << 14


def storm_victims(rng: np.random.Generator, size: int,
                  fraction: float) -> np.ndarray:
    """Boolean victim mask over a cohort of ``size`` nodes.

    Victim count follows the event-tier injector's rule — ``k = max(1,
    round(fraction * size))`` chosen without replacement — so the two
    tiers remove statistically identical capacity.  A fraction >= 1
    short-circuits to "everyone" without consuming a draw (whole-fleet
    outages such as ``backend_crash``).  The victims and the stream are
    ``rng.choice(size, k, replace=False)``'s; where ``choice`` would
    shuffle the whole cohort, :func:`_tail_shuffle_victims` resolves the
    same draws without that permutation.
    """
    if size <= 0:
        return np.zeros(0, dtype=bool)
    if fraction >= 1.0:
        return np.ones(size, dtype=bool)
    size = int(size)
    k = min(size, max(1, int(round(fraction * size))))
    # The tail resolution packs ``j << b | u`` into int64 keys (which
    # also keeps ``k`` below 2**31 for its int32 roots); ``k == size``
    # stops numpy's shuffle one step short.
    if (size <= _CHOICE_TAIL_MIN_SIZE or k <= size // _CHOICE_TAIL_DIVISOR
            or k == size or size.bit_length() + k.bit_length() > 63):
        mask = np.zeros(size, dtype=bool)
        mask[rng.choice(size, size=k, replace=False)] = True
        return mask
    return _tail_shuffle_victims(rng, size, k)


def _tail_shuffle_victims(rng: np.random.Generator, size: int,
                          k: int) -> np.ndarray:
    """The victims of ``choice``'s tail shuffle, from the same draws,
    with no cohort-sized array but the mask.

    The shuffle's step ``s`` (0 to ``k - 1``) swaps position
    ``size - 1 - s`` with ``j_s``, a bounded draw in ``[0, size - 1 -
    s]``, and the last ``k`` positions are the victims.  Call position
    ``size - k + u`` tail slot ``u``: step ``s`` swaps slot ``u = k - 1 -
    s`` and no later step touches it.  So:

    * a head position (below ``size - k``) that any step reads is a
      victim, and the value its latest read leaves there is not;
    * that value is what the reading step's slot held just before: the
      slot's own value, unless an earlier step (a larger ``u``) read the
      slot, in which case it is what *that* step's slot held, and so on
      up to a slot that no earlier step read (the chain's root).

    The draws, taken as ``integers(0, bounds, endpoint=True)`` (the
    same bounded draws from the same 32-bit halves), are sorted as keys
    ``j << b | u``: each position's reads, latest first.  Scratch: the
    keys (8 B per victim), the roots (4 B) and ``_CHUNK``-row buffers.
    """
    head = size - k
    b = k.bit_length()
    low = (1 << b) - 1
    mask = np.zeros(size, dtype=bool)
    tail = mask[head:]
    keys = np.empty(k, dtype=np.int64)
    bounds = np.arange(size - 1, size - 1 - min(k, _CHUNK), -1,
                       dtype=np.int64)
    slots = bounds - head
    for lo in range(0, k, _CHUNK):
        n = min(_CHUNK, k - lo)
        draws = rng.integers(0, bounds[:n], endpoint=True)
        # A slot whose step reads the head leaves its value there.
        np.greater_equal(draws, head, out=tail[::-1][lo:lo + n])
        out = keys[lo:lo + n]
        np.left_shift(draws, b, out=out)
        out |= slots[:n]
        bounds -= _CHUNK
        slots -= _CHUNK
    del bounds, slots, draws
    keys.sort()
    split = int(np.searchsorted(keys, head << b))
    # Each pass also reads the key before it, to tell which of its keys
    # is its position's latest read.  A head read that is not leaves a
    # value a later read takes.
    for lo in range(0, split, _CHUNK):
        n = min(_CHUNK, split - lo)
        run = keys[max(lo - 1, 0):lo + n]
        pos = run >> b
        mask[pos] = True
        again = np.zeros(n, dtype=bool)
        np.equal(pos[1:], pos[:-1], out=again[n + 1 - pos.size:])
        tail[run[-n:].compress(again) & low] = True
    # Tail reads, highest slot first, so a reader's slot above this
    # pass already holds its root.  A slot whose latest reader is its
    # own step is neither a head read's slot nor a reader: its root
    # stays its own.
    root = np.arange(k, dtype=np.int32)
    for hi in range(k, split, -_CHUNK):
        n = min(_CHUNK, hi - split)
        run = keys[max(hi - n - 1, 0):hi]
        slot = run >> b
        slot -= head
        latest = np.ones(n, dtype=bool)
        np.not_equal(slot[1:], slot[:-1], out=latest[n + 1 - slot.size:])
        q = slot[-n:].compress(latest)
        r = root[run[-n:].compress(latest) & low]
        root[q] = r
        # Roots read from this pass's own slots: jump until final.
        todo = np.flatnonzero(r <= slot[-1])
        while todo.size:
            rr = root[r[todo]]
            moved = rr != r[todo]
            r[todo] = rr
            root[q[todo]] = rr
            todo = todo[moved]
        # The value a head read left came from its slot's root.
        placed = ~tail[q]
        tail[q.compress(placed)] = True
        tail[r.compress(placed)] = False
    return mask


def deferred_start(t: float,
                   blackouts: List[FaultWindow]) -> float:
    """Earliest instant >= ``t`` outside every recruitment blackout.

    Mirrors the event tier's deferred-wakeup semantics: a wakeup that
    would land inside an outage waits for the window to close (chained
    windows defer transitively).
    """
    moved = True
    while moved:
        moved = False
        for window in blackouts:
            if window.start <= t < window.end:
                if not math.isfinite(window.end):
                    raise FaultPlanError(
                        f"recruitment is blocked forever by permanent "
                        f"{window.kind!r} window starting at "
                        f"{window.start}")
                t = window.end
                moved = True
    return t

