"""Columnar census engine: interned node ids + struct-of-arrays state.

The paper's requirement I ("hundreds of millions of processing
resources") makes the Controller's census the scaling frontier of the
event tier: consolidating a heartbeat cohort payload-by-payload into
string-keyed dicts costs several dict operations *per node per beat*.
Like BOINC's server-side host tables and Condor's collector, census
state at 10^5-10^6 agents wants dense integer keys and columnar
updates.

This module provides that engine in two interchangeable builds:

:class:`ColumnarCensusStore`
    Struct-of-arrays over numpy: ``last_seen`` (float64), ``state``
    (int8 code), ``instance`` (int64 handle) columns indexed by the
    dense node index a shared :class:`NodeInterner` assigns, plus one
    membership column (float64 last-heartbeat, NaN = non-member) per
    *bound* instance and a per-node membership counter that serves as
    the reverse ``node -> instances`` index.  A same-instant heartbeat
    cohort lands as one columnar write per (state, instance) group
    (``last_seen[idxs] = now``) instead of N dict updates, and expiry
    is a single vectorised comparison per instance.

:class:`DictCensusStore`
    The dict-backed reference engine, behaviour-identical by
    construction simple enough to eyeball.  It is both the
    differential-test oracle: ``tests/core/test_census_store.py``
    drives randomized heartbeat/trim/expire/crash sequences through
    both builds and requires identical censuses, and tests hand it to
    a Controller through its ``census`` argument.

Both stores expose the same interface; the Controller builds a
:class:`ColumnarCensusStore` unless it is given a store.
:class:`RegistryView` and :class:`MembersView` wrap a store
in the dict shape the pre-columnar ``Controller.registry`` /
``InstanceRecord.members`` exposed, so observable behaviour — and the
``--jobs`` byte-parity of every artifact — is unchanged.

Shape discipline
----------------
There is no mypy in the toolchain, so numpy boundaries are guarded by
assertion-based checks instead: :meth:`ColumnarCensusStore.validate`
recomputes every derived count from the raw arrays and asserts dtypes,
shapes and cross-array consistency.  ``python -m repro.core.census``
runs a seeded differential fuzz with per-step validation (wired into
CI).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.messages import PNAState

__all__ = [
    "STATE_NONE",
    "STATE_IDLE",
    "STATE_BUSY",
    "NO_INSTANCE",
    "STATE_CODE",
    "CODE_STATE",
    "NodeInterner",
    "CensusStore",
    "ColumnarCensusStore",
    "DictCensusStore",
    "RegistryView",
    "MembersView",
    "registry_reductions",
]

#: Registry state codes (int8 column values).
STATE_NONE = 0   # never heard from (not in the registry)
STATE_IDLE = 1
STATE_BUSY = 2

#: Instance-handle sentinel for "no instance" (idle heartbeats).
NO_INSTANCE = -1

#: PNAState <-> registry state code.
STATE_CODE = {PNAState.IDLE: STATE_IDLE, PNAState.BUSY: STATE_BUSY}
CODE_STATE = {STATE_IDLE: PNAState.IDLE, STATE_BUSY: PNAState.BUSY}

#: ``last_seen`` value for untouched registry rows (compares below any
#: finite horizon, exactly like an absent dict entry).
_NEVER = float("-inf")


def registry_reductions(state, seen, *, horizon: float) -> Dict[str, int]:
    """Census gauge values from raw state/seen columns, in one pass.

    The reduction semantics shared by the Controller's gauge refresh and
    the vector tier's :class:`~repro.vector.census.VectorCensus`:
    ``registry_size`` counts every row ever heard from, ``alive`` the
    rows seen at or after ``horizon`` (untouched rows sit at ``-inf``
    and fail any finite horizon), and ``idle`` the alive rows reporting
    IDLE — exactly :meth:`CensusStore.registry_size` /
    :meth:`CensusStore.alive_estimate` / :meth:`CensusStore.idle_estimate`
    evaluated on the same columns.
    """
    state = np.asarray(state)
    seen = np.asarray(seen)
    alive = seen >= horizon
    return {
        "registry_size": int(np.count_nonzero(state != STATE_NONE)),
        "idle": int(np.count_nonzero(alive & (state == STATE_IDLE))),
        "alive": int(np.count_nonzero(alive)),
    }


class NodeInterner:
    """Dense string node-id <-> int index table, append-only.

    Shared by the Router (which interns every registered PNA), the
    heartbeat cohorts (which cache each member's index so a cohort tick
    ships index arrays alongside the payloads) and the census stores.
    Indices are stable for the process lifetime: a churned node that
    re-registers under the same id keeps its index, so census columns
    never need compaction.
    """

    __slots__ = ("_index", "_ids")

    def __init__(self) -> None:
        self._index: Dict[str, int] = {}
        self._ids: List[str] = []

    def intern(self, node_id: str) -> int:
        """The node's dense index, assigning the next one if new."""
        idx = self._index.get(node_id)
        if idx is None:
            idx = len(self._ids)
            self._index[node_id] = idx
            self._ids.append(node_id)
        return idx

    def intern_block(self, node_ids: List[str]) -> int:
        """Intern new, distinct ids as one contiguous index range;
        returns its first index."""
        lo = len(self._ids)
        if not self._index.keys().isdisjoint(node_ids) \
                or len(set(node_ids)) != len(node_ids):
            raise ValueError("a block's node ids must be new and distinct")
        self._index.update(zip(node_ids, range(lo, lo + len(node_ids))))
        self._ids.extend(node_ids)
        return lo

    def index_of(self, node_id: str) -> Optional[int]:
        """The node's index, or ``None`` if it was never interned."""
        return self._index.get(node_id)

    def id_of(self, idx: int) -> str:
        return self._ids[idx]

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._index

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<NodeInterner {len(self._ids)} ids>"


class CensusStore:
    """Interface + instance-handle table shared by both engines.

    The *registry* half mirrors the old ``pna_id -> (last_seen, state,
    instance_id)`` dict; the *membership* half mirrors the old
    per-instance ``pna_id -> last_heartbeat`` dicts.  Instance ids are
    interned to small int handles; only instances explicitly *bound*
    (:meth:`bind_instance`) carry membership state — the registry also
    interns ids of unknown/stale instances named by busy heartbeats.
    """

    #: True when :meth:`touch_group` / :meth:`mark_members` /
    #: :meth:`drop_many_from_all` are genuinely vectorised (the
    #: Controller's cohort fast path keys off this).
    supports_columnar = False

    def __init__(self, interner: Optional[NodeInterner] = None) -> None:
        self.interner = interner if interner is not None else NodeInterner()
        self._inst_index: Dict[str, int] = {}
        self._inst_ids: List[str] = []

    # -- instance handles ------------------------------------------------
    def instance_handle(self, instance_id: Optional[str]) -> int:
        """Intern an instance id (``None`` -> :data:`NO_INSTANCE`)."""
        if instance_id is None:
            return NO_INSTANCE
        handle = self._inst_index.get(instance_id)
        if handle is None:
            handle = len(self._inst_ids)
            self._inst_index[instance_id] = handle
            self._inst_ids.append(instance_id)
        return handle

    def instance_id_of(self, handle: int) -> Optional[str]:
        return None if handle == NO_INSTANCE else self._inst_ids[handle]

    # -- interface (implemented by both engines) -------------------------
    def touch(self, idx: int, state: PNAState,
              instance_id: Optional[str], now: float) -> None:
        """One heartbeat's registry write."""
        raise NotImplementedError

    def touch_group(self, idxs: Any, code: int,
                    instance_id: Optional[str], now: float) -> None:
        """Registry write for one (state, instance) cohort group.

        ``idxs`` must be duplicate-free (the Controller's cohort path
        guarantees this; its duplicate guard falls back to the
        per-payload path otherwise)."""
        raise NotImplementedError

    def registry_size(self) -> int:
        raise NotImplementedError

    def idle_estimate(self, horizon: float) -> int:
        """Idle nodes heard from at or after ``horizon``."""
        raise NotImplementedError

    def alive_estimate(self, horizon: float) -> int:
        raise NotImplementedError

    def registry_get(self, node_id: str
                     ) -> Optional[Tuple[float, PNAState, Optional[str]]]:
        raise NotImplementedError

    def registry_set(self, node_id: str, seen: float, state: PNAState,
                     instance_id: Optional[str]) -> None:
        """Out-of-band registry write (digest application, tests)."""
        raise NotImplementedError

    def registry_items(self
                       ) -> Iterator[Tuple[str, Tuple[float, PNAState,
                                                      Optional[str]]]]:
        raise NotImplementedError

    def clear_registry(self) -> None:
        raise NotImplementedError

    def bind_instance(self, instance_id: str) -> int:
        """Allocate (idempotently) membership state for an instance."""
        raise NotImplementedError

    def release_instance(self, instance_id: str) -> None:
        """Free a destroyed instance's membership column (must be empty
        of members only by convention — releasing drops any stragglers)."""
        raise NotImplementedError

    def mark_member(self, handle: int, idx: int, now: float) -> None:
        raise NotImplementedError

    def mark_members(self, handle: int, idxs: Any, now: float) -> None:
        """Columnar membership refresh for a duplicate-free cohort group."""
        raise NotImplementedError

    def drop_member(self, handle: int, idx: int) -> bool:
        raise NotImplementedError

    def drop_from_all(self, idx: int) -> None:
        """Idle heartbeat: leave every instance (reverse-index guarded:
        O(1) for the common member-of-nothing node)."""
        raise NotImplementedError

    def drop_many_from_all(self, idxs: Any) -> None:
        raise NotImplementedError

    def expire_members(self, handle: int, cutoff: float) -> int:
        """Drop members whose last heartbeat predates ``cutoff``."""
        raise NotImplementedError

    def member_count(self, handle: int) -> int:
        raise NotImplementedError

    def member_seen(self, handle: int, idx: int) -> Optional[float]:
        raise NotImplementedError

    def members_items(self, handle: int) -> Iterator[Tuple[str, float]]:
        raise NotImplementedError

    def clear_members(self, handle: int) -> None:
        raise NotImplementedError

    def total_members(self) -> int:
        """Sum of membership counts across bound instances."""
        raise NotImplementedError

    def clear(self) -> None:
        """Crash semantics: registry and all membership vanish (bound
        instances stay bound, empty)."""
        raise NotImplementedError

    # -- differential-test surface ---------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Canonical, order-independent census dump.

        Two stores fed the same operation sequence must produce equal
        snapshots — the contract the differential suite enforces.
        """
        members = {}
        for instance_id, handle in sorted(self._inst_index.items()):
            if self._is_bound(handle):
                members[instance_id] = sorted(self.members_items(handle))
        return {
            "registry": dict(sorted(self.registry_items())),
            "members": members,
        }

    def _is_bound(self, handle: int) -> bool:
        raise NotImplementedError

    def validate(self) -> None:
        """Assertion-based invariant check (no-op where trivially true)."""


class DictCensusStore(CensusStore):
    """Reference engine: the pre-columnar dicts behind the new interface.

    Every operation is the obvious dict transcription of the old
    ``Controller.registry`` / ``InstanceRecord.members`` code paths, so
    this build doubles as an executable specification.  Iteration
    orders follow dict insertion order (the historical behaviour
    standalone :class:`~repro.core.instance.InstanceRecord` tests rely
    on); only the *sorted* :meth:`CensusStore.snapshot` is part of the
    cross-engine contract.
    """

    supports_columnar = False

    def __init__(self, interner: Optional[NodeInterner] = None) -> None:
        super().__init__(interner)
        #: idx -> (seen, state_code, instance_handle)
        self._registry: Dict[int, Tuple[float, int, int]] = {}
        #: instance handle -> {idx: last heartbeat}
        self._members: Dict[int, Dict[int, float]] = {}
        #: reverse index: idx -> number of instances it belongs to
        self._member_of: Dict[int, int] = {}

    # -- registry --------------------------------------------------------
    def touch(self, idx, state, instance_id, now):
        self._registry[idx] = (now, STATE_CODE[state],
                               self.instance_handle(instance_id))

    def touch_group(self, idxs, code, instance_id, now):
        handle = self.instance_handle(instance_id)
        registry = self._registry
        for idx in idxs:
            registry[int(idx)] = (now, code, handle)

    def registry_size(self):
        return len(self._registry)

    def idle_estimate(self, horizon):
        return sum(1 for (seen, code, _h) in self._registry.values()
                   if code == STATE_IDLE and seen >= horizon)

    def alive_estimate(self, horizon):
        return sum(1 for (seen, _code, _h) in self._registry.values()
                   if seen >= horizon)

    def registry_get(self, node_id):
        idx = self.interner.index_of(node_id)
        if idx is None:
            return None
        row = self._registry.get(idx)
        if row is None:
            return None
        seen, code, handle = row
        return (seen, CODE_STATE[code], self.instance_id_of(handle))

    def registry_set(self, node_id, seen, state, instance_id):
        idx = self.interner.intern(node_id)
        self._registry[idx] = (seen, STATE_CODE[state],
                               self.instance_handle(instance_id))

    def registry_items(self):
        id_of = self.interner.id_of
        for idx, (seen, code, handle) in self._registry.items():
            yield id_of(idx), (seen, CODE_STATE[code],
                               self.instance_id_of(handle))

    def clear_registry(self):
        self._registry.clear()

    # -- membership ------------------------------------------------------
    def bind_instance(self, instance_id):
        handle = self.instance_handle(instance_id)
        if handle not in self._members:
            self._members[handle] = {}
        return handle

    def release_instance(self, instance_id):
        handle = self._inst_index.get(instance_id)
        if handle is None:
            return
        members = self._members.pop(handle, None)
        if members:
            for idx in members:
                self._decr_member_of(idx)

    def _is_bound(self, handle):
        return handle in self._members

    def _decr_member_of(self, idx):
        left = self._member_of.get(idx, 0) - 1
        if left > 0:
            self._member_of[idx] = left
        else:
            self._member_of.pop(idx, None)

    def mark_member(self, handle, idx, now):
        members = self._members[handle]
        if idx not in members:
            self._member_of[idx] = self._member_of.get(idx, 0) + 1
        members[idx] = now

    def mark_members(self, handle, idxs, now):
        for idx in idxs:
            self.mark_member(handle, int(idx), now)

    def drop_member(self, handle, idx):
        members = self._members.get(handle)
        if members is None or members.pop(idx, None) is None:
            return False
        self._decr_member_of(idx)
        return True

    def drop_from_all(self, idx):
        if not self._member_of.get(idx, 0):
            return
        for members in self._members.values():
            members.pop(idx, None)
        self._member_of.pop(idx, None)

    def drop_many_from_all(self, idxs):
        for idx in idxs:
            self.drop_from_all(int(idx))

    def expire_members(self, handle, cutoff):
        members = self._members.get(handle)
        if members is None:
            return 0
        stale = [idx for idx, seen in members.items() if seen < cutoff]
        for idx in stale:
            del members[idx]
            self._decr_member_of(idx)
        return len(stale)

    def member_count(self, handle):
        members = self._members.get(handle)
        return 0 if members is None else len(members)

    def member_seen(self, handle, idx):
        members = self._members.get(handle)
        return None if members is None else members.get(idx)

    def members_items(self, handle):
        members = self._members.get(handle)
        if members is None:
            return
        id_of = self.interner.id_of
        for idx, seen in members.items():
            yield id_of(idx), seen

    def clear_members(self, handle):
        members = self._members.get(handle)
        if members is None:
            return
        for idx in members:
            self._decr_member_of(idx)
        members.clear()

    def total_members(self):
        return sum(len(m) for m in self._members.values())

    def clear(self):
        self._registry.clear()
        for members in self._members.values():
            members.clear()
        self._member_of.clear()

    def validate(self):
        recount: Dict[int, int] = {}
        for members in self._members.values():
            for idx in members:
                recount[idx] = recount.get(idx, 0) + 1
        assert recount == self._member_of, \
            f"reverse index drifted: {recount} != {self._member_of}"


class ColumnarCensusStore(CensusStore):
    """Struct-of-arrays census keyed by dense interned node indices.

    Columns grow by doubling as the shared interner grows; membership
    is one float64 column per bound instance (NaN = non-member) with a
    per-node int16 membership counter as the reverse index, so the idle
    path is O(1) for nodes that belong to nothing — which is nearly all
    idle heartbeats — instead of a scan over every instance.
    """

    supports_columnar = True

    def __init__(self, interner: Optional[NodeInterner] = None, *,
                 initial_capacity: int = 1024) -> None:
        super().__init__(interner)
        cap = max(int(initial_capacity), 1)
        self._cap = cap
        self._seen = np.full(cap, _NEVER, dtype=np.float64)
        self._state = np.zeros(cap, dtype=np.int8)
        self._inst = np.full(cap, NO_INSTANCE, dtype=np.int64)
        #: reverse index: per-node count of instances it belongs to.
        self._member_of = np.zeros(cap, dtype=np.int16)
        self._registry_count = 0
        #: instance handle -> float64 membership column (NaN non-member)
        self._member_seen: Dict[int, Any] = {}
        self._member_count: Dict[int, int] = {}

    # -- capacity --------------------------------------------------------
    def _sync(self) -> None:
        """Grow every column to cover the shared interner."""
        need = len(self.interner)
        if need <= self._cap:
            return
        cap = self._cap
        while cap < need:
            cap *= 2
        self._seen = self._grown(self._seen, cap, _NEVER)
        self._state = self._grown(self._state, cap, 0)
        self._inst = self._grown(self._inst, cap, NO_INSTANCE)
        self._member_of = self._grown(self._member_of, cap, 0)
        for handle, column in self._member_seen.items():
            self._member_seen[handle] = self._grown(column, cap, np.nan)
        self._cap = cap

    @staticmethod
    def _grown(array, cap, fill):
        grown = np.full(cap, fill, dtype=array.dtype)
        grown[:array.size] = array
        return grown

    # -- registry --------------------------------------------------------
    def touch(self, idx, state, instance_id, now):
        self._sync()
        if self._state[idx] == STATE_NONE:
            self._registry_count += 1
        self._seen[idx] = now
        self._state[idx] = STATE_CODE[state]
        self._inst[idx] = self.instance_handle(instance_id)

    def touch_group(self, idxs, code, instance_id, now):
        self._sync()
        state = self._state
        self._registry_count += int(
            np.count_nonzero(state[idxs] == STATE_NONE))
        self._seen[idxs] = now
        state[idxs] = code
        self._inst[idxs] = self.instance_handle(instance_id)

    def registry_size(self):
        return self._registry_count

    def idle_estimate(self, horizon):
        return int(np.count_nonzero(
            (self._state == STATE_IDLE) & (self._seen >= horizon)))

    def alive_estimate(self, horizon):
        # Untouched rows sit at -inf and fail any finite horizon.
        return int(np.count_nonzero(self._seen >= horizon))

    def registry_get(self, node_id):
        idx = self.interner.index_of(node_id)
        if idx is None or idx >= self._cap:
            return None
        code = int(self._state[idx])
        if code == STATE_NONE:
            return None
        return (float(self._seen[idx]), CODE_STATE[code],
                self.instance_id_of(int(self._inst[idx])))

    def registry_set(self, node_id, seen, state, instance_id):
        self.touch(self.interner.intern(node_id), state, instance_id, seen)

    def registry_items(self):
        id_of = self.interner.id_of
        seen, state, inst = self._seen, self._state, self._inst
        for idx in np.flatnonzero(state != STATE_NONE):
            i = int(idx)
            yield id_of(i), (float(seen[i]), CODE_STATE[int(state[i])],
                             self.instance_id_of(int(inst[i])))

    def clear_registry(self):
        self._seen[:] = _NEVER
        self._state[:] = STATE_NONE
        self._inst[:] = NO_INSTANCE
        self._registry_count = 0

    # -- membership ------------------------------------------------------
    def bind_instance(self, instance_id):
        handle = self.instance_handle(instance_id)
        if handle not in self._member_seen:
            self._sync()
            self._member_seen[handle] = np.full(self._cap, np.nan,
                                                dtype=np.float64)
            self._member_count[handle] = 0
        return handle

    def release_instance(self, instance_id):
        handle = self._inst_index.get(instance_id)
        if handle is None:
            return
        column = self._member_seen.pop(handle, None)
        self._member_count.pop(handle, None)
        if column is not None:
            live = ~np.isnan(column)
            if live.any():
                self._member_of[live] -= 1

    def _is_bound(self, handle):
        return handle in self._member_seen

    def mark_member(self, handle, idx, now):
        self._sync()
        column = self._member_seen[handle]
        if column[idx] != column[idx]:  # NaN: a fresh member
            self._member_count[handle] += 1
            self._member_of[idx] += 1
        column[idx] = now

    def mark_members(self, handle, idxs, now):
        self._sync()
        column = self._member_seen[handle]
        fresh = np.isnan(column[idxs])
        joined = int(np.count_nonzero(fresh))
        if joined:
            self._member_count[handle] += joined
            self._member_of[idxs[fresh]] += 1
        column[idxs] = now

    def drop_member(self, handle, idx):
        column = self._member_seen.get(handle)
        if column is None or idx >= column.size:
            return False
        if column[idx] != column[idx]:  # NaN: not a member
            return False
        column[idx] = np.nan
        self._member_count[handle] -= 1
        self._member_of[idx] -= 1
        return True

    def drop_from_all(self, idx):
        self._sync()
        if not self._member_of[idx]:
            return
        for handle, column in self._member_seen.items():
            if column[idx] == column[idx]:  # non-NaN: member here
                column[idx] = np.nan
                self._member_count[handle] -= 1
        self._member_of[idx] = 0

    def drop_many_from_all(self, idxs):
        self._sync()
        active = idxs[self._member_of[idxs] > 0]
        if not active.size:
            return
        for handle, column in self._member_seen.items():
            hit = ~np.isnan(column[active])
            dropped = int(np.count_nonzero(hit))
            if dropped:
                column[active[hit]] = np.nan
                self._member_count[handle] -= dropped
        self._member_of[active] = 0

    def expire_members(self, handle, cutoff):
        column = self._member_seen.get(handle)
        if column is None:
            return 0
        stale = np.flatnonzero(column < cutoff)  # NaN never satisfies <
        if stale.size:
            column[stale] = np.nan
            self._member_count[handle] -= int(stale.size)
            self._member_of[stale] -= 1
        return int(stale.size)

    def member_count(self, handle):
        return self._member_count.get(handle, 0)

    def member_seen(self, handle, idx):
        column = self._member_seen.get(handle)
        if column is None or idx >= column.size:
            return None
        seen = column[idx]
        return None if seen != seen else float(seen)

    def members_items(self, handle):
        column = self._member_seen.get(handle)
        if column is None:
            return
        id_of = self.interner.id_of
        for idx in np.flatnonzero(~np.isnan(column)):
            yield id_of(int(idx)), float(column[idx])

    def clear_members(self, handle):
        column = self._member_seen.get(handle)
        if column is None:
            return
        live = ~np.isnan(column)
        if live.any():
            self._member_of[live] -= 1
        column[:] = np.nan
        self._member_count[handle] = 0

    def total_members(self):
        return sum(self._member_count.values())

    def clear(self):
        self.clear_registry()
        for handle, column in self._member_seen.items():
            column[:] = np.nan
            self._member_count[handle] = 0
        self._member_of[:] = 0

    # -- shape/invariant checks ------------------------------------------
    def validate(self):
        """Assert dtype/shape discipline and recompute derived counts.

        This is the numpy-boundary check standing in for a static type
        pass: every array has the declared dtype and the shared
        capacity, and every cached count equals what the raw columns
        say.
        """
        cap = self._cap
        assert self._seen.dtype == np.float64 and self._seen.shape == (cap,)
        assert self._state.dtype == np.int8 and self._state.shape == (cap,)
        assert self._inst.dtype == np.int64 and self._inst.shape == (cap,)
        assert self._member_of.dtype == np.int16 \
            and self._member_of.shape == (cap,)
        assert cap >= len(self.interner), \
            f"columns (cap {cap}) lag the interner ({len(self.interner)})"
        assert self._registry_count == int(
            np.count_nonzero(self._state != STATE_NONE))
        assert set(self._member_seen) == set(self._member_count)
        recount = np.zeros(cap, dtype=np.int16)
        for handle, column in self._member_seen.items():
            assert column.dtype == np.float64 and column.shape == (cap,)
            live = ~np.isnan(column)
            assert self._member_count[handle] == int(np.count_nonzero(live))
            recount[live] += 1
        assert (recount == self._member_of).all(), \
            "reverse membership index drifted from the columns"


class RegistryView:
    """Dict-shaped live view of a store's registry half.

    Drop-in for the old ``Controller.registry`` dict: supports ``len``,
    iteration, ``in``, item get/set, ``items()/keys()/values()``,
    ``clear()`` and equality against plain dicts, all reading through
    to the store.  Iteration order is the store's (index order for the
    columnar build) — every existing consumer sorts or aggregates.
    """

    __slots__ = ("_census",)

    def __init__(self, census: CensusStore) -> None:
        self._census = census

    def __len__(self) -> int:
        return self._census.registry_size()

    def __iter__(self):
        for node_id, _row in self._census.registry_items():
            yield node_id

    def __contains__(self, node_id) -> bool:
        return self._census.registry_get(node_id) is not None

    def __getitem__(self, node_id):
        row = self._census.registry_get(node_id)
        if row is None:
            raise KeyError(node_id)
        return row

    def get(self, node_id, default=None):
        row = self._census.registry_get(node_id)
        return default if row is None else row

    def __setitem__(self, node_id, row) -> None:
        seen, state, instance_id = row
        self._census.registry_set(node_id, seen, state, instance_id)

    def items(self):
        return self._census.registry_items()

    def keys(self):
        return iter(self)

    def values(self):
        for _node_id, row in self._census.registry_items():
            yield row

    def clear(self) -> None:
        self._census.clear_registry()

    def __eq__(self, other) -> bool:
        if isinstance(other, RegistryView):
            other = dict(other.items())
        if isinstance(other, dict):
            return dict(self.items()) == other
        return NotImplemented

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __bool__(self) -> bool:
        return self._census.registry_size() > 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RegistryView {len(self)} nodes>"


class MembersView:
    """Dict-shaped live view of one instance's membership column."""

    __slots__ = ("_census", "_handle")

    def __init__(self, census: CensusStore, handle: int) -> None:
        self._census = census
        self._handle = handle

    def __len__(self) -> int:
        return self._census.member_count(self._handle)

    def __iter__(self):
        for node_id, _seen in self._census.members_items(self._handle):
            yield node_id

    def __contains__(self, node_id) -> bool:
        return self._seen_of(node_id) is not None

    def _seen_of(self, node_id):
        idx = self._census.interner.index_of(node_id)
        if idx is None:
            return None
        return self._census.member_seen(self._handle, idx)

    def __getitem__(self, node_id) -> float:
        seen = self._seen_of(node_id)
        if seen is None:
            raise KeyError(node_id)
        return seen

    def get(self, node_id, default=None):
        seen = self._seen_of(node_id)
        return default if seen is None else seen

    def items(self):
        return self._census.members_items(self._handle)

    def keys(self):
        return iter(self)

    def values(self):
        for _node_id, seen in self._census.members_items(self._handle):
            yield seen

    def clear(self) -> None:
        self._census.clear_members(self._handle)

    def __eq__(self, other) -> bool:
        if isinstance(other, MembersView):
            other = dict(other.items())
        if isinstance(other, dict):
            return dict(self.items()) == other
        return NotImplemented

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __bool__(self) -> bool:
        return len(self) > 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MembersView {len(self)} members>"


def _selfcheck(ops: int = 4000, seed: int = 7, verbose: bool = True) -> int:
    """Seeded differential fuzz with per-step columnar validation.

    Applies a random census workload — touches, cohort groups, member
    marks/drops, expiries, idle drops, crash clears, instance
    bind/release — to a columnar and a dict store in lockstep and
    asserts equal snapshots throughout.  Returns 0 on success (the CI
    numpy-boundary gate).
    """
    import random

    rng = random.Random(seed)
    interner_a, interner_b = NodeInterner(), NodeInterner()
    columnar = ColumnarCensusStore(interner_a, initial_capacity=2)
    reference = DictCensusStore(interner_b)
    nodes = [f"pna-{i}" for i in range(256)]
    instances = [f"inst-{i}" for i in range(6)]
    bound: List[str] = []

    def idx_pair(node):
        return interner_a.intern(node), interner_b.intern(node)

    for step in range(ops):
        op = rng.randrange(10)
        now = float(step)
        if op <= 2:  # single heartbeat touch
            node = rng.choice(nodes)
            state = PNAState.IDLE if rng.random() < 0.4 else PNAState.BUSY
            inst = None if state is PNAState.IDLE else rng.choice(instances)
            ia, ib = idx_pair(node)
            columnar.touch(ia, state, inst, now)
            reference.touch(ib, state, inst, now)
            if state is PNAState.IDLE:
                columnar.drop_from_all(ia)
                reference.drop_from_all(ib)
        elif op == 3:  # cohort group
            group = rng.sample(nodes, rng.randrange(1, 32))
            code = STATE_IDLE if rng.random() < 0.3 else STATE_BUSY
            inst = None if code == STATE_IDLE else rng.choice(instances)
            pairs = [idx_pair(n) for n in group]
            arr_a = np.array([a for a, _b in pairs], dtype=np.int64)
            arr_b = [b for _a, b in pairs]
            columnar.touch_group(arr_a, code, inst, now)
            reference.touch_group(arr_b, code, inst, now)
            if code == STATE_IDLE:
                columnar.drop_many_from_all(arr_a)
                reference.drop_many_from_all(arr_b)
            elif inst in bound:
                ha = columnar.instance_handle(inst)
                hb = reference.instance_handle(inst)
                columnar.mark_members(ha, arr_a, now)
                reference.mark_members(hb, arr_b, now)
        elif op == 4:  # bind / release
            inst = rng.choice(instances)
            if inst in bound and rng.random() < 0.3:
                columnar.release_instance(inst)
                reference.release_instance(inst)
                bound.remove(inst)
            else:
                columnar.bind_instance(inst)
                reference.bind_instance(inst)
                if inst not in bound:
                    bound.append(inst)
        elif op == 5 and bound:  # single mark/drop
            inst = rng.choice(bound)
            node = rng.choice(nodes)
            ia, ib = idx_pair(node)
            ha = columnar.instance_handle(inst)
            hb = reference.instance_handle(inst)
            if rng.random() < 0.7:
                columnar.mark_member(ha, ia, now)
                reference.mark_member(hb, ib, now)
            else:
                assert columnar.drop_member(ha, ia) == \
                    reference.drop_member(hb, ib)
        elif op == 6 and bound:  # expiry sweep
            inst = rng.choice(bound)
            cutoff = now - rng.randrange(0, ops // 2)
            ha = columnar.instance_handle(inst)
            hb = reference.instance_handle(inst)
            assert columnar.expire_members(ha, cutoff) == \
                reference.expire_members(hb, cutoff)
        elif op == 7 and bound and rng.random() < 0.2:  # membership wipe
            inst = rng.choice(bound)
            columnar.clear_members(columnar.instance_handle(inst))
            reference.clear_members(reference.instance_handle(inst))
        elif op == 8 and rng.random() < 0.1:  # crash
            columnar.clear()
            reference.clear()
        else:  # census reductions must agree
            horizon = now - rng.randrange(0, ops)
            assert columnar.idle_estimate(horizon) == \
                reference.idle_estimate(horizon)
            assert columnar.alive_estimate(horizon) == \
                reference.alive_estimate(horizon)
            assert columnar.registry_size() == reference.registry_size()
            assert columnar.total_members() == reference.total_members()
        if step % 97 == 0 or step == ops - 1:
            columnar.validate()
            reference.validate()
            assert columnar.snapshot() == reference.snapshot(), \
                f"stores diverged at step {step}"
    if verbose:
        print(f"census selfcheck ok: {ops} ops, seed {seed}, "
              f"{len(interner_a)} nodes interned, "
              f"registry {columnar.registry_size()}, "
              f"members {columnar.total_members()}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.core.census",
        description="Differential fuzz + shape checks for the census "
                    "engines (assertion-based numpy-boundary gate)")
    parser.add_argument("--ops", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    return _selfcheck(ops=args.ops, seed=args.seed)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
