"""The dict-backed census store: the columnar engine's test oracle.

:class:`DictCensusStore` is the obvious dict transcription of the
pre-columnar registry (``pna_id -> (last_seen, state, instance_id)``)
and per-instance membership (``pna_id -> last_heartbeat``) dicts.  It
duck-types the methods of :class:`~repro.core.census.ColumnarCensusStore`
and borrows its instance-handle table as plain functions; either
store's census reads as one canonical dump through :func:`snapshot`,
and its membership through :func:`member_seen` and
:func:`total_members`.
``tests/core/test_census_store.py`` drives randomized sequences through
both stores in lockstep and requires identical censuses.  Tests hand
it to a Controller through its ``census`` argument with
:func:`controller_on`, which also puts that Controller on the
per-payload fold: the dict store takes index lists, not the cohort
path's column slices.
"""

import math
from typing import Dict, Optional, Tuple

from repro.core.census import (CODE_STATE, STATE_CODE, STATE_IDLE,
                               ColumnarCensusStore, NodeInterner)
from repro.core.controller import Controller


def snapshot(store) -> dict:
    """Canonical, order-independent dump of ``store``'s census (either
    engine): two stores fed the same operation sequence must produce
    equal snapshots — the contract the differential suite enforces."""
    members = {}
    for instance_id, handle in sorted(store._inst_index.items()):
        if store._is_bound(handle):
            members[instance_id] = sorted(store.members_items(handle))
    return {"registry": dict(sorted(store.registry_items())),
            "members": members}


def member_seen(store, handle, idx) -> Optional[float]:
    """Last heartbeat node ``idx`` gave instance ``handle`` in ``store``
    (either engine), or None if it is not a member."""
    return dict(store.members_items(handle)).get(store.interner.id_of(idx))


def total_members(store) -> int:
    """Sum of ``store``'s membership counts across bound instances."""
    return sum(store.member_count(handle)
               for handle in store._inst_index.values()
               if store._is_bound(handle))


class DictCensusStore:
    """Reference engine: the pre-columnar dicts behind the same methods.

    Every operation is the obvious dict transcription of the old
    registry / membership code paths, so this build doubles as an
    executable specification.  Iteration orders follow dict insertion
    order; only the *sorted* :func:`snapshot` is part of the
    cross-engine contract.
    """

    instance_handle = ColumnarCensusStore.instance_handle
    instance_id_of = ColumnarCensusStore.instance_id_of

    def __init__(self, interner: Optional[NodeInterner] = None) -> None:
        self.interner = interner if interner is not None else NodeInterner()
        self._inst_index: Dict[str, int] = {}
        self._inst_ids: list = []
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


def controller_on(store, sim, router, *args, **kwargs) -> Controller:
    """A Controller whose census is a new ``store`` (a store class) on
    ``router``'s interner.  On :class:`DictCensusStore` its
    ``_COHORT_MIN`` is infinity, so ``_receive_cohort`` replays every
    heartbeat through ``_consolidate`` one by one."""
    controller = Controller(sim, router, *args,
                            census=store(router.interner), **kwargs)
    if store is DictCensusStore:
        controller._COHORT_MIN = math.inf
    return controller
