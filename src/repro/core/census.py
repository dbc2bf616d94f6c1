"""Columnar census engine: interned node ids + struct-of-arrays state.

The paper's requirement I ("hundreds of millions of processing
resources") makes the Controller's census the scaling frontier of the
event tier: consolidating a heartbeat cohort payload-by-payload into
string-keyed dicts costs several dict operations *per node per beat*.
Like BOINC's server-side host tables and Condor's collector, census
state at 10^5-10^6 agents wants dense integer keys and columnar
updates.

:class:`ColumnarCensusStore` is that engine, and the only one in
the package: struct-of-arrays over numpy, ``last_seen``, ``state``
and ``instance`` columns (narrow codes) indexed by the dense node
index a shared :class:`NodeInterner` assigns, plus one membership
column (last-heartbeat code, 0 = non-member) per *bound* instance and
a per-node membership counter that serves as the reverse ``node ->
instances`` index.  A same-instant heartbeat cohort lands as one
columnar write per (state, instance) group (``last_seen[idxs] =
code``) instead of N dict updates, and expiry is a single vectorised
comparison per instance.
Its oracle, the dict-backed ``DictCensusStore``, lives in the tests
(``tests/core/dict_census.py``) and duck-types the same methods; tests
hand it to a Controller through its ``census`` argument.

Shape discipline
----------------
There is no mypy in the toolchain, so numpy boundaries are guarded by
assertion-based checks in the tests instead: ``_validate`` in
``tests/core/test_census_store.py`` recomputes every derived count from
the raw arrays and asserts dtypes, shapes and cross-array consistency,
and ``_selfcheck`` there runs a seeded differential fuzz of the two
stores with per-step validation.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.messages import PNAState

__all__ = [
    "STATE_NONE",
    "STATE_IDLE",
    "STATE_BUSY",
    "NO_INSTANCE",
    "STATE_CODE",
    "CODE_STATE",
    "HEARTBEAT_GRACE",
    "NodeInterner",
    "ColumnarCensusStore",
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

#: Liveness on both tiers: a node is alive while it was heard from
#: within this many heartbeat intervals.
HEARTBEAT_GRACE = 3.0

#: The instant of code 0, untouched rows' and non-members' (compares
#: below any finite horizon, exactly like an absent dict entry).
_NEVER = float("-inf")


class NodeInterner:
    """Dense string node-id <-> int index table, append-only.

    Shared by the Router (which interns every registered PNA), the
    heartbeat cohorts and the census stores.  Indices are stable for
    the process lifetime: a churned node that re-registers under the
    same id keeps its index, so census columns never need compaction.

    A bulk fleet is a *block*: the ids ``{prefix}{first + k}``, ``k <
    n``, at indices ``lo + k``, kept as one range (a block continuing
    the last one extends it) and recognised only in canonical decimal
    form.  Only ids interned one by one hold dict entries.
    """

    __slots__ = ("_index", "_ids", "_blocks", "_n")

    def __init__(self) -> None:
        self._index: Dict[str, int] = {}
        self._ids: Dict[int, str] = {}
        #: ``[lo, hi, prefix, first]`` per block, in index order
        self._blocks: List[list] = []
        self._n = 0

    def intern(self, node_id: str) -> int:
        """The node's dense index, assigning the next one if new."""
        idx = self.index_of(node_id)
        if idx is None:
            idx = self._index[node_id] = self._n
            self._ids[idx] = node_id
            self._n += 1
        return idx

    def intern_block(self, prefix: str, first: int, n: int) -> int:
        """Intern the ``n`` new ids ``{prefix}{first + k}`` as one
        contiguous index range; returns its first index."""
        if prefix[-1:].isdigit() or first < 0 or n <= 0:
            raise ValueError("a block needs a prefix not ending in a digit, "
                             "first >= 0 and n > 0")
        taken = [_number(node_id, prefix) for node_id in self._index]
        if any(k is not None and first <= k < first + n for k in taken) \
                or any(p == prefix and f < first + n and first < f + hi - lo
                       for lo, hi, p, f in self._blocks):
            raise ValueError("a block's node ids must be new")
        lo, last = self._n, self._blocks[-1] if self._blocks else None
        self._n += n
        if last is not None and last[1:3] == [lo, prefix] \
                and last[3] + lo - last[0] == first:
            last[1] = self._n
        else:
            self._blocks.append([lo, self._n, prefix, first])
        return lo

    def index_of(self, node_id: str) -> Optional[int]:
        """The node's index, or ``None`` if it was never interned."""
        idx = self._index.get(node_id)
        if idx is None and self._blocks:
            head = node_id.rstrip("0123456789")
            k = _number(node_id, head)
            for lo, hi, prefix, first in self._blocks:
                if prefix == head and k is not None \
                        and 0 <= k - first < hi - lo:
                    return lo + k - first
        return idx

    def id_of(self, idx: int) -> str:
        node_id = self._ids.get(idx)
        if node_id is None:
            if not 0 <= idx < self._n:
                raise IndexError(f"node index {idx} out of range")
            lo, _hi, prefix, first = self._blocks[
                bisect_right(self._blocks, idx, key=itemgetter(0)) - 1]
            node_id = f"{prefix}{first + idx - lo}"
        return node_id

    def __len__(self) -> int:
        return self._n

    def __contains__(self, node_id: str) -> bool:
        return self.index_of(node_id) is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<NodeInterner {self._n} ids, {len(self._blocks)} blocks>"


def _number(node_id: str, prefix: str) -> Optional[int]:
    """``k`` when ``node_id`` is ``prefix`` then ``k`` in canonical
    decimal, else ``None``."""
    digits = node_id[len(prefix):]
    if node_id.startswith(prefix) and 0 < len(digits) <= 18 \
            and digits.isascii() and digits.isdigit() \
            and (digits[0] != "0" or len(digits) == 1):
        return int(digits)
    return None


class ColumnarCensusStore:
    """Struct-of-arrays census keyed by dense interned node indices.

    The *registry* half holds each node's ``(last_seen, state,
    instance_id)``; the *membership* half each bound instance's
    ``node -> last_heartbeat``.  Instance ids are interned to small int
    handles; only instances explicitly *bound* (:meth:`bind_instance`)
    carry membership state — the registry also interns ids of
    unknown/stale instances named by busy heartbeats.

    Columns grow by doubling as the shared interner grows.  ``_seen``
    and each bound instance's membership column hold codes into the
    ascending ``_instants`` (code 0: never seen, not a member), and
    ``_inst`` ``handle + 1`` (0: none), at ``np.min_scalar_type`` width.
    A per-node int16 membership counter is the reverse index, so the idle
    path is O(1) for nodes that belong to nothing — which is nearly all
    idle heartbeats — instead of a scan over every instance.
    """

    def __init__(self, interner: Optional[NodeInterner] = None, *,
                 initial_capacity: int = 1024) -> None:
        self.interner = interner if interner is not None else NodeInterner()
        self._inst_index: Dict[str, int] = {}
        self._inst_ids: List[str] = []
        cap = max(int(initial_capacity), 1)
        self._cap = cap
        self._instants: List[float] = [_NEVER]
        self._seen = np.zeros(cap, dtype=np.uint8)
        self._state = np.zeros(cap, dtype=np.int8)
        self._inst = np.zeros(cap, dtype=np.uint8)
        #: reverse index: per-node count of instances it belongs to.
        self._member_of = np.zeros(cap, dtype=np.int16)
        self._registry_count = 0
        #: instance handle -> membership column (instant codes)
        self._member_seen: Dict[int, Any] = {}
        self._member_count: Dict[int, int] = {}

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
            if (handle + 1) >> 8 * self._inst.itemsize:  # widen the codes
                self._inst = self._inst.astype(np.min_scalar_type(handle + 1))
        return handle

    def instance_id_of(self, handle: int) -> Optional[str]:
        return None if handle == NO_INSTANCE else self._inst_ids[handle]

    # -- instant codes ---------------------------------------------------
    def _code(self, now: float) -> int:
        """The code of instant ``now`` (writes come at non-decreasing
        instants), appended when new: first compacted if codes ran out."""
        if now != self._instants[-1]:
            if len(self._instants) >> 8 * self._seen.itemsize:
                self._compact()
            self._instants.append(float(now))
        return len(self._instants) - 1

    def _compact(self) -> None:
        """Drop the instants no row holds, renumbering the codes in order
        at the width that leaves at least as many codes free as used."""
        used = np.zeros(len(self._instants), dtype=bool)
        used[0] = True
        for column in (self._seen, *self._member_seen.values()):
            used[column] = True
        self._instants = np.array(self._instants)[used].tolist()
        remap = (np.cumsum(used) - 1).astype(
            np.min_scalar_type(2 * len(self._instants)))
        self._seen = remap[self._seen]
        for handle, column in self._member_seen.items():
            self._member_seen[handle] = remap[column]

    # -- capacity --------------------------------------------------------
    def _sync(self) -> None:
        """Grow every column to cover the shared interner."""
        need = len(self.interner)
        if need <= self._cap:
            return
        cap = self._cap
        while cap < need:
            cap *= 2
        for name in ("_seen", "_state", "_inst", "_member_of"):
            setattr(self, name, self._grown(getattr(self, name), cap))
        for handle, column in self._member_seen.items():
            self._member_seen[handle] = self._grown(column, cap)
        self._cap = cap

    @staticmethod
    def _grown(array, cap):
        grown = np.zeros(cap, dtype=array.dtype)
        grown[:array.size] = array
        return grown

    # -- registry --------------------------------------------------------
    def touch(self, idx: int, state: PNAState,
              instance_id: Optional[str], now: float) -> None:
        """One heartbeat's registry write."""
        self._sync()
        if self._state[idx] == STATE_NONE:
            self._registry_count += 1
        self._seen[idx] = self._code(now)
        self._state[idx] = STATE_CODE[state]
        self._inst[idx] = self.instance_handle(instance_id) + 1

    def touch_group(self, idxs, code: int, instance_id: Optional[str],
                    now: float) -> None:
        """Registry write for one (state, instance) cohort group.

        ``idxs`` must be duplicate-free (the Controller's cohort path
        guarantees this; its duplicate guard falls back to the
        per-payload path otherwise); it is an index array or a slice
        (:func:`~repro.net.link.as_index`)."""
        self._sync()
        state = self._state
        self._registry_count += int(
            np.count_nonzero(state[idxs] == STATE_NONE))
        self._seen[idxs] = self._code(now)
        state[idxs] = code
        self._inst[idxs] = self.instance_handle(instance_id) + 1

    def registry_size(self):
        return self._registry_count

    def idle_estimate(self, horizon):
        """Idle nodes heard from at or after ``horizon``."""
        after = bisect_left(self._instants, horizon)
        return int(np.count_nonzero(
            (self._state == STATE_IDLE) & (self._seen >= after)))

    def alive_estimate(self, horizon):
        # Untouched rows hold code 0 and fail any finite horizon.
        return int(np.count_nonzero(
            self._seen >= bisect_left(self._instants, horizon)))

    def registry_items(self):
        id_of = self.interner.id_of
        seen, state, inst = self._seen, self._state, self._inst
        for idx in np.flatnonzero(state != STATE_NONE).tolist():
            yield id_of(idx), (self._instants[seen[idx]],
                               CODE_STATE[int(state[idx])],
                               self.instance_id_of(int(inst[idx]) - 1))

    def clear_registry(self):
        self._seen[:] = 0
        self._state[:] = STATE_NONE
        self._inst[:] = 0
        self._registry_count = 0

    # -- membership ------------------------------------------------------
    def bind_instance(self, instance_id: str) -> int:
        """Allocate (idempotently) membership state for an instance."""
        handle = self.instance_handle(instance_id)
        if handle not in self._member_seen:
            self._sync()
            self._member_seen[handle] = np.zeros(self._cap,
                                                 dtype=self._seen.dtype)
            self._member_count[handle] = 0
        return handle

    def release_instance(self, instance_id: str) -> None:
        """Free a destroyed instance's membership column (empty of
        members only by convention — releasing drops any stragglers)."""
        handle = self._inst_index.get(instance_id)
        if handle is None:
            return
        column = self._member_seen.pop(handle, None)
        self._member_count.pop(handle, None)
        if column is not None:
            live = column != 0
            if live.any():
                self._member_of[live] -= 1

    def _is_bound(self, handle):
        return handle in self._member_seen

    def mark_member(self, handle, idx, now):
        self._sync()
        code = self._code(now)
        column = self._member_seen[handle]
        if not column[idx]:  # a fresh member
            self._member_count[handle] += 1
            self._member_of[idx] += 1
        column[idx] = code

    def mark_members(self, handle: int, idxs, now: float) -> None:
        """Membership refresh for a duplicate-free cohort group (an
        array or a slice, as for :meth:`touch_group`)."""
        self._sync()
        code = self._code(now)
        column = self._member_seen[handle]
        fresh = column[idxs] == 0
        joined = int(np.count_nonzero(fresh))
        if joined:
            self._member_count[handle] += joined
            self._member_of[idxs] += fresh
        column[idxs] = code

    def drop_member(self, handle, idx):
        column = self._member_seen.get(handle)
        if column is None or idx >= column.size or not column[idx]:
            return False
        column[idx] = 0
        self._member_count[handle] -= 1
        self._member_of[idx] -= 1
        return True

    def drop_from_all(self, idx: int) -> None:
        """Idle heartbeat: leave every instance (reverse-index guarded:
        O(1) for the common member-of-nothing node)."""
        self._sync()
        if not self._member_of[idx]:
            return
        for handle, column in self._member_seen.items():
            if column[idx]:  # a member here
                column[idx] = 0
                self._member_count[handle] -= 1
        self._member_of[idx] = 0

    def drop_many_from_all(self, idxs):
        self._sync()
        active = idxs[self._member_of[idxs] > 0]
        if not active.size:
            return
        for handle, column in self._member_seen.items():
            hit = column[active] != 0
            dropped = int(np.count_nonzero(hit))
            if dropped:
                column[active[hit]] = 0
                self._member_count[handle] -= dropped
        self._member_of[active] = 0

    def expire_members(self, handle: int, cutoff: float) -> int:
        """Drop members whose last heartbeat predates ``cutoff``."""
        column = self._member_seen.get(handle)
        if column is None:
            return 0
        stale = np.flatnonzero(
            (column != 0) & (column < bisect_left(self._instants, cutoff)))
        if stale.size:
            column[stale] = 0
            self._member_count[handle] -= int(stale.size)
            self._member_of[stale] -= 1
        return int(stale.size)

    def member_count(self, handle):
        return self._member_count.get(handle, 0)

    def members_items(self, handle):
        column = self._member_seen.get(handle)
        if column is None:
            return
        id_of, instants = self.interner.id_of, self._instants
        for idx in np.flatnonzero(column).tolist():
            yield id_of(idx), instants[column[idx]]

    def clear_members(self, handle):
        column = self._member_seen.get(handle)
        if column is None:
            return
        live = column != 0
        if live.any():
            self._member_of[live] -= 1
        column[:] = 0
        self._member_count[handle] = 0

    def clear(self) -> None:
        """Crash semantics: registry and all membership vanish (bound
        instances stay bound, empty)."""
        self.clear_registry()
        for handle, column in self._member_seen.items():
            column[:] = 0
            self._member_count[handle] = 0
        self._member_of[:] = 0
