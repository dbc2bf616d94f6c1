"""Message routing between PNAs and the Controller/Backend components.

Every PNA owns a full-duplex direct channel (capacity δ).  Uplink
messages carry a ``recipient`` component id; the :class:`Router` looks
the component up and delivers.  Components send back *through the PNA's
downlink*, so both directions pay the direct channel's serialization and
latency — exactly the paper's model where the home connection is the
bottleneck, not the datacenter side.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.census import (
    CODE_STATE,
    STATE_CODE,
    STATE_IDLE,
    NodeInterner,
)
from repro.core.messages import HeartbeatPayload
from repro.errors import LinkDownError, NetworkError
from repro.net.link import (
    DuplexChannel,
    HeldColumns,
    LinkTable,
    as_index,
    count_deliveries,
    offer_rows,
)
from repro.net.message import DEFAULT_HEADER_BITS
from repro.sim.core import Event, Simulator
from repro.telemetry import trace as telemetry

__all__ = ["Router", "PNA_COUNTERS"]

#: Receive callback: the bare payload of one delivered message.
ReceiveFn = Callable[[Any], None]

#: Cohort receive callback: (node indices, state codes, instance codes)
#: — the columnar fast path for same-instant heartbeat cohorts.
ReceiveCohortFn = Callable[[np.ndarray, np.ndarray, np.ndarray], None]

#: Per-PNA counters, router columns that PNA attributes read through.
PNA_COUNTERS = ("heartbeats_sent", "wakeups_seen", "wakeups_accepted",
                "dropped_bad_signature", "dropped_busy", "dropped_probability",
                "dropped_requirements", "resets_handled")

#: The int8 node columns' values at a PNA's registration (others: 0).
_REGISTERED = {"pna_online": 1, "pna_state": STATE_IDLE, "_pna_linked": 1}


class Router(HeldColumns):
    """Associates component ids with receive callbacks and PNA ids with
    their direct channels.

    The Router also owns the columnar node state of the heartbeat
    plane, indexed by each PNA's interned node index: the PNA columns
    (``pna_online``, ``pna_state`` census state code, ``pna_instance``
    instance code, the :data:`PNA_COUNTERS`, ``dve_slot``,
    ``dve_engine``) that :class:`~repro.core.pna.PNA` attributes read
    through to, and the
    direct-channel link tables (``uplinks``/``downlinks``, see
    :class:`~repro.net.link.LinkTable`) that the channels of registered
    PNAs live in.  A heartbeat cohort tick therefore touches no
    per-member Python object, and a fleet registered in bulk
    (:meth:`register_pnas`) gets its channels on first use.
    """

    #: the held node columns: the int8 online flag, census state code
    #: and link flag, the instance code, the PNA_COUNTERS, and the slot
    #: and engine code of a member recruited in bulk into a cohort task
    #: engine while it has no DVE object (PNA.dve)
    _COLUMNS = ("pna_online", "pna_state", "_pna_linked", "pna_instance") \
        + PNA_COUNTERS + ("dve_slot", "dve_engine")

    def __init__(self, sim: Simulator, *,
                 interner: Optional[NodeInterner] = None) -> None:
        self.sim = sim
        #: shared node-id interning table: the Router assigns every
        #: registered PNA its dense index, and census stores built on
        #: this fabric share the table (see repro.core.census).  An
        #: OddCISystem passes one table to all of its networks' Routers
        #: so indices are globally dense and shard ownership becomes a
        #: contiguous id range (see repro.core.provider.ControllerShard).
        self.interner = NodeInterner() if interner is None else interner
        self._receivers: Dict[str, ReceiveFn] = {}
        self._cohort_receivers: Dict[str, ReceiveCohortFn] = {}
        #: direct channels by node index (see channel_of), and the
        #: (first row, first channel number, name format, tracer, owner)
        #: of each block registered by register_pnas
        self._channels: Dict[int, DuplexChannel] = {}
        self._blocks: List[Tuple[int, int, str, Any, Any]] = []
        #: heartbeat cohorts keyed (controller_id, interval_s, phase);
        #: owned by the PNAs (see repro.core.pna) but stored here because
        #: the cohort is a property of the shared network fabric.
        self._cohorts: Dict[tuple, Any] = {}
        #: cohort-capable task servers (Backends) by component id, and
        #: the per-instance task engines built on them — see
        #: repro.core.taskloop.  Stored here for the same reason as
        #: ``_cohorts``: the engine is shared fabric, not per-node state.
        self._task_servers: Dict[str, Any] = {}
        self._task_engines: Dict[str, Any] = {}
        #: task engines by code, the ``dve_engine`` values (0 is none)
        self._engines: List[Any] = [None]
        #: Byzantine profiles (repro.certify.adversary) by node index
        self.adversaries: Dict[int, Any] = {}
        self.undeliverable = 0
        #: direct-channel serializer state, row = node index.
        self.uplinks = LinkTable(lambda r: self.channel_of(r).uplink)
        self.downlinks = LinkTable(lambda r: self.channel_of(r).downlink)
        #: PNA columns, row = node index (``array.array``: scalar reads
        #: are Python ints); ``_pna_linked`` is 1 while the row's PNA is
        #: registered here (a member whose node vanished sends nothing).
        for name in self._COLUMNS:
            setattr(self, name, array("b" if name in _REGISTERED else "i"))
        self._n, self._short = 0, False
        self._held = dict.fromkeys(self._COLUMNS, 0)
        #: the downlink receiver of each node registered one by one, by
        #: row; a block's rows are served by the block (see _receiver_of)
        self._nodes: Dict[int, ReceiveFn] = {}
        #: instance ids behind ``pna_instance`` codes; 0 is "none".
        self._instance_ids: List[Optional[str]] = [None]
        self._instance_codes: Dict[str, int] = {}

    # -- node columns ----------------------------------------------------
    def instance_code(self, instance_id: Optional[str]) -> int:
        """Intern an instance id for the ``pna_instance`` column."""
        if instance_id is None:
            return 0
        code = self._instance_codes.get(instance_id)
        if code is None:
            code = self._instance_codes[instance_id] = len(self._instance_ids)
            self._instance_ids.append(instance_id)
        return code

    def instance_of(self, code: int) -> Optional[str]:
        return self._instance_ids[code]

    def heartbeat_payloads(self, idxs, states, insts
                           ) -> List[HeartbeatPayload]:
        """Materialise heartbeat columns as payloads, in order — for
        receivers that consume payloads rather than columns."""
        id_of = self.interner.id_of
        instance_ids = self._instance_ids
        return [HeartbeatPayload(pna_id=id_of(idx),
                                 state=CODE_STATE[code],
                                 instance_id=instance_ids[inst])
                for idx, code, inst in zip(idxs.tolist(), states.tolist(),
                                           insts.tolist())]

    def heartbeat_columns(self, payloads) -> Tuple[np.ndarray, np.ndarray,
                                                   np.ndarray]:
        """The inverse of :meth:`heartbeat_payloads` (interning ids as
        needed): columns for driving a cohort receiver by hand."""
        intern = self.interner.intern
        idxs = np.array([intern(p.pna_id) for p in payloads], dtype=np.int64)
        states = np.array([STATE_CODE[p.state] for p in payloads],
                          dtype=np.int8)
        insts = np.array([self.instance_code(p.instance_id)
                          for p in payloads], dtype=np.int64)
        return idxs, states, insts

    def _reserve_rows(self, n: int) -> None:
        """Grow the node columns and link tables to at least ``n`` rows,
        by doubling: registering a fleet then writes rows in place."""
        have = self._n
        if n <= have:
            return
        cap = max(n, 2 * have, 64)
        for name in self._COLUMNS:
            if self._held[name] != 0:  # rows past ``have`` start at 0
                self.column(name)
                self._held[name] = 0
        self.reserve(cap)
        self.uplinks.reserve(cap)
        self.downlinks.reserve(cap)

    def _row_of(self, pna_id: str) -> Optional[int]:
        """``pna_id``'s node index if it is registered here."""
        idx = self.interner.index_of(pna_id)
        if idx is None or idx >= self._n \
                or not self.value("_pna_linked", idx):
            return None
        return idx

    def _block_of(self, idx: int) -> tuple:
        return self._blocks[bisect_right(self._blocks, idx,
                                         key=itemgetter(0)) - 1]

    def _receiver_of(self, idx: int) -> ReceiveFn:
        """The receiver of registered node ``idx``'s downlink: a block
        row's is its :class:`~repro.core.pna.PNA` view's."""
        receive = self._nodes.get(idx)
        if receive is None:
            receive = self._block_of(idx)[4].view(idx)._on_downlink_payload
        return receive

    def channel_of(self, idx: int) -> DuplexChannel:
        """Registered node ``idx``'s direct channel; one of a block
        (:meth:`register_pnas`) is built over its rows on first use."""
        channel = self._channels.get(idx)
        if channel is None:
            lo, first, name, tracer, _owner = self._block_of(idx)
            state = self.uplinks.row(idx)
            with telemetry.active(tracer):  # the block's, as if built then
                channel = DuplexChannel(self.sim, state[5],
                                        name=name.format(first + idx - lo))
            channel.uplink._init = state
            channel.downlink._init = self.downlinks.row(idx)
            self._adopt(idx, channel)
        return channel

    def _adopt(self, idx: int, channel: DuplexChannel) -> None:
        self._channels[idx] = channel
        channel.uplink.move_to(self.uplinks, idx)
        channel.downlink.move_to(self.downlinks, idx)

    # -- registration ----------------------------------------------------
    def register_component(self, component_id: str, receive: ReceiveFn,
                           *, receive_cohort: Optional[ReceiveCohortFn] = None,
                           ) -> None:
        """Register a component: ``receive(payload)`` is called with the
        payload of each message delivered to it.

        ``receive_cohort`` — optional columnar entry point for heartbeat
        cohorts (see :meth:`send_heartbeats`): called as
        ``receive_cohort(idxs, states, insts)``: the senders' interned
        node indices, census state codes and instance codes (see
        :meth:`instance_of`) as parallel arrays, so a census-backed
        component can consolidate the whole cohort as array writes
        without a payload object per heartbeat.  Without one, the
        component gets one ``receive`` call per heartbeat, in cohort
        order.
        """
        if component_id in self._receivers:
            raise NetworkError(f"component {component_id!r} already registered")
        self._receivers[component_id] = receive
        if receive_cohort is not None:
            self._cohort_receivers[component_id] = receive_cohort

    def unregister_component(self, component_id: str) -> tuple:
        """Unregister a component; returns the ``(receive,
        receive_cohort)`` it had (``None`` where it had none)."""
        return (self._receivers.pop(component_id, None),
                self._cohort_receivers.pop(component_id, None))

    def register_task_server(self, component_id: str, server: Any) -> None:
        """Advertise ``server`` (a Backend) as cohort-dispatch capable.

        PNAs woken for this component id join a shared
        :class:`~repro.core.taskloop.CohortTaskEngine`; a wakeup for an
        id with no task server starts no client loop.  Unlike
        component registration this survives
        :meth:`unregister_component` (a crashed Backend keeps owning its
        id — in-flight cohort traffic goes undeliverable exactly like
        the wire path); only :meth:`unregister_task_server` removes it.
        """
        self._task_servers[component_id] = server

    def unregister_task_server(self, component_id: str,
                               server: Any = None) -> None:
        """Remove a task server; with ``server`` given, only if it is
        still the registered one (a replacement stays)."""
        if server is None or self._task_servers.get(component_id) is server:
            self._task_servers.pop(component_id, None)

    def register_pna(self, pna_id: str, channel: DuplexChannel,
                     receive: ReceiveFn) -> int:
        """Register a PNA whose downlink payloads go to ``receive``;
        returns its dense interned node index.

        The index is stable across shutdown/restart cycles (the
        interner is append-only).  It is the PNA's row in the node
        columns, and the channel's links move into the router's link
        tables at that row, so heartbeat cohorts run as column passes.
        """
        if self._row_of(pna_id) is not None:
            raise NetworkError(f"PNA {pna_id!r} already registered")
        idx = self.interner.intern(pna_id)
        self._register_rows(idx, idx + 1)
        self.adversaries.pop(idx, None)
        self._nodes[idx] = receive
        self._adopt(idx, channel)
        return idx

    def register_pnas(self, owner: Any, prefix: str, first: int, n: int, *,
                      rate_bps: float, latency_s: float, loss: float,
                      channel_name: str) -> int:
        """Register the ``n`` new nodes ``{prefix}{first + k}`` in one
        pass; returns the first of their contiguous indices.

        ``owner.view(idx)._on_downlink_payload`` receives node
        ``idx``'s downlink.
        The channels' state is written into the link tables as columns;
        node ``k``'s channel, named ``channel_name.format(first + k)``,
        is only built when :meth:`channel_of` asks for it.
        """
        lo = self.interner.intern_block(prefix, first, n)
        hi = lo + n
        self._register_rows(lo, hi)
        state = (self.sim.now, 0.0, 0, 1, float(loss), float(rate_bps),
                 float(latency_s))
        self.uplinks.fill(lo, hi, state)
        self.downlinks.fill(lo, hi, state)
        self._blocks.append((lo, first, channel_name, telemetry.current(),
                             owner))
        return lo

    def _register_rows(self, lo: int, hi: int) -> None:
        """Set rows ``[lo, hi)`` to a new PNA's values (:data:`_REGISTERED`,
        else 0): a block of every row leaves each column held."""
        self._reserve_rows(hi)
        for name in self._COLUMNS:
            self.store(name, slice(lo, hi), _REGISTERED.get(name, 0))

    def unregister_pna(self, pna_id: str) -> None:
        idx = self._row_of(pna_id)
        if idx is None:
            return
        self.column("_pna_linked")[idx] = 0
        self._nodes.pop(idx, None)
        channel = self._channels.pop(idx, None)
        if channel is not None:
            channel.uplink.detach()
            channel.downlink.detach()

    # -- sending ------------------------------------------------------------
    def send_from_pna(self, pna_id: str, recipient: str, payload: Any,
                      payload_bits: float) -> None:
        """Send ``payload`` over the PNA's uplink to a component.

        Fire and forget: a down link or a lost message never delivers
        (counted by the link), and the component is looked up when the
        message arrives (an unknown one counts in ``undeliverable``).
        """
        link = self.channel_of(self._registered(pna_id)).uplink
        deliver_at = link.offer(payload_bits + DEFAULT_HEADER_BITS)
        if deliver_at is not None:
            self.sim.call_at(deliver_at, self._deliver_payload_up,
                             link, recipient, payload)

    def send_to_pna(self, sender: str, pna_id: str, payload: Any,
                    payload_bits: float) -> None:
        """Send ``payload`` from component ``sender`` over the PNA's
        downlink; raises on unknown PNA.  Fire and forget, as
        :meth:`send_from_pna`."""
        link = self.channel_of(self._registered(pna_id)).downlink
        deliver_at = link.offer(payload_bits + DEFAULT_HEADER_BITS)
        if deliver_at is not None:
            self.sim.call_at(deliver_at, self._deliver_payload_down,
                             link, pna_id, payload)

    def send_from_pna_notify(self, pna_id: str, recipient: str, payload: Any,
                             payload_bits: float, event: Event) -> None:
        """:meth:`send_from_pna` that settles ``event`` at delivery
        time, for senders that own a wait event.  A lost message never
        settles ``event`` (callers guard with a timeout); a down link
        fails it."""
        link = self.channel_of(self._registered(pna_id)).uplink
        if not link.up:
            self.sim.schedule_fast(0.0, event.fail, LinkDownError(
                f"link {link.name!r} is down"))
            return
        deliver_at = link.offer(payload_bits + DEFAULT_HEADER_BITS)
        if deliver_at is not None:
            self.sim.call_at(deliver_at, self._deliver_payload_notify,
                             link, recipient, payload, event)

    def _deliver_payload_notify(self, link, recipient: str, payload: Any,
                                event: Event) -> None:
        self._deliver_payload_up(link, recipient, payload)
        if not event.triggered:
            event.succeed(None)

    def has_pna(self, pna_id: str) -> bool:
        return self._row_of(pna_id) is not None

    def owns(self, idx: int) -> bool:
        """Was node ``idx`` ever registered here?  Registering sets its
        ``pna_state``, which never returns to ``STATE_NONE``."""
        return idx < self._n and self.value("pna_state", idx) != 0

    def count_owned(self, rows) -> int:
        """How many nodes at ``rows`` (ints or a ``range``) :meth:`owns`."""
        ix = as_index(rows) if type(rows) is range else rows[rows < self._n]
        return int(np.count_nonzero(self.view("pna_state", ix)))

    def _registered(self, pna_id: str) -> int:
        idx = self._row_of(pna_id)
        if idx is None:
            raise NetworkError(f"unknown PNA {pna_id!r}")
        return idx

    # -- delivery ---------------------------------------------------------
    def _deliver_payload_up(self, link, recipient: str, payload: Any) -> None:
        link.count_delivery()
        receive = self._receivers.get(recipient)
        if receive is None:
            self.undeliverable += 1  # unregistered while in flight
            return
        receive(payload)

    def _deliver_payload_down(self, link, pna_id: str, payload: Any) -> None:
        link.count_delivery()
        idx = self._row_of(pna_id)
        if idx is None:
            self.undeliverable += 1
            return
        self._receiver_of(idx)(payload)

    # -- batched heartbeats ----------------------------------------------
    def send_heartbeats(self, idxs: np.ndarray, recipient: str,
                        payload_bits: float) -> None:
        """Uplink-send one heartbeat from each PNA row in ``idxs``.

        The cohort fast path, one column pass: the senders' state and
        instance codes are snapshotted (the heartbeat's content), every
        uplink is reserved through :func:`~repro.net.link.offer_rows`
        (identical FIFO math, byte accounting and loss draws as
        :meth:`~repro.net.link.Link.offer`), and deliveries are grouped
        by arrival instant, in order of first appearance, so each
        distinct instant costs **one** calendar entry.  With a homogeneous fleet that is a
        single entry per tick.  ``idxs`` must be distinct.
        """
        ix = as_index(idxs)
        linked = self.view("_pna_linked", ix)
        if not linked.all():
            idxs = idxs[linked != 0]  # node vanished: nothing to send
            ix = as_index(idxs)
        now = self.sim.now
        deliver = offer_rows(self.uplinks, ix,
                             payload_bits + DEFAULT_HEADER_BITS, now,
                             distinct=True)
        # the heartbeats' content: copies or a held value, never views
        states = self.view("pna_state", ix)
        insts = self.view("pna_instance", ix)
        arrived = deliver == deliver  # NaN: link down or message lost
        if not arrived.all():
            idxs, states, insts, deliver = (
                idxs[arrived], states[arrived], insts[arrived],
                deliver[arrived])
        elif type(ix) is slice:
            states, insts = (column if column.strides == (0,)
                             else column.copy() for column in (states, insts))
        if not deliver.size:
            return
        call_at = self.sim.call_at
        first = deliver[0]
        if (deliver == first).all():
            call_at(float(first), self._deliver_batch, recipient, idxs,
                    states, insts)
            return
        instants, firsts, group = np.unique(deliver, return_index=True,
                                            return_inverse=True)
        order = np.argsort(group, kind="stable")
        bounds = np.cumsum(np.bincount(group))
        for g in np.argsort(firsts).tolist():
            members = order[bounds[g - 1] if g else 0:bounds[g]]
            call_at(float(instants[g]), self._deliver_batch, recipient,
                    idxs[members], states[members], insts[members])

    def _deliver_batch(self, recipient: str, idxs: np.ndarray,
                       states: np.ndarray, insts: np.ndarray) -> None:
        count_deliveries(self.uplinks, as_index(idxs))
        receive_cohort = self._cohort_receivers.get(recipient)
        if receive_cohort is not None:
            receive_cohort(idxs, states, insts)
            return
        receive = self._receivers.get(recipient)
        if receive is None:
            self.undeliverable += len(idxs)
            return
        for payload in self.heartbeat_payloads(idxs, states, insts):
            receive(payload)
