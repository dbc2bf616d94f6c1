"""A bulk fleet holds no Python object per PNA.

``OddCISystem.add_pnas`` builds a :class:`~repro.core.pna.PNABlock`
that owns a row range of the router's columns; a member's
:class:`~repro.core.pna.PNA` is a view built on first access and
cached.  These checks pin that the bulk path builds no view, that a
view is stable, and that what is changed through a view reaches the
block's next wakeup and heartbeat tick.
"""

import gc
import tracemalloc

import pytest

from repro.certify.adversary import Adversary
from repro.core import OddCISystem, PNAState
from repro.core.census import NodeInterner
from repro.core.pna import PNA, PNABlock
from repro.core.taskloop import _HELD, CohortTaskEngine
from repro.workloads import uniform_bag

#: tracemalloc bytes per node of ``add_pnas(20_000)``: 14 measured
#: once a link table keeps loss, rate and latency once per profile
#: (the router's online, state and linked bytes, and two link-table
#: rows of up and a 4-byte profile number); 39 when each row held its
#: own rate and latency, 213 when set-up wrote every node and link
#: column, 608 when every node was a PNA object with dict entries in
#: the interner and cohort.
BYTES_PER_NODE = 16

#: the Router's node columns a lockstep cycle keeps held
_ROUTER_HELD = ("pna_online", "pna_state", "_pna_linked", "pna_instance",
                "heartbeats_sent", "wakeups_seen", "wakeups_accepted",
                "dve_slot", "dve_engine")

#: tracemalloc peak bytes per node over the run phase (submit, wakeup,
#: heartbeats, the whole bag) of a 20,000-node cohort cycle: 62.4
#: measured once the census keeps its time and instance columns as
#: 1-byte codes, the Router's node columns and the engine's task-id
#: and row columns are held as one value or one ``k + c`` run, and the
#: result hop commits a range of task ids as a slice of the bag; 153
#: once the Backend keeps its assignment and completion
#: instants as 1-byte codes and the task engine's and link tables'
#: columns a lockstep hop writes one value into are held as that value
#: (test_lockstep_cycle_holds_its_columns_as_one_value); 294 before,
#: once the task engine files slot ranges and one-value columns instead
#: of copies, keeps a join's timeout and executor once and its counters
#: and rows at int32, the Backend builds no lease columns for a
#: lease-free bag and the link tables keep loss, rate and latency once
#: per profile; 543 before that.
CYCLE_BYTES_PER_NODE = 68


@pytest.fixture
def built(monkeypatch):
    """Count the PNAs constructed or set up as views (``PNA.__new__``
    cannot be patched and restored on CPython 3.11: every PNA, hand-
    built or a view, runs ``_setup``)."""
    calls = []
    setup = PNA._setup

    def spy(self, *args):
        calls.append(args[1])
        setup(self, *args)

    monkeypatch.setattr(PNA, "_setup", spy)
    return calls


def _bag(n_tasks):
    return uniform_bag(n_tasks, image_bits=1e5, ref_seconds=5.0,
                       input_bits=4096.0, result_bits=4096.0)


def test_add_pnas_builds_no_pna_and_few_bytes(built):
    system = OddCISystem(seed=0)
    gc.collect()
    tracemalloc.start()
    try:
        block = system.add_pnas(20_000, heartbeat_interval_s=10.0)
        allocated, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built == []
    assert allocated / 20_000 < BYTES_PER_NODE
    assert len(block) == len(system.pnas) == 20_000
    assert system.idle_count() == 20_000
    assert built == []


def test_untraced_cycle_builds_no_view(built, dve):
    system = OddCISystem(seed=4, maintenance_interval_s=20.0)
    block = system.add_pnas(2_000, heartbeat_interval_s=10.0,
                            dve_poll_interval_s=5.0)
    with dve.cohort():
        system.sim.run(until=25.0)  # two heartbeat ticks
        submission = system.provider.submit_job(
            _bag(6_000), target_size=2_000, heartbeat_interval_s=10.0)
        report = system.provider.run_job_to_completion(submission,
                                                       limit_s=1e5)
    assert report.n_tasks == 6_000 and report.distinct_workers == 2_000
    assert system.controller.counters["heartbeats"] >= 4_000
    assert system.busy_count() == 2_000
    assert built == [] and block._views == {}


def test_untraced_cycle_forms_no_node_id(built, dve, monkeypatch):
    """An untraced 20,000-node cycle keys every node by its row: the
    interner names no row, no member forms its id (not even for a
    probability draw's stream), and the task engine holds no id
    column."""
    named = []
    id_of = NodeInterner.id_of

    def spy(interner, idx):
        named.append(idx)
        return id_of(interner, idx)

    monkeypatch.setattr(NodeInterner, "id_of", spy)
    system = OddCISystem(seed=4, maintenance_interval_s=20.0)
    block = system.add_pnas(20_000, heartbeat_interval_s=10.0,
                            dve_poll_interval_s=5.0)
    with dve.cohort():
        submission = system.provider.submit_job(
            _bag(60_000), target_size=20_000, heartbeat_interval_s=10.0)
        report = system.provider.run_job_to_completion(submission,
                                                       limit_s=1e5)
    assert report.n_tasks == 60_000 and report.distinct_workers == 20_000
    (engine,) = system.router._task_engines.values()
    assert engine.members_joined == 20_000
    assert named == [] and built == [] and len(block) == 20_000
    assert not any(name.startswith("pna:") for name in system.sim._rng_streams)
    columns = [getattr(engine, name) for name in type(engine).__slots__]
    assert not any(isinstance(value, str) for column in columns
                   if isinstance(column, list) for value in column)


def test_cohort_cycle_run_phase_stays_under_byte_budget(dve):
    system = OddCISystem(seed=1, maintenance_interval_s=60.0)
    system.add_pnas(20_000, heartbeat_interval_s=10.0,
                    dve_poll_interval_s=15.0)
    job = _bag(80_000)
    gc.collect()
    with dve.cohort():
        tracemalloc.start()
        try:
            submission = system.provider.submit_job(
                job, target_size=20_000, heartbeat_interval_s=10.0)
            report = system.provider.run_job_to_completion(submission,
                                                           limit_s=1e5)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert report.n_tasks == 80_000 and report.distinct_workers == 20_000
    assert peak / 20_000 < CYCLE_BYTES_PER_NODE


def test_result_hop_adds_no_more_than_the_assignment_hop(dve,
                                                        monkeypatch):
    """The bytes each lockstep hop allocates above what was live when it
    started (tracemalloc ``reset_peak`` around each handler): the
    result hop takes a range of task ids as a slice of the bag, so it
    builds no cohort-sized index and stays within the assignment hop's
    (3.1 against 10.1 B/node measured; 37.5 against 18.1 before)."""
    hops = {}

    def traced(name):
        handler = getattr(CohortTaskEngine, name)

        def hop(*args):
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = handler(*args)
            hops[name] = max(hops.get(name, 0),
                             tracemalloc.get_traced_memory()[1] - live)
            return result
        monkeypatch.setattr(CohortTaskEngine, name, hop)

    for name in ("_handle_request_arrivals", "_handle_assign_arrivals",
                 "_handle_result_arrivals"):
        traced(name)
    system = OddCISystem(seed=1, maintenance_interval_s=60.0)
    system.add_pnas(20_000, heartbeat_interval_s=10.0,
                    dve_poll_interval_s=15.0)
    job = _bag(80_000)
    gc.collect()
    with dve.cohort():
        tracemalloc.start()
        try:
            submission = system.provider.submit_job(
                job, target_size=20_000, heartbeat_interval_s=10.0)
            report = system.provider.run_job_to_completion(submission,
                                                           limit_s=1e5)
        finally:
            tracemalloc.stop()
    assert report.n_tasks == 80_000 and len(hops) == 3
    assert hops["_handle_result_arrivals"] \
        <= hops["_handle_assign_arrivals"], hops


def test_lockstep_cycle_holds_its_columns_as_one_value(dve):
    """A lockstep 20,000-node cycle writes one value per hop (or one
    ``k + c`` run) into the task engine's columns, the Router's node
    columns and the link tables' busy, bits and delivered, so none of
    them is ever an array, and the Backend's assignment and completion
    instants and the census's time and instance columns stay 1-byte
    codes."""
    system = OddCISystem(seed=2, maintenance_interval_s=60.0)
    system.add_pnas(20_000, heartbeat_interval_s=10.0,
                    dve_poll_interval_s=15.0)
    with dve.cohort():
        submission = system.provider.submit_job(
            _bag(80_000), target_size=20_000, heartbeat_interval_s=10.0)
        report = system.provider.run_job_to_completion(submission,
                                                       limit_s=1e5)
    assert report.n_tasks == 80_000 and report.distinct_workers == 20_000
    (engine,) = system.router._task_engines.values()
    assert engine.members_joined == 20_000
    assert [len(getattr(engine, name)) for name in engine._COLUMNS] \
        == [0] * len(_HELD | {"_row": 0})
    router = system.router
    assert [len(getattr(router, name)) for name in _ROUTER_HELD] \
        == [0] * len(_ROUTER_HELD)
    census = system.controller.census
    assert (census._seen.itemsize, census._inst.itemsize) == (1, 1)
    assert {column.itemsize for column in census._member_seen.values()} \
        == {1}
    for table in (system.router.uplinks, system.router.downlinks):
        assert (len(table.busy), len(table.bits), len(table.delivered)) \
            == (0, 0, 0)
    backend = submission.backend
    assert backend._assigned_at.nbytes == backend._completed_at.nbytes \
        == 80_000


def test_views_are_cached_and_stable(built):
    system = OddCISystem(seed=0)
    first = system.add_pnas(40)
    system.add_pnas(40)
    pnas = system.pnas
    assert pnas[3] is pnas[3] is first[3] is first.view(first.lo + 3)
    assert pnas[45] is pnas[-35] and pnas[45].pna_id == "pna-45"
    assert pnas[45].census_idx == 45
    assert list(pnas)[45] is pnas[45]
    assert pnas[10:13] == [pnas[10], pnas[11], pnas[12]]
    assert len(built) == len(set(built)) == 80  # each view built once
    with pytest.raises(IndexError):
        pnas[80]
    assert system.add_pna() is system.pnas[80]


def _spied_wakeups(monkeypatch):
    passes = []
    wakeup = PNABlock._wakeup

    def spy(block, payload, signature):
        passes.append(len(block))
        wakeup(block, payload, signature)

    monkeypatch.setattr(PNABlock, "_wakeup", spy)
    return passes


def _system(n=64):
    system = OddCISystem(seed=9, maintenance_interval_s=20.0)
    system.add_pnas(n, heartbeat_interval_s=10.0, dve_poll_interval_s=5.0)
    return system


def _submit(system, n_tasks, target):
    return system.provider.submit_job(_bag(n_tasks), target_size=target,
                                      lifetime_s=1e5,
                                      heartbeat_interval_s=10.0)


def test_adversary_set_through_a_view_reaches_the_wakeup(monkeypatch, dve):
    passes = _spied_wakeups(monkeypatch)
    system = _system()
    zombie = system.pnas[7]
    zombie.set_adversary(Adversary("heartbeat_spoof", zombie.pna_id))
    with dve.cohort():
        system.sim.run(until=15.0)
        _submit(system, 640, 64)
        system.sim.run(until=30.0)
    assert passes == []  # the view's profile keeps the member-wise path
    assert zombie.state is PNAState.BUSY and zombie.dve is None
    assert system.busy_count() == 64
    assert zombie.adversary is system.router.adversaries[7]
    zombie.clear_adversary()
    assert zombie.adversary is None and 7 not in system.router.adversaries


def test_shutdown_and_restart_through_a_view_reach_tick_and_wakeup(
        monkeypatch, dve):
    passes = _spied_wakeups(monkeypatch)
    system = _system()
    node = system.pnas[20]
    node.shutdown()
    with dve.cohort():
        system.sim.run(until=15.0)
        assert node.heartbeats_sent == 0 and system.pnas[21].heartbeats_sent
        _submit(system, 640, 64)
        system.sim.run(until=16.0)
        assert passes == [64]  # column pass, the view's row left out
        assert node.state is PNAState.IDLE and node.wakeups_seen == 0
        assert system.busy_count() == 63
        node.restart()
        system.sim.run(until=21.0)
    assert node.heartbeats_sent == 1 and node.online
    assert system.pnas[21].heartbeats_sent == 2


def test_retargeted_controller_and_interval_reach_the_tick():
    system = _system()
    router, sim = system.router, system.sim
    got = []
    router.register_component("sink", got.append)
    mover, stretched = system.pnas[5], system.pnas[40]
    mover.controller_id = "sink"
    stretched.heartbeat_interval_s = 25.0
    stretched._restart_heartbeat()
    sim.run(until=20.5)
    assert [p.pna_id for p in got] == ["pna-5", "pna-5"]
    assert stretched.heartbeats_sent == 0
    assert mover.heartbeats_sent == 2
    # every other member stayed in the block's cohort range
    assert all(system.pnas[k].heartbeats_sent == 2
               for k in range(64) if k not in (5, 40))
    assert system.controller.counters["heartbeats"] == 62 * 2
    sim.run(until=25.5)
    assert stretched.heartbeats_sent == 1


def test_changed_interval_view_takes_the_member_wise_wakeup(monkeypatch,
                                                             dve):
    passes = _spied_wakeups(monkeypatch)
    system = _system()
    node = system.pnas[33]
    node.heartbeat_interval_s = 30.0
    node._restart_heartbeat()
    with dve.cohort():
        system.sim.run(until=15.0)
        _submit(system, 640, 64)
        system.sim.run(until=16.0)
    assert passes == []  # the wakeup re-keys that member's cohort
    assert node.heartbeat_interval_s == 10.0
    assert system.busy_count() == 64
