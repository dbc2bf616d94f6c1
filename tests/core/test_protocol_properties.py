"""Property-based tests over the OddCI control protocol.

Hypothesis drives random management workloads (instance creation,
resizing, destruction, churn) against a live system and checks the
Controller's invariants after every settle period.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import InstanceStatus, OddCISystem, PNAState
from repro.workloads import uniform_bag


def busy_online(system):
    return [p for p in system.pnas if p.online and
            p.state is PNAState.BUSY]


@st.composite
def management_script(draw):
    """A short random sequence of management actions."""
    n_actions = draw(st.integers(min_value=1, max_value=4))
    actions = []
    for _ in range(n_actions):
        kind = draw(st.sampled_from(["submit", "resize", "destroy",
                                     "churn"]))
        actions.append((kind, draw(st.integers(min_value=1, max_value=6))))
    return actions


@given(script=management_script(), seed=st.integers(0, 100))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_controller_invariants_under_random_management(script, seed):
    system = OddCISystem(seed=seed, maintenance_interval_s=15.0)
    system.add_pnas(12, heartbeat_interval_s=10.0, dve_poll_interval_s=5.0)
    submissions = []
    for kind, arg in script:
        if kind == "submit":
            job = uniform_bag(50_000, image_bits=1e6, ref_seconds=300.0)
            submissions.append(system.provider.submit_job(
                job, target_size=min(arg + 2, 8),
                heartbeat_interval_s=10.0,
                release_on_completion=False))
        elif kind == "resize" and submissions:
            target = submissions[arg % len(submissions)]
            record = system.controller.instance(target.instance_id)
            if record.status not in (InstanceStatus.DISMANTLING,
                                     InstanceStatus.DESTROYED):
                system.provider.resize(target.instance_id,
                                       max(1, arg))
        elif kind == "destroy" and submissions:
            target = submissions[arg % len(submissions)]
            record = system.controller.instance(target.instance_id)
            if record.status not in (InstanceStatus.DISMANTLING,
                                     InstanceStatus.DESTROYED):
                system.provider.release(target.instance_id)
        elif kind == "churn":
            for p in system.pnas[:arg]:
                if p.online:
                    p.shutdown()
                else:
                    p.restart()
        system.sim.run(until=system.sim.now + 120.0)

    # settle
    system.sim.run(until=system.sim.now + 300.0)

    # Invariant 1: a PNA belongs to at most one instance, and busy PNAs
    # always carry an instance id.
    for p in system.pnas:
        if p.state is PNAState.BUSY:
            assert p.instance_id is not None
        else:
            assert p.instance_id is None
            assert p.dve is None

    # Invariant 2: instance membership counts only known PNAs, without
    # duplicates across live instances.
    seen = {}
    census = system.controller.census
    for record in system.controller.instances.values():
        if record.status is InstanceStatus.DESTROYED:
            continue
        for pna_id, _seen in census.members_items(record.census_handle):
            assert pna_id not in seen, (
                f"{pna_id} in both {seen.get(pna_id)} and "
                f"{record.instance_id}")
            seen[pna_id] = record.instance_id

    # Invariant 3: destroyed/dismantling instances converge to empty and
    # no online PNA still claims them.
    for record in system.controller.instances.values():
        if record.status in (InstanceStatus.DISMANTLING,
                             InstanceStatus.DESTROYED):
            claimants = [p for p in system.pnas
                         if p.online and p.instance_id ==
                         record.instance_id]
            assert not claimants

    # Invariant 4: live instances are not wildly over target (trim keeps
    # them within tolerance after settling; allow the band plus one
    # maintenance round of slack).
    for record in system.controller.instances.values():
        if record.status is InstanceStatus.ACTIVE:
            limit = record.spec.target_size * (
                1 + record.spec.size_tolerance) + 1
            online_members = [pid for pid, _seen
                              in census.members_items(record.census_handle)
                              if any(p.pna_id == pid and p.online
                                     for p in system.pnas)]
            assert len(online_members) <= limit + record.excess


@given(seed=st.integers(0, 1000))
@settings(max_examples=10, deadline=None)
def test_heartbeat_conservation(seed):
    """Every online PNA's latest heartbeat is reflected in the registry,
    and idle+busy accounting is conserved."""
    system = OddCISystem(seed=seed, maintenance_interval_s=1e6)
    system.add_pnas(10, heartbeat_interval_s=10.0)
    job = uniform_bag(1000, image_bits=1e5, ref_seconds=100.0)
    system.provider.submit_job(job, target_size=4,
                               heartbeat_interval_s=10.0)
    system.sim.run(until=200.0)
    assert system.controller.census.registry_size() == 10
    idle = system.controller.idle_estimate()
    alive = system.controller.alive_estimate()
    busy = alive - idle
    assert busy == system.busy_count()
    assert idle == 10 - system.busy_count()
