"""Per-shard fault isolation: one crashed controller, federation lives."""

from repro.core import NetworkDescriptor, OddCISystem
from repro.faults import active_plan, parse_fault_plan
from repro.workloads import uniform_bag


def federation_under(plan_text, capacity=6, seed=0):
    networks = [
        NetworkDescriptor(name="desk", capacity=capacity,
                          cost_per_node_hour=0.5),
        NetworkDescriptor(name="dtv", capacity=capacity,
                          cost_per_node_hour=1.0),
        NetworkDescriptor(name="cell", capacity=capacity,
                          cost_per_node_hour=2.0),
    ]
    with active_plan(parse_fault_plan(plan_text)):
        system = OddCISystem(
            networks=networks, seed=seed, placement="spread",
            maintenance_interval_s=20.0)
    system.build_fleets(heartbeat_interval_s=10.0, dve_poll_interval_s=5.0)
    return system


def test_crashing_one_shard_leaves_the_other_two_dispatching():
    system = federation_under(
        "controller_crash@120,dur=100,target=dtv")
    job = uniform_bag(400, image_bits=1e6, ref_seconds=8.0)
    submission = system.provider.submit_job(
        job, target_size=12, heartbeat_interval_s=10.0,
        lease_factor=3.0, worst_case_slowdown=2.0,
        release_on_completion=False)
    backend = submission.backend

    snapshots = {}

    def snapshot(tag):
        snapshots[tag] = dict(backend.assigned_by_network)

    # Inside the crash window: the injector downed dtv's controller only.
    def probe_mid():
        snapshot("mid")
        assert not system.shard("dtv").controller.alive
        assert system.shard("desk").controller.alive
        assert system.shard("cell").controller.alive

    system.sim.call_at(119.0, snapshot, "pre")
    system.sim.call_at(170.0, probe_mid)
    system.sim.call_at(219.0, snapshot, "late")
    system.provider.run_job_to_completion(submission, limit_s=1e5)

    assert backend.done
    # The surviving shards kept dispatching through the whole window.
    for network in ("desk", "cell"):
        assert snapshots["late"][network] > snapshots["mid"][network] \
            > snapshots["pre"][network] > 0, network
    # Recovery: the injector restored dtv and recruitment resumed there.
    assert system.shard("dtv").controller.alive
    assert system.shard("dtv").controller.counters["crashes"] == 1
    assert system.shard("desk").controller.counters["crashes"] == 0
    assert system.shard("cell").controller.counters["crashes"] == 0
    assert backend.completed_by_network["desk"] > 0
    assert backend.completed_by_network["cell"] > 0
    assert [kind for _t, kind in system.fault_injector.fired] == \
        ["controller_crash"]


def test_crash_target_by_controller_id():
    system = federation_under(
        "controller_crash@120,dur=60,target=controller:cell")

    def probe_mid():
        assert not system.shard("cell").controller.alive
        assert system.shard("desk").controller.alive
        assert system.shard("dtv").controller.alive

    system.sim.call_at(150.0, probe_mid)
    system.sim.run(until=300.0)
    assert system.shard("cell").controller.alive
    assert system.shard("cell").controller.counters["crashes"] == 1


def test_crash_without_target_downs_every_shard():
    system = federation_under("controller_crash@120,dur=60")

    def probe_mid():
        for shard in system.shards:
            assert not shard.controller.alive, shard.name

    system.sim.call_at(150.0, probe_mid)
    system.sim.run(until=300.0)
    for shard in system.shards:
        assert shard.controller.alive, shard.name
        assert shard.controller.counters["crashes"] == 1
