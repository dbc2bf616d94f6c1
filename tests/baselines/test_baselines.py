"""Tests for the DCI comparator models and Table I derivation."""

import math

import pytest

from repro.baselines import (
    DesktopGrid,
    IaaSProvider,
    OddCIModel,
    ProvisionResult,
    RequirementThresholds,
    VoluntaryComputing,
    evaluate_requirements,
)
from repro.errors import BaselineError
from repro.net.message import MEGABYTE
from repro.workloads import uniform_bag


# -- ProvisionResult validation -----------------------------------------------

def test_provision_result_validation():
    with pytest.raises(BaselineError):
        ProvisionResult(requested=0, acquired=0, ready_time_s=0,
                        per_node_manual_effort=False)
    with pytest.raises(BaselineError):
        ProvisionResult(requested=5, acquired=6, ready_time_s=0,
                        per_node_manual_effort=False)
    with pytest.raises(BaselineError):
        ProvisionResult(requested=5, acquired=5, ready_time_s=-1,
                        per_node_manual_effort=False)


# -- VoluntaryComputing -----------------------------------------------------------

def adoption_at(v, t_days):
    """Volunteers enrolled ``t_days`` after the campaign launch: the
    logistic curve ``time_to_reach`` inverts."""
    ratio = v.ceiling / v.seed_volunteers - 1.0
    return v.ceiling / (1.0 + ratio * math.exp(-v.growth_per_day * t_days))


def test_voluntary_logistic_growth_monotone():
    v = VoluntaryComputing()
    counts = [adoption_at(v, t) for t in (0, 30, 90, 365)]
    assert counts == sorted(counts)
    assert counts[0] == pytest.approx(v.seed_volunteers, rel=0.01)
    assert counts[-1] < v.ceiling


def test_voluntary_time_to_reach_inverse_of_adoption():
    v = VoluntaryComputing()
    for n in (1_000, 100_000, 5_000_000):
        days = v.time_to_reach(n)
        assert adoption_at(v, days) == pytest.approx(n, rel=1e-6)


def test_voluntary_scales_high_but_slowly():
    v = VoluntaryComputing()
    big = v.provision(1_000_000)
    assert big.acquired == 1_000_000
    assert big.ready_time_s > 30 * 86400.0  # months, not minutes
    assert big.per_node_manual_effort


def test_voluntary_above_ceiling():
    v = VoluntaryComputing(ceiling=1000, seed_volunteers=10)
    res = v.provision(10_000)
    assert res.acquired == 999
    assert math.isinf(res.ready_time_s)


def test_voluntary_validation():
    with pytest.raises(BaselineError):
        VoluntaryComputing(ceiling=10, seed_volunteers=10)
    v = VoluntaryComputing()
    with pytest.raises(BaselineError):
        v.provision(0)
    with pytest.raises(BaselineError):
        v.time_to_reach(0)
    with pytest.raises(BaselineError):
        v.staging_time(0, 1)


# -- DesktopGrid -------------------------------------------------------------------

def test_desktop_grid_scale_capped():
    g = DesktopGrid()
    res = g.provision(1_000_000)
    assert res.acquired == g.max_scale == 25_000
    assert res.per_node_manual_effort


def test_desktop_grid_small_requests_fast_but_manual():
    g = DesktopGrid()
    res = g.provision(100)
    assert res.acquired == 100
    # within pre-federated domains: no negotiation, just setup
    assert res.ready_time_s < 3600.0


def test_desktop_grid_new_domains_cost_negotiation():
    g = DesktopGrid()
    res = g.provision(10_000)  # needs 10 domains, 5 pre-federated
    assert res.ready_time_s > 5 * 86400.0


def test_desktop_grid_validation():
    with pytest.raises(BaselineError):
        DesktopGrid(domain_count=0)
    with pytest.raises(BaselineError):
        DesktopGrid(pre_federated_domains=99)
    with pytest.raises(BaselineError):
        DesktopGrid(admin_parallelism=0)


# -- IaaS -------------------------------------------------------------------------

def test_iaas_fast_within_quota():
    c = IaaSProvider()
    res = c.provision(100)
    assert res.acquired == 100
    assert res.ready_time_s < 600.0
    assert not res.per_node_manual_effort


def test_iaas_quota_cap():
    c = IaaSProvider(vm_quota=500)
    res = c.provision(10_000)
    assert res.acquired == 500
    assert "quota" in res.notes


def test_iaas_staging_scales_linearly_with_n():
    c = IaaSProvider()
    one = c.staging_time(10 * MEGABYTE, 1)
    thousand = c.staging_time(10 * MEGABYTE, 1000)
    assert thousand == pytest.approx(1000 * one)


def test_iaas_validation():
    with pytest.raises(BaselineError):
        IaaSProvider(vm_quota=0)
    with pytest.raises(BaselineError):
        IaaSProvider(api_requests_per_s=0)
    with pytest.raises(BaselineError):
        IaaSProvider(store_bps=0)


# -- OddCI model ----------------------------------------------------------------------

def test_oddci_provision_time_independent_of_n():
    o = OddCIModel()
    t_small = o.provision(100).ready_time_s
    t_large = o.provision(10_000_000).ready_time_s
    assert t_small == pytest.approx(t_large)


def test_oddci_staging_independent_of_n():
    o = OddCIModel()
    assert o.staging_time(10 * MEGABYTE, 1) == \
        pytest.approx(o.staging_time(10 * MEGABYTE, 10_000_000))


def test_oddci_audience_cap():
    o = OddCIModel(population=1000)
    res = o.provision(5000)
    assert res.acquired == 1000


def test_oddci_validation():
    with pytest.raises(BaselineError):
        OddCIModel(population=0)
    with pytest.raises(BaselineError):
        OddCIModel(beta_bps=0)


# -- Table I derivation ---------------------------------------------------------------

def test_requirements_matrix_matches_paper():
    """Only OddCI ticks all three requirement boxes (Table I)."""
    matrix = {
        m.name: evaluate_requirements(m)
        for m in (VoluntaryComputing(), DesktopGrid(), IaaSProvider(),
                  OddCIModel())
    }
    v = matrix["voluntary-computing"]
    assert v["extremely_high_scalability"]          # huge fleets... eventually
    assert not v["on_demand_instantiation"]         # campaign, no lifecycle API
    assert not v["efficient_setup"]                 # manual installs

    g = matrix["desktop-grid"]
    assert not g["extremely_high_scalability"]      # capped at ~25k
    assert g["on_demand_instantiation"]             # matchmaking
    assert not g["efficient_setup"]                 # per-node configuration

    c = matrix["iaas"]
    assert not c["extremely_high_scalability"]      # quota
    assert c["on_demand_instantiation"]
    assert c["efficient_setup"]

    o = matrix["oddci"]
    assert all(o.values())


def test_oddci_job_makespan_beats_iaas_at_scale():
    job = uniform_bag(100_000, image_bits=10 * MEGABYTE, ref_seconds=60.0)
    oddci = OddCIModel().job_makespan(job, 5000)
    iaas = IaaSProvider().job_makespan(job, 5000)
    # At equal fleet size the broadcast staging wins.
    assert oddci < iaas


def test_job_makespan_errors_on_zero_acquisition():
    v = VoluntaryComputing(ceiling=100, seed_volunteers=10)
    job = uniform_bag(10)
    # acquired is ceiling-1, never 0, so use a model that can yield 0:
    class Dead(OddCIModel):
        def provision(self, n):
            return ProvisionResult(requested=n, acquired=0, ready_time_s=0,
                                   per_node_manual_effort=False)

    with pytest.raises(BaselineError):
        Dead().job_makespan(job, 10)
