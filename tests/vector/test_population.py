"""Tests for VectorPopulation and single jobs on a VectorOddCISystem."""

import numpy as np
import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.vector import VectorOddCISystem, VectorPopulation
from repro.workloads import REFERENCE_STB, uniform_bag
from repro.net.message import MEGABYTE


def make_pop(n=10_000, seed=0, **kwargs):
    return VectorPopulation(n, seed=seed, **kwargs)


def make_system(pop, **kwargs):
    return VectorOddCISystem(population=pop, **kwargs)


# -- population ---------------------------------------------------------------

def test_population_census():
    pop = make_pop(n=100_000, powered_fraction=0.8, in_use_fraction=0.5)
    assert pop.n == 100_000
    assert 78_000 < pop.powered_count < 82_000
    assert pop.idle_count == pop.powered_count
    assert pop.busy_count == 0


def test_population_validation():
    with pytest.raises(ConfigurationError):
        VectorPopulation(0, seed=0)
    with pytest.raises(ConfigurationError):
        VectorPopulation(10, seed=0, in_use_fraction=1.5)
    with pytest.raises(ConfigurationError):
        VectorPopulation(10, seed=0, powered_fraction=-0.1)


def test_recruit_probability_gate():
    pop = make_pop(n=100_000)
    recruited = pop.recruit(0.25)
    assert 23_000 < recruited.size < 27_000
    assert pop.busy_count == recruited.size
    assert pop.idle_count == pop.n - recruited.size


def test_recruit_excludes_busy_and_off():
    pop = make_pop(n=10_000, powered_fraction=0.5)
    first = pop.recruit(1.0)
    assert first.size == pop.powered_count
    second = pop.recruit(1.0)
    assert second.size == 0  # everyone eligible is busy


def test_recruit_respects_requirement_match_fraction():
    pop = make_pop(n=100_000, requirement_match_fraction=0.3)
    recruited = pop.recruit(1.0)
    assert 28_000 < recruited.size < 32_000


def test_recruit_validation():
    pop = make_pop(n=10)
    with pytest.raises(ConfigurationError):
        pop.recruit(0.0)
    with pytest.raises(ConfigurationError):
        pop.recruit(1.1)


def test_release_specific_and_all():
    pop = make_pop(n=1000)
    recruited = pop.recruit(1.0)
    pop.release(recruited[:100])
    assert pop.busy_count == recruited.size - 100
    pop.release()
    assert pop.busy_count == 0


def test_device_factors_match_modes():
    pop = make_pop(n=50_000, in_use_fraction=0.5)
    in_use_factor = REFERENCE_STB.factor.__self__.factor  # noqa: just use profile
    from repro.workloads import PowerMode

    f_use = REFERENCE_STB.factor(PowerMode.IN_USE)
    f_stb = REFERENCE_STB.factor(PowerMode.STANDBY)
    vals = set(np.unique(pop.device_factor).tolist())
    assert vals <= {f_use, f_stb}


# -- single jobs ----------------------------------------------------------------

def test_run_job_basic():
    pop = make_pop(n=5000, seed=1)
    system = make_system(pop, beta_bps=1_000_000.0, delta_bps=150_000.0)
    job = uniform_bag(50_000, image_bits=10 * MEGABYTE, ref_seconds=60.0)
    result = system.run_job(job, target_size=1000)
    assert 900 < result.recruited < 1100
    assert result.makespan_s > result.wakeup_mean_s
    assert 0.0 < result.efficiency <= 1.0
    # nodes released afterwards
    assert pop.busy_count == 0


def test_wakeup_mean_close_to_1_5_I_over_beta():
    pop = make_pop(n=20_000, seed=2)
    system = make_system(pop, beta_bps=1_000_000.0)
    job = uniform_bag(100_000, image_bits=10 * MEGABYTE, ref_seconds=60.0)
    result = system.run_job(job, target_size=10_000)
    w_model = 1.5 * job.image_bits / 1_000_000.0
    # Xlet+config+overheads make the carousel slightly longer than I.
    assert result.wakeup_mean_s == pytest.approx(w_model, rel=0.1)


def test_efficiency_grows_with_phi():
    pop = make_pop(n=2000, seed=3)
    system = make_system(pop)
    from repro.workloads import bag_from_phi

    low = system.run_job(bag_from_phi(20_000, 10.0), target_size=200)
    pop2 = make_pop(n=2000, seed=3)
    system2 = make_system(pop2)
    high = system2.run_job(bag_from_phi(20_000, 10_000.0), target_size=200)
    assert high.efficiency > low.efficiency


def test_run_job_validation():
    pop = make_pop(n=100)
    system = make_system(pop)
    job = uniform_bag(10)
    with pytest.raises(ConfigurationError):
        system.run_job(job, target_size=0)
    pop.recruit(1.0)  # exhaust the population
    with pytest.raises(AnalysisError):
        system.run_job(job, target_size=10)


def test_invalid_channel_rates():
    pop = make_pop(n=10)
    for rates in ({"beta_bps": 0}, {"delta_bps": 0},
                  {"beta_bps": -1.0}, {"delta_bps": -1.0}):
        with pytest.raises(ConfigurationError):
            make_system(pop, **rates)
        with pytest.raises(ConfigurationError):
            VectorOddCISystem(10, **rates)


def test_heterogeneous_modes_use_bucketed_waterfill():
    pop = make_pop(n=3000, seed=4, in_use_fraction=0.5)
    system = make_system(pop)
    job = uniform_bag(30_000, image_bits=MEGABYTE, ref_seconds=10.0)
    result = system.run_job(job, target_size=1000)
    assert result.makespan_s > 0
    assert 0 < result.efficiency <= 1.0


def test_million_node_run_is_feasible():
    """Requirement I at the vector tier: 10^6 nodes end to end."""
    pop = make_pop(n=1_000_000, seed=5)
    system = make_system(pop)
    job = uniform_bag(4_000_000, image_bits=8 * MEGABYTE, ref_seconds=30.0)
    result = system.run_job(job, target_size=1_000_000)
    assert result.recruited > 900_000
    assert result.efficiency > 0.1
