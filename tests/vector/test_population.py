"""Tests for VectorPopulation and single jobs on a VectorOddCISystem."""

import numpy as np
import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.experiments.vector_scale import storm_plan
from repro.vector import VectorOddCISystem, VectorPopulation
from repro.vector.system import _mean
from repro.sim.rng import derive_generator
from repro.vector.executor import Coded
from repro.vector.population import _CHUNK, _IN_USE, _OFF, _STANDBY
from repro.workloads import (
    REFERENCE_PC,
    REFERENCE_STB,
    DeviceProfile,
    PowerMode,
    uniform_bag,
    uniform_bag_spec,
)
from repro.net.message import MEGABYTE


def make_pop(n=10_000, seed=0, **kwargs):
    return VectorPopulation(n, seed=seed, **kwargs)


def make_system(pop, **kwargs):
    return VectorOddCISystem(population=pop, **kwargs)


# -- population ---------------------------------------------------------------

def _factor_column(factors, size):
    """``device_factors``' result as one float per row."""
    if isinstance(factors, Coded):
        return factors.values[factors.codes]
    return np.broadcast_to(factors, size)


def _validate_population(pop):
    """Shape/dtype/invariant assertions on the population columns and
    the device factors derived from the power modes."""
    n = pop.n
    factors = _factor_column(pop.device_factors(np.ones(n, dtype=bool)), n)
    for name, column, dtype in (
            ("mode", pop.mode, np.int8),
            ("busy", pop.busy, np.bool_),
            ("matches", pop.matches, np.bool_),
            ("device_factors", factors, np.float64)):
        assert column.shape == (n,), f"{name} shape {column.shape}"
        assert column.dtype == dtype, f"{name} dtype {column.dtype}"
    assert not (pop.busy & (pop.mode == _OFF)).any(), \
        "powered-off nodes cannot be busy"
    assert np.isin(pop.mode, (_OFF, _STANDBY, _IN_USE)).all(), \
        "unknown mode code"
    assert (factors > 0).all(), "non-positive device factor"


def _mask(n, rows):
    """The boolean row mask of ``rows`` over ``n`` rows."""
    mask = np.zeros(n, dtype=bool)
    mask[rows] = True
    return mask


def _single_draw_columns(n, seed, powered_fraction, in_use_fraction,
                         requirement_match_fraction):
    """The columns as one whole-population draw per column builds them
    (the form before the chunked build), and the stream after them."""
    init = derive_generator(seed, "vector.population")
    powered = init.random(n) < powered_fraction
    in_use = init.random(n) < in_use_fraction
    mode = np.where(powered, np.where(in_use, _IN_USE, _STANDBY),
                    _OFF).astype(np.int8)
    return mode, init.random(n) < requirement_match_fraction, init


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
    recruited = np.flatnonzero(pop.recruit(0.25))
    assert 23_000 < recruited.size < 27_000
    assert pop.busy_count == recruited.size
    assert pop.idle_count == pop.n - recruited.size


def test_recruit_excludes_busy_and_off():
    pop = make_pop(n=10_000, powered_fraction=0.5)
    first = pop.recruit(1.0)
    assert np.count_nonzero(first) == pop.powered_count
    second = pop.recruit(1.0)
    assert not second.any()  # everyone eligible is busy
    _validate_population(pop)


def test_recruit_respects_requirement_match_fraction():
    pop = make_pop(n=100_000, requirement_match_fraction=0.3)
    recruited = np.count_nonzero(pop.recruit(1.0))
    assert 28_000 < recruited < 32_000


def test_recruit_validation():
    pop = make_pop(n=10)
    with pytest.raises(ConfigurationError):
        pop.recruit(0.0)
    with pytest.raises(ConfigurationError):
        pop.recruit(1.1)


def test_release_specific_and_all():
    pop = make_pop(n=1000)
    recruited = np.flatnonzero(pop.recruit(1.0))
    pop.release(_mask(pop.n, recruited[:100]))
    assert pop.busy_count == recruited.size - 100
    assert not pop.busy[recruited[:100]].any()
    pop.release()
    assert pop.busy_count == 0
    _validate_population(pop)


def test_device_factors_match_modes():
    pop = make_pop(n=50_000, in_use_fraction=0.5)
    f_use = REFERENCE_STB.factor(PowerMode.IN_USE)
    f_stb = REFERENCE_STB.factor(PowerMode.STANDBY)
    rows = pop.mode != _OFF
    coded = pop.device_factors(rows)
    assert coded.values.tolist() == [f_stb, f_use]
    assert coded.codes.dtype == np.uint8
    factors = _factor_column(coded, np.count_nonzero(rows))
    assert set(np.unique(factors).tolist()) == {f_use, f_stb}
    assert (factors[pop.mode[rows] == _IN_USE] == f_use).all()
    assert (factors[pop.mode[rows] == _STANDBY] == f_stb).all()
    assert not hasattr(pop, "device_factor")


@pytest.mark.parametrize("fractions", [
    (1.0, 1.0, 1.0), (0.8, 0.5, 0.7), (1.0, 0.3, 1.0), (0.0, 0.5, 1.0)])
def test_chunked_columns_match_single_draw(fractions):
    """Columns built and gated chunk by chunk equal one whole-population
    draw per column, on a size that ends mid-chunk, and leave both
    streams where those draws leave them: a gate that a fraction of 0
    or 1 decides advances its stream without drawing."""
    n = 3 * _CHUNK + 12_345
    powered, in_use, match = fractions
    pop = make_pop(n=n, seed=7, powered_fraction=powered,
                   in_use_fraction=in_use, requirement_match_fraction=match)
    mode, matches, init = _single_draw_columns(n, 7, powered, in_use, match)
    assert np.array_equal(pop.mode, mode)
    assert np.array_equal(pop.matches, matches)
    assert np.array_equal(pop.streams["population"].random(4),
                          init.random(4))
    pop.busy[::5] = True
    gate = derive_generator(7, "vector.recruit")
    for probability in (0.3, 1.0, 0.3):
        eligible = (pop.mode != _OFF) & ~pop.busy & pop.matches
        expected = np.nonzero(eligible & (gate.random(n) < probability))[0]
        recruited = np.flatnonzero(pop.recruit(probability))
        assert np.array_equal(recruited, expected)
        pop.release(_mask(n, recruited[::2]))
    assert np.array_equal(pop.streams["recruit"].random(4), gate.random(4))


def test_decided_gates_draw_nothing(monkeypatch):
    """A build at the default fractions and a recruit at probability 1
    call ``Generator.random`` on no stream."""
    calls = []

    class Counting(np.random.Generator):
        def random(self, *args, **kwargs):
            calls.append(args)
            return super().random(*args, **kwargs)

    def counting_generator(seed, name):
        return Counting(derive_generator(seed, name).bit_generator)

    monkeypatch.setattr("repro.vector.population.derive_generator",
                        counting_generator)
    pop = make_pop(n=2 * _CHUNK + 1)
    assert isinstance(pop.streams["population"], Counting)
    assert pop.recruit(1.0).all()
    assert calls == []


@pytest.mark.parametrize("fractions", [
    (1.0, 1.0, 1.0), (1.0, 0.0, 0.0), (0.0, 0.4, 1.0), (1.0, 0.4, 1.0),
    (0.7, 1.0, 1.0), (1.0, 1.0, 0.6)])
def test_decided_columns_match_materialised(fractions):
    """A column that its fraction decides is held as its one value, and
    the population reads as one whose decided columns are filled in:
    the same recruit masks, busy rows, counts and device factors, and
    both streams left in one place."""
    n = 2 * _CHUNK + 321
    powered, in_use, match = fractions
    pop, filled = (make_pop(n=n, seed=9, powered_fraction=powered,
                            in_use_fraction=in_use,
                            requirement_match_fraction=match)
                   for _ in range(2))
    mode_decided = powered == 0.0 or (powered == 1.0
                                      and in_use in (0.0, 1.0))
    assert (np.ndim(pop._mode) == 0) == mode_decided
    assert (np.ndim(pop._matches) == 0) == (match in (0.0, 1.0))
    filled._mode = np.array(filled.mode)
    filled._matches = np.array(filled.matches)
    for probability in (0.5, 1.0, 0.25):
        for p in (pop, filled):
            assert p.powered_count == filled.powered_count
            assert p.idle_count == filled.idle_count
        mask = pop.recruit(probability)
        assert np.array_equal(mask, filled.recruit(probability))
        assert np.array_equal(pop.busy, filled.busy)
        assert np.array_equal(pop.eligible_mask(), filled.eligible_mask())
        if mask.any():
            assert np.array_equal(
                _factor_column(pop.device_factors(mask), mask.sum()),
                _factor_column(filled.device_factors(mask), mask.sum()))
        pop.release(mask & (np.arange(n) % 3 == 0))
        filled.release(mask & (np.arange(n) % 3 == 0))
    for name in ("population", "recruit"):
        assert (pop.streams[name].random(3).tolist()
                == filled.streams[name].random(3).tolist())
    for column in (pop.mode, pop.matches):
        assert column.shape == (n,) and not column.flags.writeable


def _indices_recruit(pop, probability):
    """``VectorPopulation.recruit`` as it was when it returned the
    accepting nodes' indices (kept verbatim as the oracle)."""
    if not 0.0 < probability <= 1.0:
        raise ConfigurationError(
            f"probability must be in (0, 1], got {probability}")
    accept = np.empty(pop.n, dtype=bool)
    for rows, gate in pop._gate(pop.streams["recruit"], probability):
        accept[rows] = gate & pop.eligible_mask(rows)
    pop.busy |= accept
    return np.flatnonzero(accept)


@pytest.mark.parametrize("probabilities", [(0.3, 0.6, 0.3), (1.0, 1.0)])
def test_recruit_mask_matches_index_oracle(probabilities):
    """The mask's rows are the indices the old ``recruit`` returned, and
    both leave the population and the recruit stream in one state."""
    n = 2 * _CHUNK + 777
    pop, oracle = (make_pop(n=n, seed=5, powered_fraction=0.9,
                            requirement_match_fraction=0.8)
                   for _ in range(2))
    for probability in probabilities:
        mask = pop.recruit(probability)
        expected = _indices_recruit(oracle, probability)
        assert mask.dtype == np.bool_ and mask.shape == (n,)
        assert np.array_equal(np.flatnonzero(mask), expected)
        assert np.array_equal(pop.busy, oracle.busy)
        pop.release(_mask(n, np.flatnonzero(mask)[::2]))
        oracle.busy[expected[::2]] = False
    assert np.array_equal(pop.streams["recruit"].random(4),
                          oracle.streams["recruit"].random(4))


@pytest.mark.parametrize("profile", [
    REFERENCE_STB, REFERENCE_PC,
    DeviceProfile("odd", 7.3, {PowerMode.STANDBY: 0.1,
                               PowerMode.IN_USE: 1.0 / 3.0})])
@pytest.mark.parametrize("in_use_fraction", [1.0, 0.0, 0.3])
def test_factor_mean_matches_column_oracle(profile, in_use_fraction):
    """One device class gives one float whose mean over the cohort is
    the old factor column's mean, bit for bit, at cohort sizes either
    side of the pairwise-sum block edges; mixed classes keep the
    column."""
    pop = make_pop(n=3 * _CHUNK + 12_345, in_use_fraction=in_use_fraction,
                   profile=profile)
    f_use, f_stb = (profile.factor(PowerMode.IN_USE),
                    profile.factor(PowerMode.STANDBY))
    for size in (1, 7, 8, 9, 127, 128, 129, 1023, 8191, 8192, 8193,
                 100_003, pop.n):
        rows = np.arange(pop.n) < size
        # The old column and its mean (verbatim).
        column = np.where(pop.mode[rows] == _IN_USE, f_use, f_stb)
        factors = pop.device_factors(rows)
        one_class = (column == column[0]).all()
        assert isinstance(factors, Coded) != one_class
        assert np.array_equal(_factor_column(factors, size), column)
        assert _mean(factors, size).hex() == float(column.mean()).hex(), size


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


def test_mixed_fleet_golden():
    """Bit-exact pin of a mixed fleet's two jobs: off, standby and
    in-use receivers, partial requirement matching and a 0.3 storm
    through job 1, so the cohort holds two device classes across the
    ready instants and victim patterns (vector_storm is single-class).
    Finish time, availability, tasks-per-node ceiling, efficiency and
    mean wakeup of both jobs."""
    system = VectorOddCISystem(
        60_000, seed=3, plan=storm_plan(0.3), powered_fraction=0.8,
        in_use_fraction=0.7, requirement_match_fraction=0.9)
    job = uniform_bag_spec(120_000, image_bits=8 * MEGABYTE,
                           ref_seconds=30.0, input_bits=4096.0,
                           result_bits=4096.0)
    got = [(r.finish_time.hex(), r.availability.hex(),
            r.tasks_per_node_max, r.efficiency.hex(), r.wakeup_mean_s.hex())
           for r in (system.run_job(job, 30_000) for _ in range(2))]
    assert got == [("0x1.59276aab56418p+11", "0x1.c122a2a04b114p-1", 7,
                    "0x1.be83a10c358d7p-1", "0x1.98f519086d683p+6"),
                   ("0x1.4fc7b44ed3b14p+12", "0x1.e4bd4e9f86071p-1", 6,
                    "0x1.d769097ed7f20p-1", "0x1.99578485bed80p+6")]


def test_million_node_run_is_feasible():
    """Requirement I at the vector tier: 10^6 nodes end to end."""
    pop = make_pop(n=1_000_000, seed=5)
    system = make_system(pop)
    job = uniform_bag(4_000_000, image_bits=8 * MEGABYTE, ref_seconds=30.0)
    result = system.run_job(job, target_size=1_000_000)
    assert result.recruited > 900_000
    assert result.efficiency > 0.1
