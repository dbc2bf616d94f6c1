"""Tests for the Table I/II/III experiments — these assert the paper's
qualitative findings hold in our reproduction, on the registry records
that ``python -m repro table{1,2,3}`` renders."""

import pytest

from repro.experiments import (
    TABLE2_CONFIGS,
    TABLE3_CONFIGS,
    render_table1,
    render_table2,
    render_table3,
    summarize_table2,
)
from repro.runner import Runner


# -- Table I -------------------------------------------------------------------

def test_table1_only_oddci_ticks_all():
    result = Runner(seed=0).run("table1").records[0]
    matrix = result["matrix"]
    assert set(matrix) == {"voluntary-computing", "desktop-grid", "iaas",
                           "oddci"}
    for name, row in matrix.items():
        if name == "oddci":
            assert all(row.values())
        else:
            assert not all(row.values())


def test_table1_each_requirement_met_by_someone_besides_oddci():
    """Paper: 'all requirements are addressed by at least one of the
    available solutions'."""
    matrix = Runner(seed=0).run("table1").records[0]["matrix"]
    others = [row for name, row in matrix.items() if name != "oddci"]
    for req in ("extremely_high_scalability", "on_demand_instantiation",
                "efficient_setup"):
        assert any(row[req] for row in others), req


def test_table1_render():
    out = render_table1(Runner(seed=0).run("table1").records[0])
    assert "Table I" in out
    assert "oddci" in out and "voluntary-computing" in out
    assert "Provisioning measurements" in out


# -- Table II -------------------------------------------------------------------

@pytest.fixture(scope="module")
def table2_records():
    return Runner(seed=0).run("table2").records


def test_table2_has_twelve_rows(table2_records):
    assert [r["test"] for r in table2_records] == list(range(1, 13))
    assert len(TABLE2_CONFIGS) == 12


def test_table2_stb_ratio_near_paper(table2_records):
    s = summarize_table2(table2_records)
    assert s["stb_in_use_over_pc_mean"] == pytest.approx(20.6, rel=0.10)
    assert s["stb_in_use_over_pc_max_error"] < 0.10  # paper: <= 10% @ 90%


def test_table2_mode_ratio_near_paper(table2_records):
    s = summarize_table2(table2_records)
    assert s["in_use_over_standby_mean"] == pytest.approx(1.65, rel=0.10)
    assert s["in_use_over_standby_max_error"] < 0.17


def test_table2_largest_workload_hours(table2_records):
    """Paper: test #12 takes ~11 h on an in-use STB."""
    s = summarize_table2(table2_records)
    assert 8 * 3600 < s["largest_in_use_s"] < 15 * 3600


def test_table2_large_tests_dominate_small(table2_records):
    small = [r["pc_s"] for r in table2_records if r["category"] == "local-small"]
    large = [r["pc_s"] for r in table2_records if r["category"] == "local-large"]
    assert max(small) < min(large)


def test_table2_deterministic_under_seed():
    a = Runner(seed=0).run("table2").records
    b = Runner(seed=0).run("table2").records
    assert a == b
    c = Runner(seed=1).run("table2").records
    assert a != c


def test_table2_render(table2_records):
    out = render_table2(table2_records)
    assert "Table II" in out
    assert "20.6x" in out  # the paper reference annotation
    assert "11 h" in out


# -- Table III ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def table3_records():
    return Runner(seed=0).run("table3").records


def test_table3_three_remote_tests(table3_records):
    assert [r["test"] for r in table3_records] == [13, 14, 15]
    assert len(TABLE3_CONFIGS) == 3


def test_table3_device_gap_nearly_vanishes(table3_records):
    """Remote processing: STB within ~30% of the PC, not 20x."""
    for r in table3_records:
        assert 0.8 < r["in_use_over_pc"] < 1.5


def test_table3_times_dominated_by_server(table3_records):
    for r, config in zip(table3_records, TABLE3_CONFIGS):
        assert r["pc_s"] > config.server_seconds * 0.8


def test_table3_render(table3_records):
    out = render_table3(table3_records)
    assert "Table III" in out
    assert "reconstructed" in out
