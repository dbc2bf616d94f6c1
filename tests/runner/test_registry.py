"""Scenario dataclass, registry and artifact-store behavior."""

import json

import numpy as np
import pytest

from repro.errors import ScenarioError
from repro.runner import (
    ArtifactStore,
    Runner,
    Scenario,
    all_scenarios,
    get_scenario,
    scenario_ids,
)
from repro.runner.artifacts import jsonify
from repro.runner.runner import RunResult
from repro.runner.scenario import _REGISTRY, register
from repro.sim.rng import spawn_seeds


def _point(x, *, scale=1.0, seed=0):
    return {"y": x * scale, "seed_used": seed}


def _render(records):
    return "\n".join(f"{r['x']} -> {r['y']}" for r in records)


def _scenario(**overrides):
    kwargs = dict(name="toy", description="toy scenario", point=_point,
                  renderer=_render, grid={"x": (1, 2, 3)})
    kwargs.update(overrides)
    return Scenario(**kwargs)


# -- Scenario validation ---------------------------------------------------

def test_scenario_rejects_empty_name():
    with pytest.raises(ScenarioError):
        _scenario(name="")


def test_scenario_rejects_non_callable_point():
    with pytest.raises(ScenarioError):
        _scenario(point="not-callable")


def test_scenario_is_frozen():
    s = _scenario()
    with pytest.raises(Exception):
        s.name = "other"


def test_points_order_is_grid_order():
    s = _scenario(grid={"x": (1, 2), "z": ("a", "b")})
    assert s.points() == [
        {"x": 1, "z": "a"}, {"x": 1, "z": "b"},
        {"x": 2, "z": "a"}, {"x": 2, "z": "b"},
    ]


def test_gridless_scenario_has_single_point():
    s = _scenario(grid={})
    assert s.points() == [{}]


def test_smoke_overrides_apply_on_top():
    s = _scenario(grid={"x": (1, 2, 3)}, fixed={"scale": 2.0},
                  smoke_grid={"x": (1,)}, smoke_fixed={"scale": 0.5})
    assert s.resolved_grid(smoke=False) == {"x": (1, 2, 3)}
    assert s.resolved_grid(smoke=True) == {"x": (1,)}
    assert s.resolved_fixed(smoke=True) == {"scale": 0.5}


# -- registry --------------------------------------------------------------

def test_register_rejects_duplicates():
    s = _scenario(name="dup-test-scenario")
    register(s)
    try:
        with pytest.raises(ScenarioError):
            register(_scenario(name="dup-test-scenario"))
    finally:
        _REGISTRY.pop("dup-test-scenario", None)


def test_get_scenario_unknown_name_lists_known():
    with pytest.raises(ScenarioError, match="unknown scenario"):
        get_scenario("definitely-not-registered")


def test_registry_contains_all_experiments():
    assert set(scenario_ids()) >= {
        "table1", "table2", "table3", "wakeup", "fig6", "fig7",
        "a1", "a2", "a3", "a4", "a5", "a6", "scalability",
    }
    for s in all_scenarios():
        assert s.description


# -- seed spawning ---------------------------------------------------------

def test_spawn_seeds_deterministic_and_stream_dependent():
    a = spawn_seeds(7, "scenario/fig6", 4)
    assert a == spawn_seeds(7, "scenario/fig6", 4)
    assert a != spawn_seeds(8, "scenario/fig6", 4)
    assert a != spawn_seeds(7, "scenario/fig7", 4)
    assert len(set(a)) == 4


def test_spawn_seeds_prefix_stable():
    # The first k children don't depend on how many siblings follow.
    assert spawn_seeds(7, "s", 2) == spawn_seeds(7, "s", 5)[:2]


# -- runner ----------------------------------------------------------------

def test_runner_rejects_bad_jobs():
    with pytest.raises(ScenarioError):
        Runner(jobs=0)


def test_runner_merges_grid_params_and_spawned_seeds():
    s = _scenario(name="merge-test-scenario")
    register(s)
    try:
        result = Runner(seed=11).run("merge-test-scenario")
    finally:
        _REGISTRY.pop("merge-test-scenario", None)
    assert [r["x"] for r in result.records] == [1, 2, 3]
    expected = spawn_seeds(11, "scenario/merge-test-scenario", 3)
    assert [r["seed_used"] for r in result.records] == expected
    assert result.rendered == _render(result.records)
    assert result.meta["n_points"] == 3
    assert result.meta["wall_time_s"] >= 0


def test_runner_rejects_non_mapping_point_result():
    register(_scenario(name="scalar-test-scenario",
                       point=lambda x, *, seed=0: x))
    try:
        with pytest.raises(ScenarioError, match="expected a mapping"):
            Runner().run("scalar-test-scenario")
    finally:
        _REGISTRY.pop("scalar-test-scenario", None)


# -- artifact store --------------------------------------------------------

def test_jsonify_coerces_numpy_and_tuples():
    out = jsonify({"a": np.float64(1.5), "b": (1, np.int32(2)),
                   "c": np.array([3.0, 4.0]), 5: "x"})
    assert out == {"a": 1.5, "b": [1, 2], "c": [3.0, 4.0], "5": "x"}
    json.dumps(out)  # fully JSON-native


def test_artifact_store_roundtrip(tmp_path):
    result = RunResult(scenario="toy", seed=3, jobs=2, smoke=False,
                       records=[{"x": 1, "y": np.float64(2.0)}],
                       rendered="1 -> 2.0", meta={"seed": 3, "jobs": 2})
    directory = ArtifactStore(tmp_path).write(result)
    assert directory == tmp_path / "toy"
    records = json.loads((directory / "records.json").read_text())
    assert records == [{"x": 1, "y": 2.0}]
    assert (directory / "rendered.txt").read_text() == "1 -> 2.0\n"
    meta = json.loads((directory / "run-jobs2.json").read_text())
    assert meta == {"seed": 3, "jobs": 2}


def test_artifact_store_smoke_suffix(tmp_path):
    result = RunResult(scenario="toy", seed=0, jobs=1, smoke=True,
                       records=[], rendered="", meta={})
    directory = ArtifactStore(tmp_path).write(result)
    assert (directory / "records-smoke.json").exists()
    assert (directory / "rendered-smoke.txt").exists()
    assert (directory / "run-smoke-jobs1.json").exists()
