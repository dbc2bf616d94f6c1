"""Telemetry's disabled fast path must stay (nearly) free.

The contract (DESIGN.md §9): with no tracer installed — or with one
whose ``kernel`` category is disabled, the production shape of a
default ``--trace`` run — the kernel hot path pays one attribute load
plus one ``is None`` test per schedule call, and nothing per dispatch.
The guard interleaves plain and traced-but-disabled kernel microbench
runs and requires best-of-N throughput within 3%.

Wall-clock guards are noisy on shared hosts, so this is a perf-marked
scenario: ``pytest benchmarks/test_telemetry_overhead.py --run-perf``.
A structural (noise-free) zero-cost check runs unconditionally.
"""

import ast
from pathlib import Path

import pytest

from benchmarks.scenario import run_kernel
from repro.sim.core import Simulator
from repro.telemetry.trace import Tracer, active


def test_disabled_tracer_leaves_kernel_state_none():
    """Structural guard: the disabled path compiles down to None checks.

    No tracer → no kernel channel, no dispatch hook wrapped around
    ``sim.trace`` — the run loop's existing ``trace is None`` test is
    the only per-event cost, exactly as before telemetry existed.
    """
    sim = Simulator(seed=1)
    assert sim._ktrace is None
    assert sim._kfast is None
    assert sim.trace is None
    with active(Tracer("control,pna")):  # kernel category disabled
        sim2 = Simulator(seed=1)
    assert sim2._ktrace is None
    assert sim2._kfast is None
    assert sim2.trace is None


# Modules on the simulation hot path: every trace emission in these
# files must be lexically nested under an ``is (not) None`` guard so
# that the disabled path never builds the event tuple / field dict.
HOT_MODULES = (
    "net/link.py",
    "net/broadcast.py",
    "core/pna.py",
    "core/backend.py",
    "core/network.py",
    "core/controller.py",
    "core/taskloop.py",
    "sim/core.py",
    "sim/wheel.py",
    "carousel/carousel.py",
    "faults/injector.py",
)


def _has_none_compare(test_node):
    return any(
        isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        and any(isinstance(c, ast.Constant) and c.value is None
                for c in node.comparators)
        for node in ast.walk(test_node))


def test_hot_path_emit_sites_are_none_guarded():
    """Structural audit: ``.emit()`` in hot modules only runs behind a
    ``X is not None`` check.

    The field dict an emit call builds is the dominant disabled-path
    allocation; an unguarded site pays it on every event even with
    telemetry off.  This walks each hot module's AST and requires every
    emit call to have an ancestor ``if`` whose test compares against
    ``None`` — the `t = self._trace / if t is not None` idiom.
    """
    src_root = Path(__file__).resolve().parents[1] / "src" / "repro"
    offenders, total = [], 0
    for rel in HOT_MODULES:
        path = src_root / rel
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {child: parent for parent in ast.walk(tree)
                   for child in ast.iter_child_nodes(parent)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit"):
                continue
            total += 1
            cur, guarded = node, False
            while cur in parents:
                cur = parents[cur]
                if isinstance(cur, ast.If) and _has_none_compare(cur.test):
                    guarded = True
                    break
            if not guarded:
                offenders.append(f"{rel}:{node.lineno}")
    assert total >= 20, "AST scan found too few emit sites; wrong paths?"
    assert not offenders, (
        "unguarded .emit() on the hot path (allocates with telemetry "
        f"disabled): {offenders}")


def run_telemetry_overhead(n_timers: int, *, repeats: int) -> dict:
    """Disabled-telemetry overhead on the kernel microbench.

    Interleaves ``repeats`` pairs of kernel runs — plain vs. with a
    tracer installed whose ``kernel`` category is *disabled* (the
    production shape of a ``--trace`` run: components resolve a ``None``
    channel and pay one truthiness check per call site) — and compares
    best-of-N events/sec.  ``ratio`` is traced/plain.  Interleaving and
    best-of-N squeeze out most scheduler noise; single pairs on a shared
    host are still ±5%.
    """
    plain_best = traced_best = 0.0
    for _ in range(repeats):
        plain_best = max(plain_best, run_kernel(n_timers)["events_per_sec"])
        with active(Tracer("runner")):  # kernel category disabled
            traced = run_kernel(n_timers)
        traced_best = max(traced_best, traced["events_per_sec"])
    return {
        "plain_events_per_sec": round(plain_best, 1),
        "ratio": round(traced_best / plain_best, 4) if plain_best else 0.0,
    }


@pytest.mark.perf
def test_disabled_tracer_overhead_within_3_percent():
    metrics = run_telemetry_overhead(10_000, repeats=3)
    assert metrics["plain_events_per_sec"] > 0
    # traced/plain throughput ratio; 0.97 == <= ~3% regression.
    assert metrics["ratio"] >= 0.97, (
        f"disabled-telemetry overhead too high: {metrics}")


@pytest.mark.perf
def test_kernel_scenario_event_count_is_deterministic():
    a = run_kernel(10_000)
    b = run_kernel(10_000)
    assert a["events"] == b["events"]
    assert a["events"] > 10_000 * 28  # ~29-30 ticks per timer
