"""Refresh BENCH_event_tier.json with interleaved before/after runs.

Protocol (DESIGN.md §8/§12): every point runs in a fresh process, and
the two builds interleave scale by scale so host drift hits both
labels evenly.  Here "before" is the per-PNA reference dispatch path
(the "before" interpreter patches ``repro.core.pna.engine_for`` to
return ``None``, so every PNA falls back to its own DVE) and "after" is
the cohort macro engine — the same source, which is what the
differential suite holds bit-identical.

Usage::

    PYTHONPATH=src python scripts/refresh_bench_event_tier.py \
        [--scales 1000 10000 100000] [--big 1000000] [--rounds 3]

The big scale runs both labels too (the reference path is slow there —
expect ~15 min); pass ``--big 0`` to skip it.  Writes the merged
artifact with a fresh ``notes.acceptance`` block.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

POINT_SNIPPET = """\
import json
{prelude}from repro.perfbench import {fn}
print("@@" + json.dumps({fn}({args})))
"""

#: Selects the per-PNA reference path for the whole interpreter.
PER_PNA_PRELUDE = """\
import repro.core.pna
repro.core.pna.engine_for = lambda *args: None
"""


def run_point(fn: str, args: str, *, per_pna: bool = False) -> dict:
    """One metrics point in a fresh interpreter (fresh allocator, GC)."""
    code = POINT_SNIPPET.format(
        fn=fn, args=args, prelude=PER_PNA_PRELUDE if per_pna else "")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, check=True)
    for line in out.stdout.splitlines():
        if line.startswith("@@"):
            return json.loads(line[2:])
    raise RuntimeError(f"no metrics line in output:\n{out.stdout}")


def best_of(rounds: int, fn: str, args: str) -> dict:
    """Best wall_s over ``rounds`` fresh processes (noisy-host floor)."""
    results = [run_point(fn, args) for _ in range(rounds)]
    return min(results, key=lambda m: m["wall_s"])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scales", type=int, nargs="+",
                        default=[1_000, 10_000, 100_000])
    parser.add_argument("--big", type=int, default=1_000_000,
                        help="extra after-focused scale (0 = skip)")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--big-rounds", type=int, default=2)
    parser.add_argument("--out", type=str, default="BENCH_event_tier.json")
    opts = parser.parse_args()

    before: dict = {"oddci": {}, "kernel": {}}
    after: dict = {"oddci": {}, "kernel": {}}

    for n in opts.scales:
        rounds = opts.rounds if n < 100_000 else max(1, opts.rounds - 1)
        for _ in range(rounds):
            b = run_point("run_scenario", str(n), per_pna=True)
            a = run_point("run_scenario", str(n))
            old_b = before["oddci"].get(str(n))
            old_a = after["oddci"].get(str(n))
            if old_b is None or b["wall_s"] < old_b["wall_s"]:
                before["oddci"][str(n)] = b
            if old_a is None or a["wall_s"] < old_a["wall_s"]:
                after["oddci"][str(n)] = a
        print(f"n={n}: before {before['oddci'][str(n)]['wall_s']}s, "
              f"after {after['oddci'][str(n)]['wall_s']}s", flush=True)

    if opts.big:
        n = opts.big
        # The reference path is ~10x slower here — one round is the
        # budget; the cohort point still gets best-of-N.
        for r in range(opts.big_rounds):
            a = run_point("run_scenario", str(n))
            old_a = after["oddci"].get(str(n))
            if old_a is None or a["wall_s"] < old_a["wall_s"]:
                after["oddci"][str(n)] = a
            if r == 0:
                before["oddci"][str(n)] = run_point(
                    "run_scenario", str(n), per_pna=True)
        print(f"n={n}: before {before['oddci'][str(n)]['wall_s']}s, "
              f"after {after['oddci'][str(n)]['wall_s']}s", flush=True)

    for _ in range(3):
        kb = run_point("run_kernel_scenario", "10_000")
        ka = run_point("run_kernel_scenario", "10_000")
        old_b = before["kernel"].get("10000")
        old_a = after["kernel"].get("10000")
        if old_b is None or kb["wall_s"] < old_b["wall_s"]:
            before["kernel"]["10000"] = kb
        if old_a is None or ka["wall_s"] < old_a["wall_s"]:
            after["kernel"]["10000"] = ka

    from repro.perfbench import SCENARIO
    import platform

    scales = sorted(after["oddci"], key=int)
    makespans = {m["makespan"] for lbl in (before, after)
                 for m in lbl["oddci"].values()}
    mid = str(opts.scales[-1])
    acceptance = {
        "makespan_identical": len(makespans) == 1,
        f"oddci_{mid}_before_wall_s": before["oddci"][mid]["wall_s"],
        f"oddci_{mid}_after_wall_s": after["oddci"][mid]["wall_s"],
        f"oddci_{mid}_wall_speedup": round(
            before["oddci"][mid]["wall_s"] / after["oddci"][mid]["wall_s"],
            3),
    }
    if opts.big:
        big = str(opts.big)
        acceptance["oddci_1M_after_wall_s"] = after["oddci"][big]["wall_s"]
        acceptance["oddci_1M_before_wall_s"] = before["oddci"][big]["wall_s"]
        acceptance["oddci_1M_under_60s"] = (
            after["oddci"][big]["wall_s"] < 60.0)
    doc = {
        "benchmark": "event_tier",
        "scenario": dict(SCENARIO),
        "python": platform.python_version(),
        "before": before,
        "after": after,
        "notes": {
            "acceptance": acceptance,
            "families": {
                "kernel": "N self-rescheduling 1s timers for a 30s "
                          "horizon; the event count is build-invariant "
                          "(290,104 at n=10^4), so the events/sec ratio "
                          "measures raw calendar speed.",
                "oddci": "Full wakeup + heartbeat + 4 tasks/node BoT "
                         "cycle; the cohort engine legitimately removes "
                         "events, so compare wall time and the semantic "
                         "outputs (makespan is bit-identical across "
                         "paths).",
            },
            "protocol": "Interleaved fresh-process before/after runs on "
                        "the same single-vCPU host "
                        "(scripts/refresh_bench_event_tier.py); 'before' "
                        "= per-PNA reference dispatch path "
                        "(engine_for patched to None), 'after' = cohort "
                        "macro engine, same build.  GC disabled during "
                        "the measured section; best-of-N fresh processes "
                        "per point (the host carries ±20% noise).",
        },
    }
    with open(opts.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[written to {opts.out}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
