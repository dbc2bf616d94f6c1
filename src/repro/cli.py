"""Command-line front end: regenerate any paper artifact.

Usage::

    python -m repro list                  # available experiments
    python -m repro table2                # run one, print its rendering
    python -m repro fig6 --jobs 4         # fan grid points out to 4 workers
    python -m repro fig6 --out artifacts  # persist records/rendering/meta
    python -m repro a3 --trace --out out  # + trace.jsonl / metrics.json
    python -m repro fault_sweep --smoke   # availability under injected chaos
    python -m repro a3 --faults=demo      # any experiment, faulted
    python -m repro all --smoke           # everything, reduced scale

Experiments are resolved from the scenario registry
(:mod:`repro.runner`); ``python -m repro list`` prints exactly what is
registered.  Seeds default to 0 and per-point seeds are spawned
deterministically, so output is reproducible and ``--jobs N`` is
byte-identical to serial execution — including the telemetry artifacts
a ``--trace`` run produces.

Run-progress messages go through :mod:`logging` (logger ``repro``) on
stderr; ``--verbose`` raises the level to DEBUG for per-run detail.

Performance is not measured here: ``oddbench/run.py`` is the repo
benchmark, and the wall-clock floors live in ``benchmarks/`` (opt in
with ``pytest benchmarks --run-perf``).
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import List, Optional, Union

from repro.errors import ScenarioError
from repro.runner import ArtifactStore, Runner, scenario_ids
from repro.runner.scenario import all_scenarios

__all__ = ["main", "run_experiment"]

log = logging.getLogger("repro")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OddCI reproduction — regenerate paper artifacts")
    parser.add_argument(
        "experiment",
        help="experiment id, 'list' or 'all'")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed (default 0); per-point seeds "
                             "are spawned from it")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the parameter grid "
                             "(default 1 = serial; output is identical "
                             "either way)")
    parser.add_argument("--smoke", action="store_true",
                        help="run at the scenario's reduced smoke scale")
    parser.add_argument("--out", type=str, default=None, metavar="DIR",
                        help="artifact root; writes records, rendering "
                             "and run metadata under DIR/<experiment>/")
    parser.add_argument("--trace", nargs="?", const="default",
                        default=None, metavar="CATS",
                        help="enable telemetry: bare --trace uses the "
                             "default categories, or pass 'all' / a "
                             "comma list (kernel,net,carousel,control,"
                             "pna,backend,fault,runner); with --out the "
                             "run also writes trace.jsonl and "
                             "metrics.json")
    parser.add_argument("--faults", nargs="?", const="demo",
                        default=None, metavar="PLAN",
                        help="inject a deterministic fault plan: bare "
                             "--faults uses the 'demo' preset, or pass "
                             "a preset (demo, storm, blackout) or a "
                             "plan literal like "
                             "'controller_crash@150,dur=90;"
                             "churn_storm@400,mag=0.4,dur=200'")
    parser.add_argument("--verbose", "-v", action="store_true",
                        help="DEBUG-level run log on stderr")
    return parser


def run_experiment(name: str, seed: int = 0, *, jobs: int = 1,
                   smoke: bool = False, out: Optional[str] = None,
                   trace: Union[None, bool, str] = None,
                   faults: Union[None, str] = None) -> str:
    """Run one experiment by id; returns the rendered artifact."""
    store = ArtifactStore(out) if out else None
    runner = Runner(jobs=jobs, seed=seed, smoke=smoke, store=store,
                    trace=trace, faults=faults)
    try:
        result = runner.run(name)
    except ScenarioError as exc:
        raise SystemExit(str(exc)) from None
    log.debug("%s: %d points in %.3fs (jobs=%d%s)", name,
              result.meta["n_points"], result.meta["wall_time_s"],
              jobs, ", smoke" if smoke else "")
    if result.trace_events is not None:
        log.debug("%s: traced %d events (%d dropped)", name,
                  len(result.trace_events),
                  result.meta.get("trace_dropped", 0))
    return result.rendered


def _list_experiments() -> str:
    scenarios = all_scenarios()
    width = max(len(s.name) for s in scenarios)
    return "\n".join(f"{s.name:<{width}}  {s.description}"
                     for s in scenarios)


def _setup_logging(verbose: bool) -> None:
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("[%(name)s] %(message)s"))
    log.addHandler(handler)
    log.setLevel(logging.DEBUG if verbose else logging.INFO)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    _setup_logging(args.verbose)
    if args.experiment == "list":
        print(_list_experiments())
        return 0
    known = scenario_ids()
    if args.experiment != "all" and args.experiment not in known:
        raise SystemExit(
            f"unknown experiment {args.experiment!r}; try: "
            f"{', '.join(known)} (or 'list'/'all')")
    names = known if args.experiment == "all" else [args.experiment]
    for name in names:
        log.debug("running %s ...", name)
        text = run_experiment(name, seed=args.seed, jobs=args.jobs,
                              smoke=args.smoke, out=args.out,
                              trace=args.trace, faults=args.faults)
        print(text)
        print()
    if args.out:
        log.info("artifacts written under %s/", args.out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
