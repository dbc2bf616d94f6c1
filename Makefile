PYTHON ?= python
export PYTHONPATH := src

.PHONY: test experiments bench-floor trace-demo \
	faults-smoke federation-smoke serve-smoke certify-smoke vector-smoke \
	oddbench lines

test:
	$(PYTHON) -m pytest -x -q

# Net source lines, the number ROADMAP.md tracks.
lines:
	@find src -name '*.py' | xargs cat | wc -l

# Every registered scenario at smoke scale through the parallel runner
# (tier-2 'experiments' marker; excluded from the default test run),
# then the paper benches: each regenerates one paper artifact through
# the scenario registry at seed 0, checks the paper's expectations and
# rewrites its benchmarks/results/*.txt.
PAPER_BENCHES = benchmarks/test_table1_requirements.py \
	benchmarks/test_table2_blastall.py benchmarks/test_table3_blastcl3.py \
	benchmarks/test_wakeup_overhead.py benchmarks/test_fig6_efficiency.py \
	benchmarks/test_fig7_makespan.py benchmarks/test_scalability.py \
	benchmarks/test_ablations.py

experiments:
	$(PYTHON) -m pytest tests/experiments/test_smoke_all.py -q \
		--run-experiments
	$(PYTHON) -m pytest $(PAPER_BENCHES) --benchmark-disable -q

# Repository benchmark smoke (oddbench/README.md): the benchmark's own
# tests, then one 1-second iteration per workload at seed 0, each
# checked bit for bit against oddbench/reference.json (run.py exits
# non-zero on any mismatch).  Timings printed here are informational.
oddbench:
	$(PYTHON) -m pytest oddbench/tests -q
	for workload in bot_cycle dtv_churn vector_storm; do \
		$(PYTHON) oddbench/run.py --workload $$workload --seed 0 \
			--seconds 1 --trace 0 || exit 1; \
	done

# Reduced-scale event-kernel floor guard (the 10^6 < 60s claim,
# scaled), the census engine's columnar ≡ dict equivalence check and
# its 3x consolidation floor at 10^5 members, and the 600-box DTV churn
# task-rate floor, under --run-perf.
bench-floor:
	REPRO_FLOOR_SCALE=20000 $(PYTHON) -m pytest \
		benchmarks/test_event_kernel_floor.py \
		benchmarks/test_census_throughput.py \
		benchmarks/test_dtv_floor.py -q --run-perf

# Traced smoke run + human summary of the resulting trace artifacts
# (see DESIGN.md §9 for the event taxonomy).
trace-demo:
	$(PYTHON) -m repro a3 --smoke --trace=all --out /tmp/trace_demo
	$(PYTHON) -m repro.telemetry.export /tmp/trace_demo/a3/trace.jsonl

# Fault-injection smoke: the fault_sweep scenario (availability/MTTR
# under scripted chaos) plus a stock scenario under the demo plan
# (see DESIGN.md §10 for the fault model).
faults-smoke:
	$(PYTHON) -m repro fault_sweep --smoke --jobs 2
	$(PYTHON) -m repro a3 --smoke --faults=demo

# Federated control plane smoke: the federation_sweep scenario through
# the parallel runner, the federation unit/fault suites, and a
# reduced-scale run of the multi-network perf floor (DESIGN.md §13).
federation-smoke:
	$(PYTHON) -m repro federation_sweep --smoke --jobs 2
	$(PYTHON) -m pytest tests/core/test_federation.py \
		tests/faults/test_shard_faults.py tests/core/test_provider.py -q
	REPRO_FLOOR_SCALE=20000 $(PYTHON) -m pytest \
		benchmarks/test_federation_floor.py -q --run-perf

# Sabotage-tolerance smoke: the sabotage_sweep scenario through the
# parallel runner plus the certification/adversary suites on BOTH
# task paths — cohort engine and, via the --per-pna-oracle test
# option, the per-PNA DVE oracle (DESIGN.md §15).
certify-smoke:
	$(PYTHON) -m repro sabotage_sweep --smoke --jobs 2
	$(PYTHON) -m pytest tests/certify tests/faults/test_adversaries.py \
		tests/faults/test_plan.py tests/faults/test_signature_corruption.py -q
	$(PYTHON) -m pytest tests/certify tests/faults/test_adversaries.py \
		-q --per-pna-oracle

# Vector-tier parity smoke: the columnar system/fault-mask/telemetry
# suites, the carousel schedule the wakeup is sampled from (and its
# fmod-vs-% differential), the event-vs-vector agreement suite, the
# vector_scale scenario through the parallel runner, and the throughput,
# census-cycle and fresh-process peak-RSS floors at reduced scale (the
# population build floor keeps its own scale; DESIGN.md §16).
vector-smoke:
	$(PYTHON) -m pytest tests/vector tests/faults/test_masks.py \
		tests/carousel/test_schedule.py \
		tests/carousel/test_wakeup_differential.py \
		tests/test_tier_agreement.py -q
	$(PYTHON) -m repro vector_scale --smoke --jobs 2
	REPRO_FLOOR_SCALE=100000 $(PYTHON) -m pytest \
		benchmarks/test_vector_floor.py -q --run-perf

# Request-driven service tier smoke: both serve scenarios through the
# parallel runner, the serve unit/fault suites, and the warm-pool perf
# floor at reduced scale (DESIGN.md §14).
serve-smoke:
	$(PYTHON) -m repro service_sweep --smoke --jobs 2
	$(PYTHON) -m repro flash_crowd --smoke --jobs 2
	$(PYTHON) -m pytest tests/serve tests/faults/test_serve_faults.py -q
	REPRO_FLOOR_SCALE=16 $(PYTHON) -m pytest \
		benchmarks/test_serve_floor.py -q --run-perf
