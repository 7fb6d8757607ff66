# Convenience targets; everything assumes the in-repo layout
# (PYTHONPATH=src, no installation required).

PYTHON ?= python

.PHONY: test check check-phases bench bench-smoke bench-obs bench-check bench-faults bench-topology report trace-demo serve-demo serve-chaos

test:
	PYTHONPATH=src $(PYTHON) -m pytest -q

# Static determinism lint (repo must be clean), static phase-safety
# proofs, and a sanitizer-armed smoke experiment; see docs/CHECKING.md.
check: check-phases
	PYTHONPATH=src $(PYTHON) -m repro.check.lint src/repro
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli run fig1 --fast --sanitize=error

# Symbolic phase analyzer: every algorithm must prove QSM-phase-safe
# and its symbolic cost profile must match repro.predict's closed forms.
check-phases:
	PYTHONPATH=src $(PYTHON) -m repro.check.phases src/repro/algorithms

# Re-run the simulator performance benchmark (both sync paths) and
# fail if the epoch path's events/sec regressed >20% vs the committed
# benchmarks/BENCH_perf.json.
bench:
	benchmarks/run_perf.sh

# Reduced-grid benchmark for CI: one pass over a single sweep point per
# sync path, failing on any cross-path timing mismatch.
bench-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_perf.py --smoke

# Observability overhead gate: a run with collection disabled (the
# default) must stay within 3% of the committed epoch baseline.
bench-obs:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_obs.py \
		--check benchmarks/BENCH_perf.json --tolerance 0.03

# Sanitizer overhead gate: a run with the sanitizer disarmed (the
# default) must stay within 3% of the committed epoch baseline.
bench-check:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_check.py \
		--check benchmarks/BENCH_perf.json --tolerance 0.03

# Fault-injection overhead gate: a run with faults disarmed (the
# default) must stay within 3% of the committed epoch baseline;
# also asserts the armed path perturbs timings deterministically.
bench-faults:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_faults.py \
		--check benchmarks/BENCH_perf.json --tolerance 0.03

# Topology smoke: the flat machine must match the pre-topology golden
# timings exactly, and a small cluster grid must report bit-identical
# timings under the per-message oracle and the epoch kernel.
bench-topology:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_topology.py

report:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli report REPORT.md --fast

# Sweep-as-a-service round trip: start the server, submit the same
# fig1 sweep twice, assert the second run is all cache hits and
# byte-identical; see docs/SERVICE.md.
serve-demo:
	bash examples/serve_demo.sh

# Crash-safety chaos smoke: kill -9 the server process group mid-sweep,
# restart on the same cache, require journal replay plus an idempotent
# all-hits resubmit that is byte-identical to an untouched control run.
serve-chaos:
	PYTHONPATH=src $(PYTHON) examples/serve_chaos.py

# Produce a Perfetto-loadable trace + metrics dump from the fig1 sweep
# (open trace_demo.json at https://ui.perfetto.dev).
trace-demo:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli run fig1 --fast \
		--trace trace_demo.json --metrics metrics_demo.jsonl
