.PHONY: all build test lint bench-json sim-bench serve-bench graph-bench reliab-bench tune-bench serve-tune-db e2e-compare clean

all: build

build:
	dune build

test:
	dune runtest

# Lint CI gate: PolyBench + workload sources against the
# expected-warnings manifest (bin/lintsweep.ml), compiled IR clean
# under the IR-mode rules, the crafted W008/W009/W010 examples
# firing under --Wall --Werror, and the export check (tools/exports.ml):
# every value a lib/ .mli exports has a caller outside its module and
# test/, or a line with a reason in tools/exports.allow. Also part of
# `dune runtest`.
lint:
	dune build @lint

# Regenerate BENCH_sim.json at the repo root: Fig. 5 / Fig. 6 / ablation
# sections timed with the domain pool and forced-sequential, plus the
# speedup against the recorded pre-rework baseline.
bench-json:
	dune build bin/experiments.exe
	./_build/default/bin/experiments.exe bench-json --out BENCH_sim.json

# Regression gate: re-run the Fig. 5 / Fig. 6 / ablation sections and
# compare wall-clock and minor-heap allocation against the committed
# BENCH_sim.json (exit 1 on regression). A fast --smoke variant of the
# same gate also runs under `dune runtest`.
sim-bench:
	dune build bin/experiments.exe
	./_build/default/bin/experiments.exe sim-bench --baseline BENCH_sim.json

# 1k-request replay of the synthetic-medium trace on a homogeneous
# 4-crossbar pool, golden-checked against the sequential single-device
# oracle.
serve-bench:
	dune build bin/serve.exe
	./_build/default/bin/serve.exe --trace synthetic-medium --devices 4 --out BENCH_serve.homogeneous.json

# Tuning database covering the serving mix: every (kernel, n) the
# synthetic traces and the loadgen tenants draw from, tuned for both
# the analog-crossbar and digital-tile classes, merged into one file
# (tdo-tune extends an existing --db rather than clobbering it). This
# is what makes served_tuned non-zero in graph-bench.
serve-tune-db tune.serve.db.json:
	dune build bin/tune.exe
	./_build/default/bin/tune.exe -n 16 --kernels gemm,2mm --db tune.serve.db.json --out BENCH_tune.serve.json
	./_build/default/bin/tune.exe -n 24 --kernels gemm,gesummv,bicg,mvt --db tune.serve.db.json --out BENCH_tune.serve.json
	./_build/default/bin/tune.exe -n 12 --kernels 3mm,conv --db tune.serve.db.json --out BENCH_tune.serve.json
	./_build/default/bin/tune.exe -n 16 --kernels gemm,2mm --device-class digital --db tune.serve.db.json --out BENCH_tune.serve.json
	./_build/default/bin/tune.exe -n 24 --kernels gemm,gesummv,bicg,mvt --device-class digital --db tune.serve.db.json --out BENCH_tune.serve.json
	./_build/default/bin/tune.exe -n 12 --kernels 3mm,conv --device-class digital --db tune.serve.db.json --out BENCH_tune.serve.json

# Regenerate BENCH_serve.json, the one target that writes it, in full:
# the classic mixed-fleet replay (per-class telemetry and one golden
# check per compute class) and all four open-loop load
# patterns (sustained, overload, burst-recovery, diurnal) ride along,
# then 100k multi-kernel requests (MLP-4 and attention blocks from
# lib/graph) run through the mixed fleet with cross-request weight
# residency on ("graph-pinned") and off ("graph-unpinned"),
# golden-checked per compute class. Reports weight-write bytes per
# 1000 requests for both runs and fails below a 5x pinned-vs-unpinned
# reduction. --tiles 4 so a whole model's weights fit pinned on one
# device. Serving speed is judged by `make e2e-compare`, not by this
# report's wall clock; a --smoke variant of the graph run runs under
# `dune runtest`.
graph-bench: tune.serve.db.json
	dune build bin/serve.exe
	./_build/default/bin/serve.exe --load --graph --fleet pcm:2,digital:2,dual:2 --tiles 4 --tune-db tune.serve.db.json --out BENCH_serve.json

# Regenerate BENCH_reliab.json at the repo root: stuck-cell fault
# campaigns over the gemm/gesummv/mvt mix with the ABFT guard armed,
# scored for detection rate, SDC rate and recovery overhead against a
# fault-free replay of the same trace. --strict fails on any silent
# corruption.
reliab-bench:
	dune build bin/reliab.exe
	./_build/default/bin/reliab.exe --sweep 0,1,2,4 --requests 80 --devices 3 --strict --out BENCH_reliab.json

# Regenerate BENCH_tune.json at the repo root: the full autotuning sweep
# over the PolyBench suite (small dataset) — per-kernel design-space
# search with cost-model calibration and exact re-ranking, persisted to
# tune.db.json for tdoc --tune-db and serve --tune-db. --strict fails
# if any kernel tunes worse than the compiler default.
tune-bench:
	dune build bin/tune.exe
	./_build/default/bin/tune.exe --dataset small --strict --db tune.db.json --out BENCH_tune.json

# Judge the working tree against BASE with the end-to-end serving
# benchmark: PAIRS alternating base/change pairs of `bench/e2e run
# --seconds 12` on seeds FIRST_SEED+1 .. FIRST_SEED+PAIRS, then
# `bench/e2e compare`. Exits 1 if any metric got worse. About 40 s per
# pair on 2 cores. Example: make e2e-compare BASE=HEAD~1 FIRST_SEED=500
BASE ?= HEAD
PAIRS ?= 10
FIRST_SEED ?= 0
e2e-compare:
	tools/e2e_pairs.sh $(BASE) $(PAIRS) $(FIRST_SEED)

clean:
	dune clean
