# Convenience targets; everything is plain dune underneath.

# pipefail so `| tee` in verify cannot mask a failing build or test run.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

all:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

bench-quick:
	dune exec bench/main.exe -- quick

micro:
	dune exec bench/main.exe -- micro

examples:
	dune exec examples/quickstart.exe
	dune exec examples/office_workload.exe
	dune exec examples/crash_recovery.exe
	dune exec examples/cleaner_tuning.exe
	dune exec examples/nvram_buffer.exe

verify:
	dune build @all
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

# Volume recipes CI drives through every tool (grammar: see `lfs_tool
# serve --help`).  PRODUCT is heads x tier x shard; a new shape costs
# one list entry.
PRODUCT := lfs lfs:heads=2 lfs:tier:25:promote=2 lfs:heads=2:tier:25:promote=2 \
	shard:2 shard:2:heads=2 shard:2:tier:25:promote=2 shard:2:heads=2:tier:25:promote=2
SPECS := $(PRODUCT) ffs lfs:tier:25 shard:4:by_subtree

LFS_TOOL := _build/default/bin/lfs_tool.exe
PERF := _build/default/bench/perf/perf.exe

# The committed trajectory, BENCH_perf.json: the repository benchmark's
# four workloads at seed 1 (`perf all --seed 1`, minimum length), one
# entry each with its exact modelled strings, `attempted`, `failed` and
# `correct`, and under `host` the host metrics, which no comparison
# reads.  PERF_JSON turns perf's result files into that object;
# PERF_MODELLED drops the host part for the comparison.
PERF_JSON := jq -S -s '{seed: 1, workloads: (map({key: .workload, value: \
	{correct, attempted, failed, modelled, host: (.modelled as $$m | .metrics \
	| with_entries(select(.key as $$k | $$m | has($$k) | not)) | map_values(.value))}}) \
	| from_entries)}'
PERF_MODELLED := jq -S 'del(.workloads[].host)'
# Run `perf all --seed 1` into $tmp/out and print the result in
# BENCH_perf.json's form (inside a recipe that sets tmp).
PERF_NOW := $(PERF) all --seed 1 --out "$$tmp/out" > /dev/null; $(PERF_JSON) "$$tmp"/out/*.json

ci:
	dune build @all
	dune runtest
	# The repository benchmark at 1/20 scale: fails if tracing perturbs
	# any modelled result.
	dune build @bench/perf/smoke
	# The trajectory: every modelled result of `perf all --seed 1` must
	# equal BENCH_perf.json's exactly.
	$(MAKE) --no-print-directory bench-check
	dune exec bench/main.exe -- quick
	# Image stats: exercise a small image (geometry chosen so the cleaner
	# engages); --check fails on any NaN/negative metric.  Then roll it
	# forward once, printing the recovery's per-phase disk time and reads.
	$(LFS_TOOL) mkfs ci-stats.img --blocks 1024 --segment-blocks 64
	$(LFS_TOOL) stats ci-stats.img --exercise 120 --json --check > /dev/null
	$(LFS_TOOL) recover ci-stats.img
	rm -f ci-stats.img
	# Every recipe: served, exercised with metric validation, and served
	# again with idle-time cleaning over an 8-deep device queue — twice,
	# since equal seeds must produce byte-identical JSON.
	set -e; for fs in $(SPECS); do \
	  echo "serve/stats: $$fs"; \
	  $(LFS_TOOL) serve --clients 8 --ops 50 --seed 1 --fs $$fs --check > /dev/null; \
	  $(LFS_TOOL) stats --fs $$fs --exercise 80 --json --check > /dev/null; \
	  for run in a b; do \
	    $(LFS_TOOL) serve --clients 16 --ops 50 --seed 42 --fs $$fs --bg-clean \
	      --io-depth 8 --json --check > ci-serve-$$run.json; \
	  done; \
	  cmp ci-serve-a.json ci-serve-b.json; \
	done
	# Crash consistency over the product: device-level crash sweeps (the
	# script workload every 7th cut, the smallfile workload, roll-forward's
	# many-small-files shape, at every cut) and a model refinement check
	# with io-depth 4 in flight, each gated on zero divergences; the
	# refinement report must also be byte-identical for equal seeds, and
	# on lfs some idle step must have run a cleaning pass, so cuts land
	# inside and after passes that left their victims uncheckpointed.
	set -e; for fs in $(PRODUCT); do \
	  $(LFS_TOOL) crashtest --fs $$fs --workload script --stride 7 --seed 1; \
	  $(LFS_TOOL) crashtest --fs $$fs --workload smallfile --stride 1 --seed 1; \
	  for run in a b; do \
	    $(LFS_TOOL) modelcheck --fs $$fs --seqs 3 --stride 5 --seed 1 \
	      --json > ci-model-$$run.json; \
	  done; \
	  cmp ci-model-a.json ci-model-b.json; \
	  if [ "$$fs" = lfs ]; then \
	    grep -q '"total_idle_passes":[1-9]' ci-model-a.json || { \
	      echo "modelcheck: no idle step ran a cleaning pass on lfs" >&2; exit 1; }; \
	  fi; \
	done
	# Every cut of seed 2's sequences on the single-volume recipes: its
	# sequence 4 frees, reuses and renames over an ino between two syncs,
	# which the strided sweeps above never cut.
	set -e; for fs in lfs lfs:heads=2 lfs:tier:25:promote=2; do \
	  $(LFS_TOOL) modelcheck --fs $$fs --seqs 5 --stride 1 --seed 2 > /dev/null; \
	done
	rm -f ci-serve-a.json ci-serve-b.json ci-model-a.json ci-model-b.json

# Rewrite BENCH_perf.json from this tree; a change that moves a modelled
# value commits the new file and explains the move in CHANGES.md.
bench-baseline:
	dune build bench/perf/perf.exe
	set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(PERF_NOW) > BENCH_perf.json

# Fail when any modelled result of `perf all --seed 1`, or its attempted,
# failed or correct count, differs from BENCH_perf.json (~6 s).
bench-check:
	dune build bench/perf/perf.exe
	set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(PERF_NOW) > "$$tmp/now.json"; \
	diff <($(PERF_MODELLED) BENCH_perf.json) <($(PERF_MODELLED) "$$tmp/now.json") || { \
	  echo "bench-check: modelled results differ from BENCH_perf.json" \
	    "(make bench-baseline rewrites it; explain the move in CHANGES.md)" >&2; exit 1; }
	@echo "bench-check: modelled results equal BENCH_perf.json"

# Behaviour gate for refactors: export REV (git archive, so the checkout
# is untouched), build it, and require byte-identical serve JSON (plain,
# and with idle-time cleaning over an 8-deep queue) and exercised stats
# JSON for every recipe in SPECS, byte-identical modelcheck JSON (op
# sequences and the serving engine) and crashtest reports (script and
# smallfile workloads) for every recipe in PRODUCT, and byte-identical
# output from every example program.  The stats run is sized so the
# cleaner works: foreground and background passes, promotion on tiered
# recipes, several checkpoints per shard; the examples add the greedy
# policy.  Serve and modelcheck JSON never show a checksum, so an image
# gate also compares the bytes on disk: a small image replays a recorded
# trace sized so the cleaner relocates, then is cleaned, and the image,
# the trace and the tool's output must match.  Only the replay's
# relocations reuse checksums logged in the same mount (the final clean
# is a fresh mount), so the target fails if the replay's write cost is
# not above 1, i.e. if the cleaner stopped relocating during it.  None
# of those inputs reads a multi-block file from a cold cache, cleans
# with Config.Live_blocks reads or prints roll-forward's reads, so four
# bench experiments close the gap, compared without the wall-clock
# line: `bench quick fig9` (large-file reads) and `bench quick bgclean`
# (the live-blocks cleaner under the serving engine) in one output,
# `bench quick table3` (the scan's reads per cell) and `crashsweep` in
# another.  Every difference is listed, then the target fails.
#   make same REV=<rev>
EXAMPLES := quickstart office_workload crash_recovery cleaner_tuning nvram_buffer

same:
	@test -n "$(REV)" || { echo "usage: make same REV=<rev>" >&2; exit 2; }
	dune build bin/lfs_tool.exe bench/main.exe @examples/all
	set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/src" "$$tmp/old" "$$tmp/new"; \
	git archive "$(REV)" | tar -x -C "$$tmp/src"; \
	dune build --root "$$tmp/src" bin/lfs_tool.exe bench/main.exe @examples/all; \
	outputs() { \
	  for fs in $(SPECS); do \
	    $$1/bin/lfs_tool.exe serve --clients 16 --ops 50 --seed 42 --fs $$fs --json > "$$2/serve-$$fs.json"; \
	    $$1/bin/lfs_tool.exe serve --clients 16 --ops 50 --seed 42 --fs $$fs --bg-clean --io-depth 8 \
	      --json > "$$2/serve-bg-$$fs.json"; \
	    $$1/bin/lfs_tool.exe stats --fs $$fs --blocks 4096 --exercise 400 --json > "$$2/stats-$$fs.json"; \
	  done; \
	  for fs in $(PRODUCT); do \
	    $$1/bin/lfs_tool.exe modelcheck --fs $$fs --seqs 3 --stride 5 --seed 1 --json > "$$2/model-$$fs.json"; \
	    $$1/bin/lfs_tool.exe crashtest --fs $$fs --workload script --stride 7 --seed 1 > "$$2/crash-$$fs.txt"; \
	    $$1/bin/lfs_tool.exe modelcheck --fs $$fs --engine --stride 5 --seed 1 --json > "$$2/model-engine-$$fs.json"; \
	    $$1/bin/lfs_tool.exe crashtest --fs $$fs --workload smallfile --stride 7 --seed 1 > "$$2/crash-smallfile-$$fs.txt"; \
	  done; \
	  for ex in $(EXAMPLES); do $$1/examples/$$ex.exe > "$$2/example-$$ex.txt"; done; \
	  $$1/bench/main.exe quick fig9 bgclean | grep -v '^\[bench completed' > "$$2/bench-quick.txt"; \
	  $$1/bench/main.exe quick table3 crashsweep | grep -v '^\[bench completed' > "$$2/bench-recovery.txt"; \
	  { $$1/bin/lfs_tool.exe mkfs "$$2/image.img" --blocks 1024 --segment-blocks 64; \
	    $$1/bin/lfs_tool.exe trace-record "$$2/image.trace" --ops 600 --seed 1; \
	    $$1/bin/lfs_tool.exe trace-replay "$$2/image.img" "$$2/image.trace"; \
	    $$1/bin/lfs_tool.exe clean "$$2/image.img"; } | sed "s|$$2/||g" > "$$2/image.txt"; \
	}; \
	outputs "$$tmp/src/_build/default" "$$tmp/old"; \
	outputs _build/default "$$tmp/new"; \
	awk '/^replayed/ { c = $$NF + 0 } END { exit !(c > 1) }' "$$tmp/new/image.txt" || { \
	  echo "same: the image gate's trace-replay no longer relocates (write cost not above 1)" >&2; exit 1; }; \
	differ=0; for f in $$(ls "$$tmp/old"); do \
	  cmp -s "$$tmp/old/$$f" "$$tmp/new/$$f" || { \
	    echo "differs: $$f"; diff "$$tmp/old/$$f" "$$tmp/new/$$f" | head -n 20 || true; \
	    differ=$$((differ + 1)); }; \
	done; \
	test $$differ -eq 0 || { echo "same: $$differ of $$(ls "$$tmp/old" | wc -l) outputs differ from $(REV)" >&2; exit 1; }; \
	echo "same: $$(ls "$$tmp/old" | wc -l) outputs byte-identical to $(REV)"

clean:
	dune clean

.PHONY: all test bench bench-quick micro examples verify ci bench-baseline bench-check same clean
