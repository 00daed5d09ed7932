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

ci:
	dune build @all
	dune runtest
	# The repository benchmark at 1/20 scale: fails if tracing perturbs
	# any modelled result.
	dune build @bench/perf/smoke
	dune exec bench/main.exe -- quick
	# Image stats: exercise a small image (geometry chosen so the cleaner
	# engages); --check fails on any NaN/negative metric.
	$(LFS_TOOL) mkfs ci-stats.img --blocks 1024 --segment-blocks 64
	$(LFS_TOOL) stats ci-stats.img --exercise 120 --json --check > /dev/null
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
	# Crash consistency over the product: a device-level crash sweep and
	# a model refinement check with io-depth 4 in flight, each gated on
	# zero divergences; the refinement report must also be
	# byte-identical for equal seeds.
	set -e; for fs in $(PRODUCT); do \
	  $(LFS_TOOL) crashtest --fs $$fs --workload script --stride 7 --seed 1; \
	  for run in a b; do \
	    $(LFS_TOOL) modelcheck --fs $$fs --seqs 3 --stride 5 --seed 1 \
	      --json > ci-model-$$run.json; \
	  done; \
	  cmp ci-model-a.json ci-model-b.json; \
	done
	rm -f ci-serve-a.json ci-serve-b.json ci-model-a.json ci-model-b.json

# Behaviour gate for refactors: export REV (git archive, so the checkout
# is untouched), build it, and require byte-identical serve JSON (plain,
# and with idle-time cleaning over an 8-deep queue) for every recipe in
# SPECS, byte-identical modelcheck JSON (op sequences and the serving
# engine), crashtest reports (script and smallfile workloads) and
# exercised stats JSON for every recipe in PRODUCT, and byte-identical
# output from every example program.  The stats run is sized so the
# cleaner works: foreground and background passes, promotion on tiered
# recipes, several checkpoints per shard; the examples add the greedy
# policy.  Every difference is listed, then the target fails.
#   make same REV=<rev>
EXAMPLES := quickstart office_workload crash_recovery cleaner_tuning nvram_buffer

same:
	@test -n "$(REV)" || { echo "usage: make same REV=<rev>" >&2; exit 2; }
	dune build bin/lfs_tool.exe @examples/all
	set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/src" "$$tmp/old" "$$tmp/new"; \
	git archive "$(REV)" | tar -x -C "$$tmp/src"; \
	dune build --root "$$tmp/src" bin/lfs_tool.exe @examples/all; \
	outputs() { \
	  for fs in $(SPECS); do \
	    $$1/bin/lfs_tool.exe serve --clients 16 --ops 50 --seed 42 --fs $$fs --json > "$$2/serve-$$fs.json"; \
	    $$1/bin/lfs_tool.exe serve --clients 16 --ops 50 --seed 42 --fs $$fs --bg-clean --io-depth 8 \
	      --json > "$$2/serve-bg-$$fs.json"; \
	  done; \
	  for fs in $(PRODUCT); do \
	    $$1/bin/lfs_tool.exe modelcheck --fs $$fs --seqs 3 --stride 5 --seed 1 --json > "$$2/model-$$fs.json"; \
	    $$1/bin/lfs_tool.exe crashtest --fs $$fs --workload script --stride 7 --seed 1 > "$$2/crash-$$fs.txt"; \
	    $$1/bin/lfs_tool.exe modelcheck --fs $$fs --engine --stride 5 --seed 1 --json > "$$2/model-engine-$$fs.json"; \
	    $$1/bin/lfs_tool.exe crashtest --fs $$fs --workload smallfile --stride 7 --seed 1 > "$$2/crash-smallfile-$$fs.txt"; \
	    $$1/bin/lfs_tool.exe stats --fs $$fs --blocks 4096 --exercise 400 --json > "$$2/stats-$$fs.json"; \
	  done; \
	  for ex in $(EXAMPLES); do $$1/examples/$$ex.exe > "$$2/example-$$ex.txt"; done; \
	}; \
	outputs "$$tmp/src/_build/default" "$$tmp/old"; \
	outputs _build/default "$$tmp/new"; \
	differ=0; for f in $$(ls "$$tmp/old"); do \
	  cmp -s "$$tmp/old/$$f" "$$tmp/new/$$f" || { \
	    echo "differs: $$f"; diff "$$tmp/old/$$f" "$$tmp/new/$$f" | head -n 20 || true; \
	    differ=$$((differ + 1)); }; \
	done; \
	test $$differ -eq 0 || { echo "same: $$differ of $$(ls "$$tmp/old" | wc -l) outputs differ from $(REV)" >&2; exit 1; }; \
	echo "same: $$(ls "$$tmp/old" | wc -l) outputs byte-identical to $(REV)"

clean:
	dune clean

.PHONY: all test bench bench-quick micro examples verify ci same clean
