PYTHON ?= python
PYTHONPATH := src

# Fixed seed matrix for reproducible CI fuzz rounds.
FUZZ_SEEDS ?= 0 1 2 3 4
FUZZ_BUDGET ?= 200

# The seeded CI fault-injection campaign (see `make fault`).
FAULT_SEED ?= 0
FAULT_CASES ?= 200

.PHONY: test test-quick test-leaks fuzz replay fault serve-chaos bench bench-full bench-walk bench-corpus bench-planner bench-kernel bench-store bench-serve bench-coldpath bench-check perfbench-selftest

## Full tier-1 suite (includes the marked oracle fuzz and fault tests).
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

## Tier-1 with leaked file handles as errors: a reader or writer
## dropped without closing its file raises a ResourceWarning, which
## fails the test that leaked it.
test-leaks:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q -W error::ResourceWarning -W error::pytest.PytestUnraisableExceptionWarning

## Everything except the fuzz and fault rounds — the quick local loop.
test-quick:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q -m "not oracle and not faults"

## Cross-engine differential fuzzing: the marked pytest rounds plus a
## CLI sweep over the fixed seed matrix.  Fails on any disagreement;
## shrunk reproducers land in tests/corpus/.
fuzz:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m oracle
	@for seed in $(FUZZ_SEEDS); do \
		echo "== oracle seed $$seed =="; \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.oracle \
			--seed $$seed --budget $(FUZZ_BUDGET) || exit 1; \
	done

## Replay the stored counterexample corpus only.
replay:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.oracle --replay

## Seeded fault-injection campaign: the marked pytest rounds plus the
## 200-case CLI campaign.  Fails unless every injected fault is absorbed
## by fallback with a byte-identical answer.
fault:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m faults
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.resilience \
		--seed $(FAULT_SEED) --cases $(FAULT_CASES)

## The query-service fault battery: disconnects, torn frames, worker
## crashes, deadline expiry and admission bursts, each asserting the
## bystander session still answers correctly.
serve-chaos:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m service

## Quick engine-vs-reference trajectory (seconds; writes BENCH_engine.json).
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.bench --quick

## The committed full-size trajectory (a few minutes).
bench-full:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.bench

## Walking-engine trajectory: caterpillar + TWA (writes BENCH_walk.json).
bench-walk:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.bench --suite walk

## Corpus batch trajectory: set-at-a-time batches vs the naive per-call
## loop (writes BENCH_corpus.json).
bench-corpus:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.bench --suite corpus

## Adaptive-planner trajectory: engine="auto" vs both manual choices,
## with chosen plans and estimate-vs-actual errors per query (writes
## BENCH_planner.json), then gate it: auto must pick the fastest engine
## on >= 80% of cells and stay within 1.1x of the best manual choice
## (median at the top size).
bench-planner:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.bench --suite planner
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.bench --check BENCH_planner.json

## Stacked-kernel trajectory: the vectorized shard executor vs the
## per-tree fast loop and the planner's auto route (writes
## BENCH_kernel.json), then gate it: the vectorized route must clear
## 2x median warm speedup at the top corpus size.
bench-kernel:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.bench --suite kernel
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.bench --check BENCH_kernel.json

## Disk-store trajectory: streaming ingest (child-process peak RSS),
## cold open and warm fixed-window batches at 1x/10x corpus size, and
## incremental index repair vs full rebuild (writes BENCH_store.json),
## then gate it: warm window latency flat within 1.3x across the 10x
## decade, ingest RSS sublinear, repair >= 5x at n >= 10k nodes.
bench-store:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.bench --suite store
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.bench --check BENCH_store.json

## Query-service trajectory: closed-loop clients at 1/8/32 concurrency
## plus a chaos round of injected faults (writes BENCH_serve.json),
## then gate it: >= 2x aggregate throughput at 8 clients vs 1, chaos
## p99 within 10x of calm, zero wrong answers, zero chaos errors.
bench-serve:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.bench --suite serve
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.bench --check BENCH_serve.json

## Zero-rebuild cold-path trajectory: a fresh process serves a cold
## 256-tree window from generation-tied index sidecars vs rebuilding
## indexes from unpickled trees, at 10k and 100k trees, plus cached
## window replay through the dispatcher (writes BENCH_coldpath.json),
## then gate it: sidecars >= 3x rebuild at 100k trees, cached replay
## p50 >= 5x a miss, zero oracle disagreements, zero wrong cached
## answers.
bench-coldpath:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.bench --suite coldpath
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.bench --check BENCH_coldpath.json

## Fail if any committed BENCH_*.json (engine, walk, corpus, planner,
## kernel, store, serve, coldpath) reports a median speedup < 1.0,
## swallowed per-case errors, or a trajectory missing its
## pick-rate/overhead/kernel/store/serve/coldpath gates.
bench-check:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.bench --check

## The repository benchmark's self-tests (perfbench/, ~1 min): every
## metric per workload, seeded determinism, and the writer/serve
## protocol the workloads drive.  Not tier-1.
perfbench-selftest:
	$(PYTHON) -m pytest perfbench -q
