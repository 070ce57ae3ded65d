GO ?= go
# LINTFLAGS passes extra flags to tdblint, e.g. an escape hatch while
# iterating: make check LINTFLAGS='-skip locked-io'.
LINTFLAGS ?=
# WRITEBEHIND lists the write-behind modes (TDB_WRITEBEHIND values) the
# faults and bench-smoke suites sweep: the tail buffer must be invisible
# to crash recovery and the perf harness in both states. Narrow while
# iterating: make faults WRITEBEHIND=off.
WRITEBEHIND ?= on off
# CHAOS_SEED / CHAOS_ACTIONS parameterize the chaos oracle (test/chaos).
# The defaults give a short deterministic run for the pre-merge gate; a
# failure prints the exact `make chaos CHAOS_SEED=… CHAOS_ACTIONS=…` line
# that replays it, and long runs are just bigger numbers:
# make chaos CHAOS_ACTIONS=20000 CHAOS_SEED=$$RANDOM
CHAOS_SEED ?= 42
CHAOS_ACTIONS ?= 500
# FUZZTIME bounds the native Go fuzz run over the record decoder and the
# shared write-record validator (make fuzz FUZZTIME=1m for a longer run).
FUZZTIME ?= 10s

.PHONY: build test check faults lint fuzz bench bench-smoke bench-read-scaling bench-scan chaos

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs the in-tree analyzer suite (cmd/tdblint) over the whole module:
# lock-region I/O discipline, error-taxonomy conformance, secret hygiene,
# clock injection, and unlock-path pairing. Stdlib-only; see DESIGN.md §6.
lint:
	$(GO) run ./cmd/tdblint $(LINTFLAGS) ./...

# faults runs the hostile-disk suites under the race detector in short mode:
# programmable fault injection (transient I/O errors, bit rot, torn tails,
# lost unsynced writes), crash sweeps at every write boundary, transient
# retry semantics, scrub/quarantine, and repair from the backup chain —
# once per write-behind mode.
faults:
	@for wb in $(WRITEBEHIND); do \
		echo "== faults (TDB_WRITEBEHIND=$$wb) =="; \
		TDB_WRITEBEHIND=$$wb $(GO) test -race -short -count=1 \
			-run 'Fault|Transient|Retry|IOError|Crash|Torn|Rot|Scrub|Quarantine|Degraded|Repair|Tamper|Unsynced|WriteBehind' \
			./internal/platform/ ./internal/chunkstore/ ./internal/backupstore/ \
			./internal/objectstore/ . || exit 1; \
	done

# chaos runs the deterministic full-stack chaos oracle (test/chaos) under
# the race detector in both write-behind modes: a seeded action trace of
# commits, scans, backups, restores, scrubs, repairs and restarts stormed
# with crashes, torn tails, lost unsynced writes and bit rot, checked
# against a shadow model after every recovery. Same seed, same trace.
chaos:
	@for wb in $(WRITEBEHIND); do \
		echo "== chaos (TDB_WRITEBEHIND=$$wb, seed $(CHAOS_SEED), $(CHAOS_ACTIONS) actions) =="; \
		TDB_WRITEBEHIND=$$wb $(GO) test -race -count=1 ./test/chaos/ \
			-args -chaos.seed=$(CHAOS_SEED) -chaos.actions=$(CHAOS_ACTIONS) || exit 1; \
	done

# fuzz runs the native Go fuzz target over the bytes every read path trusts
# least: the record decoder (parseRecordBytes) and the shared write-record
# validator (writeRecordCiphertext), seeded with records a real store wrote.
# Neither may panic, and every rejection must match ErrTampered. A failing
# input is saved under internal/chunkstore/testdata/fuzz/ and replays as a
# plain test from then on.
fuzz:
	$(GO) test ./internal/chunkstore/ -run XXX -fuzz '^FuzzWriteRecord$$' -fuzztime $(FUZZTIME)

# check is the pre-merge gate: the fault-injection suite, the chaos oracle,
# the record fuzzer, vet, the trust-invariant analyzers, the full suite
# under the race detector (the chunk store's commit pipeline and read cache
# are concurrent), the repository benchmark's own tests under the race
# detector (perfbench is a separate module, so ./... does not reach it; they
# run the tpcb, meters and catalog workloads at smoke size), and a one-shot
# pass over every benchmark so the perf harness can't silently rot.
check: faults chaos fuzz
	$(GO) vet ./...
	$(MAKE) lint
	$(GO) test -race ./...
	(cd perfbench && $(GO) test -race -count=1 .)
	$(MAKE) bench-smoke

# bench reproduces the commit-pipeline / read-cache numbers recorded in
# EXPERIMENTS.md. Raw outputs are not committed; to regenerate the rest of
# the recorded evaluation, see "How to regenerate" at the top of
# EXPERIMENTS.md (cmd/footprint for Figure 8, cmd/tdbbench for Figures
# 9-11 and the suite ablation, `go test -bench` for the micro ablations).
bench:
	$(GO) test ./internal/chunkstore/ -run XXX -bench 'BenchmarkCommitParallelCrypto|BenchmarkConcurrentRead' -benchtime 1s

# bench-smoke runs every benchmark exactly once per write-behind mode —
# not for numbers, only to keep the benchmarks compiling and passing their
# own assertions in both states — plus the read-scaling and scan smokes
# below.
bench-smoke: bench-read-scaling bench-scan
	@for wb in $(WRITEBEHIND); do \
		echo "== bench-smoke (TDB_WRITEBEHIND=$$wb) =="; \
		TDB_WRITEBEHIND=$$wb $(GO) test ./... -run XXX -bench . -benchtime 1x || exit 1; \
	done

# bench-read-scaling exercises the off-mutex read path (DESIGN.md §7.7) at
# 1 and 8 concurrent readers in both write-behind modes. Like bench-smoke
# it is not for numbers: it keeps the snapshot/revalidate protocol, the
# sharded cache, and the singleflight running under both the serial and
# the contended scheduler shape on every gate.
bench-read-scaling:
	@for wb in $(WRITEBEHIND); do \
		echo "== bench-read-scaling (TDB_WRITEBEHIND=$$wb) =="; \
		TDB_WRITEBEHIND=$$wb $(GO) test ./internal/chunkstore/ -run XXX \
			-bench BenchmarkConcurrentRead -benchtime 1x -cpu 1,8 || exit 1; \
	done

# bench-scan runs the scan-pipeline experiment (DESIGN.md §7.8) in its
# seconds-long smoke shape, in both write-behind modes: full-collection
# sweeps with the prefetch window off and on, against a simulated disk, with
# and without a live writer. Not for numbers on the gate — the full shape
# (`tdbbench -exp scan`) produces the rows recorded in BENCH_objstore.json.
bench-scan:
	@for wb in $(WRITEBEHIND); do \
		echo "== bench-scan (TDB_WRITEBEHIND=$$wb) =="; \
		TDB_WRITEBEHIND=$$wb $(GO) run ./cmd/tdbbench -exp scan -smoke || exit 1; \
	done
