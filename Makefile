GO ?= go

.PHONY: build test race vet lint trace-smoke chaos chaos-net chaos-integrity chaos-overload chaos-recovery chaos-tree chaos-serving verify benchmark benchmark-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs the static analyzers: go vet always, staticcheck when it is
# installed (CI installs it; locally `go install honnef.co/go/tools/cmd/staticcheck@latest`).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# trace-smoke runs a query with -trace and validates the Chrome-trace
# output: parses, one span track per rank, span names within the metered
# phase set. Covers both the in-process world and a TCP gang (per-rank
# trace files).
trace-smoke:
	$(GO) build -o /tmp/paralagg-trace ./cmd/paralagg
	/tmp/paralagg-trace -query sssp -graph wiki-sim -ranks 4 -subs 2 -quiet -trace /tmp/paralagg-smoke.json
	$(GO) run ./cmd/tracecheck -ranks 4 /tmp/paralagg-smoke.json
	/tmp/paralagg-trace -query sssp -graph wiki-sim -subs 2 -transport=tcp -spawn 3 -quiet -trace /tmp/paralagg-gang.json
	$(GO) run ./cmd/tracecheck -ranks 3 /tmp/paralagg-gang.rank0.json /tmp/paralagg-gang.rank1.json /tmp/paralagg-gang.rank2.json

# chaos runs the crash/restart differential suite end to end.
chaos:
	$(GO) run ./cmd/paralagg -chaos

# chaos-net runs the network chaos suite over real loopback TCP gangs:
# repairable wire faults (slow links, resets, corrupted frames) must be
# bit-identical to in-process runs, partitions must fail structurally on
# every rank, and a killed endpoint must be recovered by the supervisor.
chaos-net:
	$(GO) run ./cmd/paralagg -chaos-net

# chaos-integrity runs the state-integrity suite: silent in-memory bit
# flips must be detected within one iteration and healed by supervised
# rollback, rotten checkpoint generations must be quarantined with recovery
# falling back exactly one generation, and TCP gangs must agree on the
# divergence — every recovered answer bit-identical to the fault-free one.
chaos-integrity:
	$(GO) run ./cmd/paralagg -chaos-integrity

# chaos-overload runs the resource-exhaustion suite: slow consumers must be
# rate-matched by credit-based flow control inside a bounded outbox, phantom
# memory pressure against a budget must shed (soft) or fail structurally and
# recover under supervision (hard), and a full checkpoint device must
# degrade to an in-memory sink — every completed run bit-identical to the
# fault-free answer, nothing OOM-killed.
chaos-overload:
	$(GO) run ./cmd/paralagg -chaos-overload

# chaos-recovery runs the hot-replacement suite: a TCP gang loses a rank
# mid-exchange, survivors park in place with their in-memory state intact,
# and a replacement process rejoins at the next membership epoch, restores
# only its own shard, and splices into the retained send histories — the
# repaired answer bit-identical to the fault-free run at 4 and 8 ranks, and
# strictly cheaper than the whole-world restart control arm.
chaos-recovery:
	$(GO) run ./cmd/paralagg -chaos-recovery

# chaos-serving runs the serving differential suite: every scenario's
# insert/delete batches stream into a long-lived engine at 1, 2, and 4
# ranks, and after the initial load and every batch the resident relations
# must be bit-identical to a from-scratch recomputation over the same base
# facts. Incremental insert-only batches must also re-converge in strictly
# fewer iterations than the from-scratch control.
chaos-serving:
	$(GO) run ./cmd/paralagg -chaos-serving

# chaos-tree replays the crash/restart and hot-replacement suites with every
# collective routed through the binomial tree schedule: the same
# bit-identical differentials must hold when reductions take multi-hop
# routes, checkpoint cuts cross a tree barrier, and a replacement splices
# into tree-shaped retained send histories.
chaos-tree:
	$(GO) run ./cmd/paralagg -chaos -collective-schedule=tree
	$(GO) run ./cmd/paralagg -chaos-recovery -collective-schedule=tree

# verify is the CI gate: static checks plus the full suite under the race
# detector (the SPMD runtime is all goroutines — races are correctness bugs
# here, not style). The -race pass includes the integrity differentials in
# internal/chaos: divergence detection panics cross every rank's goroutine,
# so they are exactly where races would hide. The storage B-tree then takes
# a bounded fuzz pass: random Insert/Delete/UpsertPrefix/Reset/Build/scan
# sequences at arities 1-4 against a sorted-slice reference. So does the
# checkpoint reader: pairs of file images through the envelope decoder and
# the one restore, which must reject what is malformed without panicking or
# allocating beyond the input's size.
verify: vet
	$(GO) test -race ./...
	$(GO) test -run '^$$' -fuzz FuzzAgainstSortedSlice -fuzztime 15s -fuzzminimizetime 10x ./internal/btree
	$(GO) test -run '^$$' -fuzz FuzzRestoreCheckpointFiles -fuzztime 10s -fuzzminimizetime 10x ./internal/ra

# benchmark runs the repository's one committed benchmark (BENCHMARK.json's
# command): four workloads, a timed and a traced pass each, then the layer
# probes — about two and a half minutes. benchmark-smoke is the CI variant:
# tiny inputs, seconds; a shape check, not a measurement.
benchmark:
	bash benchmark/run.sh

benchmark-smoke:
	bash benchmark/run.sh -smoke
