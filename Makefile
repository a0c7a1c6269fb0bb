GO ?= go

.PHONY: build test race vet lint trace-smoke chaos verify benchmark benchmark-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs the static analyzers: go vet and gofmt (any file gofmt would
# rewrite fails it) always, staticcheck when it is installed (CI installs
# it; locally `go install honnef.co/go/tools/cmd/staticcheck@latest`).
lint: vet
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l lists unformatted files:"; gofmt -l .; exit 1; }
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

# chaos drives internal/chaos's one table of differential checks through
# the binary's driver: every suite (crash, net, integrity, overload,
# recovery, serving — README "Chaos suites" says what each proves) under the
# flat schedule, then the two that cut checkpoints and splice replacements
# again with every collective routed through the binomial tree. Any suite
# replays under any schedule: -chaos=<suite[,suite]> -collective-schedule=<s>.
# `make verify` runs the same table under -race as internal/chaos's tests.
chaos:
	$(GO) run ./cmd/paralagg -chaos=all
	$(GO) run ./cmd/paralagg -chaos=crash,recovery -collective-schedule=tree

# verify is the CI gate: static checks plus the full suite under the race
# detector (the SPMD runtime is all goroutines — races are correctness bugs
# here, not style). The -race pass includes the integrity differentials in
# internal/chaos: divergence detection panics cross every rank's goroutine,
# so they are exactly where races would hide. The storage B-tree then takes
# a bounded fuzz pass: random Insert/Delete/MergePrefix/Reset/Build/scan
# sequences at arities 1-4 against a sorted-slice reference, and so does the
# sorted run an index's Δ lives in: random batches at arities 1-4, refilled
# into one run, read back (Len, Ascend, AscendPrefix with an early stop, Has)
# against a tree of the same batch, and so does the frozen run a base
# relation's FULL and an accumulator cache live in: random Load/Merge/Filter
# batches at arities 1-4 and every join-key width, 0 (no directory)
# included, read back (what each batch left, Len, Ascend, Has, AscendPrefix
# at every prefix width, the directory's among them) against a sorted slice,
# and so does the sort every Δ run and fill of FULL goes through: byte-coded
# batches at arities 1-4 through tuple.Sorter.Order against the stable
# comparison sort, and btree.Run.Sort's deduplicated run against the
# comparison sort's distinct tuples, and so does the rule
# compiler: random head and condition term trees, three deep over every op
# kind, through the flat op list against a tree walk, and so does
# incremental maintenance: generated insert/delete histories over nine
# programs (bounded and unbounded retraction, a non-linear rule, a base
# relation read through a second index, an aggregated one through a
# replica) at 1-3
# ranks, every batch bit-identical to the naive evaluator. So does the
# checkpoint reader: pairs of file images stored in both sink backends
# (memory and directory), read back through the one envelope decoder, and
# handed to the one restore, which must reject what is malformed without
# panicking or allocating beyond the input's size. The three remaining
# decoders of outside bytes take the same pass: the topology file parser (a parse that succeeds
# yields finite link costs), the TCP frame reader (no buffer sized past the
# connection's limit, a parsed frame re-encodes to its bytes) and /apply
# bodies against a real engine (200 or 400, never 500; a rejected batch
# applies nothing and the engine keeps answering queries). The
# allocation pins run a second time without -race: the detector changes what
# allocates, and the plain build is what the benchmark measures. The
# racing-ranks test of recycled receive rows and the spinning-take tests run
# ten more times under -race, as their docs ask: one pass rarely hits the
# interleaving they guard, and they are the check on how a mailbox's one
# taker waits, both the spin that re-polls the queue and the park that a
# put, an abort or the deadline wakes. The plain
# allocation pass covers every package, the root's query pins included.
verify: vet
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'RecycledRows|SpinningTake' ./internal/mpi
	$(GO) test -count=1 -run 'Allocs|AllocFree' ./...
	$(GO) test -run '^$$' -fuzz FuzzAgainstSortedSlice -fuzztime 15s -fuzzminimizetime 10x ./internal/btree
	$(GO) test -run '^$$' -fuzz FuzzRunAgainstTree -fuzztime 10s -fuzzminimizetime 10x ./internal/btree
	$(GO) test -run '^$$' -fuzz FuzzFrozenAgainstSortedSlice -fuzztime 10s -fuzzminimizetime 10x ./internal/btree
	$(GO) test -run '^$$' -fuzz FuzzSortedRun -fuzztime 10s -fuzzminimizetime 10x ./internal/tuple
	$(GO) test -run '^$$' -fuzz FuzzCompiledTerms -fuzztime 10s -fuzzminimizetime 10x ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzDeletionHistories -fuzztime 10s -fuzzminimizetime 10x ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzRestoreCheckpointFiles -fuzztime 10s -fuzzminimizetime 10x ./internal/ra
	$(GO) test -run '^$$' -fuzz FuzzParseTopology -fuzztime 10s -fuzzminimizetime 10x ./internal/mpi
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime 10s -fuzzminimizetime 10x ./internal/transport/tcp
	$(GO) test -run '^$$' -fuzz FuzzLiveApply -fuzztime 10s -fuzzminimizetime 10x .

# benchmark runs the repository's one committed benchmark (BENCHMARK.json's
# command): four workloads, a timed and a traced pass each, then the layer
# probes — about two and a half minutes. benchmark-smoke is the CI variant:
# tiny inputs, seconds; a shape check, not a measurement.
benchmark:
	bash benchmark/run.sh

benchmark-smoke:
	bash benchmark/run.sh -smoke
