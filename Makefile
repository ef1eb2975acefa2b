GO ?= go

.PHONY: ci vet build test fuzz bench agree bench-smoke bench-check bench-pair bench-mc chaos-smoke bench-chaos alloc-gate store-smoke bench-store profile-runtime cluster-smoke bench-cluster

# ci is the gate: static checks, build, the full test suite under the
# race detector (it includes the load tests: 500 call lifecycles on a
# 4-shard ring cluster, the same population stopped under load, and 8
# paced MPEG-TS flows held to zero integrity errors), the
# parallel-vs-sequential checker agreement test, a short fuzz smoke so
# the sig and media fuzz targets are actually executed, a
# one-iteration benchmark smoke so the perf harness keeps compiling,
# the zero-alloc gates (non-race: the race detector defeats the
# accounting), a seeded chaos-storm so the fault-recovery story is
# re-proved on every run, and the benchmark's own checks so a change
# that stops bench/ compiling or running against the tree fails here.
ci: vet build test agree fuzz bench-smoke bench-check alloc-gate chaos-smoke store-smoke cluster-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# agree re-runs the twelve-model parallel determinism check under the
# race detector, the acceptance gate for the parallel explorer.
agree:
	$(GO) test -race -run='TestParallelAgreement' ./internal/mcmodel

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzUnmarshalEnvelope -fuzztime=10s ./internal/sig
	$(GO) test -run='^$$' -fuzz=FuzzEncoderEquivalence -fuzztime=10s ./internal/sig
	$(GO) test -run='^$$' -fuzz=FuzzEnvelopeAliasing -fuzztime=10s ./internal/sig
	$(GO) test -run='^$$' -fuzz=FuzzReadFrame -fuzztime=10s ./internal/sig
	$(GO) test -run='^$$' -fuzz=FuzzPacket -fuzztime=10s ./internal/media
	$(GO) test -run='^$$' -fuzz=FuzzTSPacket -fuzztime=10s ./internal/ts
	$(GO) test -run='^$$' -fuzz=FuzzPES -fuzztime=10s ./internal/ts
	$(GO) test -run='^$$' -fuzz=FuzzSlotRetransmit -fuzztime=10s ./internal/slot
	$(GO) test -run='^$$' -fuzz=FuzzWALReplay -fuzztime=10s ./internal/store

bench-smoke:
	$(GO) test -run='^$$' -bench='Explore|Marshal' -benchtime=1x ./internal/mcmodel ./internal/sig
	$(GO) test -run='^$$' -bench='PacketMarshal|AgentDeliver|AgentEmitBatch' -benchtime=1x ./internal/media
	$(GO) test -run='^$$' -bench='BenchmarkCallCycle' -benchtime=1x -cpu=1 ./internal/box

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench-check keeps bench/ — the repo's one measuring instrument, a
# module of its own that ./... does not reach — building and passing
# against the tree: its vet and tests, then its self-test of every
# workload.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh -smoke

# bench-pair compares the benchmark at REF (the parent) with the working
# tree by alternated pairs of untraced runs, seeds 1..PAIRS, each tree
# built by its own bench/run.sh (REF's is exported with git archive
# under .bench_build/). It prints each side's median [q1, q3], the pairs
# the change won and the bound for every workload x end-to-end metric
# in BENCHMARK.json, and fails on any metric worse than its bound.
# WORKLOADS narrows the set, e.g. WORKLOADS=calls-mux,calls-sat.
PAIRS ?= 10
SECONDS ?= 20
bench-pair:
	@test -n "$(REF)" || { echo "usage: make bench-pair REF=<commit> [WORKLOADS=a,b] [PAIRS=10] [SECONDS=20]"; exit 2; }
	$(GO) run ./cmd/benchpair $(REF) $(PAIRS) $(SECONDS) $(WORKLOADS)

# alloc-gate asserts the zero-alloc claims: the signaling decode path
# (interned strings, pooled Meta frames), a frame's encode and decode
# through a reused FrameReader, an application server's noMedia
# descriptor, and the end-to-end
# decode->inbox->dispatch->release path, the steady-state event
# dispatch path (box) both standalone and through a cluster shard, the
# media fast path — packet marshal, transmit staging, and wire delivery
# — the MPEG-TS container layer (PES mux, PSI generation, demux
# validation) and the framed fast path end to end, the reliable
# layer's steady-state send (stamp, retain, ack bookkeeping), a logical
# channel's envelopes from mux Send to the far RecvBatch over the
# reliable layer, and the store's disabled path and cached registry
# lookup allocate nothing; filling the intern table costs O(n) bytes,
# not a copy of the table per string; a ring-network dial, accept and
# close stay within their budget of one allocation of at most 128 B
# (the pipe's identity: its rings are a store an earlier channel
# released), an in-memory pipe is one allocation, and a mux channel's
# dial, accept and close at both ends stay within 8; a whole call
# through a relay already holding 600 others — dial, splice, flow,
# teardown — stays within its budget of 11 allocations and 1 KB; and
# what standing state holds stays within its footprint: an idle
# standalone runner 3 KB, a pumped in-memory channel with both pumps
# posted its measured size plus 10 %. The last two lines are
# race-detector runs of the two recycling rules: the runner's pumps
# recycle their batch buffer, and may hand it on only after the loop
# has acked the batch it carried, and a backlog crosses one pump whole
# and in order; a ring store goes to the next channel only once both
# ends of its last one have closed, so no envelope reaches a later
# channel and a stale port touches nothing.
alloc-gate:
	$(GO) test -run='TestDecodeZeroAlloc|TestEncodeZeroAlloc|TestFrameRoundTripZeroAlloc|TestInternGrowthLinear' ./internal/sig
	$(GO) test -run='TestServerDescribeZeroAlloc' ./internal/core
	$(GO) test -run='TestRunnerEventZeroAlloc|TestClusterEventZeroAlloc|TestRunnerEventEndToEndAllocs|TestCallCycleAllocBudget|TestStandaloneRunnerFootprint|TestPumpedChannelFootprint' ./internal/box
	$(GO) test -run='TestMediaZeroAlloc|TestTSFramingZeroAlloc' ./internal/media
	$(GO) test -run='TestTSZeroAlloc' ./internal/ts
	$(GO) test -run='TestRelSendSteadyStateZeroAlloc|TestRingDialAllocBudget|TestMuxCarrierZeroAlloc|TestMuxChannelAllocBudget|TestPipeAllocBudget' ./internal/transport
	$(GO) test -run='TestStoreZeroAlloc' ./internal/store
	$(GO) test -race -run='TestPumpStateReusedOnlyAfterAck|TestPumpBurstInOrder' ./internal/box
	$(GO) test -race -run='TestRingStoreIsolation|TestRingStalePort|TestRingCloseVsSend' ./internal/transport

# chaos-smoke is the seeded resilience gate: ~30 seconds of call
# lifecycles over a wire that drops 5% and duplicates 2% of envelopes
# with one mid-storm partition, while the Section V formulas are
# checked live. It exits nonzero on any bounded-time formula
# violation, a wedged path after drain, a give-up rate over budget, or
# a leaked goroutine. The second leg reruns the same profile with the
# population multiplexed onto 2 cluster shards, so the formulas are
# re-proved against the sharded runtime too.
chaos-smoke:
	$(GO) run ./cmd/chaosstorm -paths 24 -servers 3 -duration 20s -seed 1
	GOMAXPROCS=4 $(GO) run ./cmd/chaosstorm -paths 24 -servers 3 -shards 2 -duration 10s -seed 1

# store-smoke is the durable-state gate: a quick storestorm run so all
# three index backends re-prove the conformance/durability gates (every
# lookup hits, no acknowledged CDR lost across a crash, recovery lands
# on the durable count), then a short chaosstorm with a store crash at
# the storm midpoint so CDR-vs-lifecycle reconciliation is re-proved
# across a restart under live fault load.
store-smoke:
	$(GO) run ./cmd/storestorm -keys 500 -lookups 20000 -cdrs 5000
	$(GO) run ./cmd/chaosstorm -paths 8 -servers 3 -duration 5s -seed 1 -crash

# cluster-smoke is the multi-process resilience gate: call lifecycles
# across 2 supervised shard processes with a SIGKILL of the busiest
# shard mid-storm. clusterstorm exits nonzero unless the victim is
# restarted (and no shard exhausts its restart intensity), calls keep
# completing in the victim's new epoch, fleet-wide Section V checking
# stays clean, every client drains, cross-shard setups stay under the
# bound, fleet CDR reconciliation accounts for every acked CDR, and no
# child process or parent goroutine outlives the run. The race leg
# re-proves the router's dial-vs-readdress path under the detector —
# the exact interleaving a supervisor restart exercises.
cluster-smoke:
	$(GO) test -race -run='TestRouterAddrRace|TestRouterDialWaitsForAddress' ./internal/box
	$(GO) run ./cmd/clusterstorm -shards 2 -paths 8 -servers 4 -duration 6s -hold 200ms -giveup 6s -min-cps 1 -seed 1

# bench-cluster records the multi-process numbers — aggregate calls/s
# across the fleet, restart recovery time, cross-shard setup latency —
# written to BENCH_cluster.json.
bench-cluster:
	$(GO) run ./cmd/clusterstorm -shards 3 -paths 24 -servers 6 -duration 12s -seed 1 -out BENCH_cluster.json

# bench-chaos records the recovery numbers — recovery-latency
# percentiles, retransmit/reconnect counts, give-up rate — under the
# standard fault profile, written to BENCH_chaos.json.
bench-chaos:
	$(GO) run ./cmd/chaosstorm -paths 24 -servers 3 -shards 2 -duration 30s -delayrate 0.05 -reorder 0.02 -seed 1 -crash -out BENCH_chaos.json

# bench-store records the store numbers: point-lookup and CDR-append
# rates per index backend (registry cache off, so the index itself is
# measured), WAL group-commit fsync counts, and crash-recovery replay
# time, written to BENCH_store.json. The cached production hot path is
# reported once as cached_lookup_ns.
bench-store:
	$(GO) run ./cmd/storestorm -keys 5000 -lookups 200000 -cdrs 50000 -out BENCH_store.json

# profile-runtime captures CPU and allocation profiles of the call
# cycle for `go tool pprof` spelunking: BenchmarkCallCycle — one ring
# shard at GOMAXPROCS=1, a client redialing through a relay and a
# device already holding 600 calls — under the go tool's own profiling
# flags, so the channel churn path (dial, ring pipes, splice, flow,
# teardown) is what gets profiled. go test leaves box.test, the binary
# the profiles symbolize against, beside them.
profile-runtime:
	$(GO) test -run='^$$' -bench='BenchmarkCallCycle' -benchtime=10s -cpu=1 -cpuprofile=callcycle.cpu.pprof -memprofile=callcycle.allocs.pprof ./internal/box
	@echo "profiles written: callcycle.cpu.pprof callcycle.allocs.pprof (binary: box.test)"
	@echo "inspect with: go tool pprof -top box.test callcycle.cpu.pprof"
	@echo "         and: go tool pprof -top -sample_index=alloc_space box.test callcycle.allocs.pprof"

# bench-mc records the before/after checker numbers: the twelve-model
# suite at workers 1 vs 4, written to BENCH_mc.json. Forcing 4 (rather
# than the GOMAXPROCS default) keeps the parallel leg and its
# totals-agreement check in the record even on small CI hosts.
bench-mc:
	$(GO) run ./cmd/pathcheck -bench BENCH_mc.json -workers 4
