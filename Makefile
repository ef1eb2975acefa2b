GO ?= go

.PHONY: ci vet build test fuzz bench agree bench-smoke bench-check bench-pair bench-mc alloc-gate profile-runtime cluster-smoke bench-cluster

# ci is the gate: static checks, build, the full test suite under the
# race detector, the parallel-vs-sequential checker agreement test, a
# short fuzz smoke so the sig, media, ts, slot and store fuzz targets
# are actually executed, a one-iteration benchmark smoke so the perf
# harness keeps compiling, the benchmark's own checks so a change that
# stops bench/ compiling or running against the tree fails here, the
# zero-alloc gates (non-race: the race detector defeats the
# accounting), and the multi-process cluster storm. The race run holds
# the load and resilience gates as plain tests: 500 call lifecycles on
# a 4-shard ring cluster and the same population stopped under load
# (internal/storm), the chaos storm — 24 paths over a reliable layer
# on a wire that drops, duplicates, delays and reorders envelopes and
# is severed mid-storm while the durable store takes a power cut, with
# the Section V formulas checked live, standalone and on 2 shards
# (TestChaosUnderFaults) — the store's crash-recovery and model tests,
# and 8 paced MPEG-TS flows held to zero integrity errors.
ci: vet build test agree fuzz bench-smoke bench-check alloc-gate cluster-smoke

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
# (interned strings, pooled Meta frames), a descriptor seen before
# decoding to its one shared record, a frame's encode and decode
# through a reused FrameReader, an application server's noMedia
# descriptor (one shared record per server), and the end-to-end
# decode->inbox->dispatch->release path, the steady-state event
# dispatch path (box) both standalone and through a cluster shard, the
# media fast path — packet marshal, transmit staging, and wire delivery
# — the MPEG-TS container layer (PES mux, PSI generation, demux
# validation) and the framed fast path end to end, the reliable
# layer's steady-state send (stamp, retain, ack bookkeeping), a logical
# channel's envelopes from mux Send to the far RecvBatch over the
# reliable layer, and the store's disabled path and registry lookup
# allocate nothing; a store's CDR append costs at most one allocation
# (the store keeps the record itself, not a copy of its encoding);
# filling the intern table costs O(n) bytes, not a copy of the table
# per string, and so does filling the descriptor table; a ring-network dial, accept and close stay within their
# budget of one allocation of at most 128 B (the pipe's identity: its
# rings are a store an earlier channel released), a ring's send and the
# drain that empties it allocate nothing (the slots the send leases go
# back to the pool for the next burst), a queue — an in-memory pipe's
# or a mux channel's — drained empty holds no buffer unless a burst
# grew it, and its send and the drain that empties it allocate nothing
# either (the initial-size buffer the send leases goes back to its
# pool), an in-memory pipe is one allocation, and a mux channel's dial,
# accept and close at both ends stay within 8; a whole call
# through a relay already holding 600 others — dial, splice, flow,
# teardown — stays within its budget of 10 allocations and 1 KB; and
# what standing state holds stays within its footprint: an idle
# standalone runner 3 KB fresh and its measured size plus 10 % after
# draining a channel (its loop lends its whole turn — scratch, inbox
# slices, drain buffer — back when it parks, and a parked one holds
# none of it), a pumped in-memory channel with both pumps posted and a
# mux channel drained on the loop each its measured size plus 10 %, and a parked call — a client box
# and runner holding a call through a relay to a device on one ring
# shard, per-event scratch borrowed from the shard — its measured size
# plus 10 %; and 500 mux channels between two runners start no
# goroutine. The last two lines are race-detector runs of the delivery
# and recycling rules: the runner's pumps recycle their batch buffer,
# and may hand it on only after the loop has acked the batch it
# carried; a backlog crosses one pump, or the loop's drain of a queue
# port, whole and in order, and what reaches the port of a torn-down
# channel never reaches the channel that takes its name next; events
# pushed into a standalone runner whose loop parks and wakes between
# waves, with a Stop racing the last wave, are each handled once and in
# order; a queue's readiness edge loses no wake-up and no envelope to
# producers racing each other and a close; a ring store goes to the next channel only
# once both ends of its last one have closed, so no envelope reaches a
# later channel and a stale port touches nothing; and a ring's slot
# buffer goes back to the pool only once the ring is empty and its
# producer is not writing, so envelopes leased one at a time keep their
# order and their channel.
alloc-gate:
	$(GO) test -run='TestDecodeZeroAlloc|TestDecodeDescriptorZeroAlloc|TestEncodeZeroAlloc|TestFrameRoundTripZeroAlloc|TestInternGrowthLinear|TestDescriptorTableGrowthLinear' ./internal/sig
	$(GO) test -run='TestServerDescribeZeroAlloc' ./internal/core
	$(GO) test -run='TestRunnerEventZeroAlloc|TestClusterEventZeroAlloc|TestRunnerEventEndToEndAllocs|TestCallCycleAllocBudget|TestStandaloneRunnerFootprint|TestPumpedChannelFootprint|TestQueueChannelFootprint|TestParkedCallFootprint|TestParkedStandaloneHoldsNoTurnState|TestQueueChannelStartsNoGoroutine' ./internal/box
	$(GO) test -run='TestMediaZeroAlloc|TestTSFramingZeroAlloc' ./internal/media
	$(GO) test -run='TestTSZeroAlloc' ./internal/ts
	$(GO) test -run='TestRelSendSteadyStateZeroAlloc|TestRingDialAllocBudget|TestRingSendDrainZeroAlloc|TestQueueIdleHoldsNoBuffer|TestQueueSendDrainZeroAlloc|TestMuxCarrierZeroAlloc|TestMuxChannelAllocBudget|TestPipeAllocBudget' ./internal/transport
	$(GO) test -run='TestStoreZeroAlloc' ./internal/store
	$(GO) test -race -run='TestPumpStateReusedOnlyAfterAck|TestPumpBurstInOrder|TestDrainBurstInOrder|TestDrainStragglersMissTheNextChannel|TestStandaloneParkWakeRace' ./internal/box
	$(GO) test -race -run='TestQueueReadyEdgeRace|TestRingStoreIsolation|TestRingStalePort|TestRingCloseVsSend|TestRingLeaseRace' ./internal/transport

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
