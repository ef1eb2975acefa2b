GO ?= go

.PHONY: ci vet build test fuzz bench agree bench-smoke bench-check bench-mc bench-media storm-smoke media-smoke ts-smoke chaos-smoke bench-chaos alloc-gate store-smoke bench-store profile-runtime cluster-smoke bench-cluster

# ci is the gate: static checks, build, the full test suite under the
# race detector, the parallel-vs-sequential checker agreement test,
# a short fuzz smoke so the sig and media fuzz targets are actually
# executed, a one-iteration benchmark smoke so the perf harness keeps
# compiling, the zero-alloc gates (non-race: the race detector defeats
# the accounting), a short call-storm so the live runtime survives
# load, a short in-memory media-storm so the media pipeline does, a
# seeded chaos-storm so the fault-recovery story is re-proved on every
# run, and the benchmark's own checks so a change that stops bench/
# compiling or running against the tree fails here.
ci: vet build test agree fuzz bench-smoke bench-check alloc-gate storm-smoke media-smoke ts-smoke chaos-smoke store-smoke cluster-smoke

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
	$(GO) test -run='^$$' -fuzz=FuzzPacket -fuzztime=10s ./internal/media
	$(GO) test -run='^$$' -fuzz=FuzzTSPacket -fuzztime=10s ./internal/ts
	$(GO) test -run='^$$' -fuzz=FuzzPES -fuzztime=10s ./internal/ts
	$(GO) test -run='^$$' -fuzz=FuzzSlotRetransmit -fuzztime=10s ./internal/slot
	$(GO) test -run='^$$' -fuzz=FuzzWALReplay -fuzztime=10s ./internal/store

bench-smoke:
	$(GO) test -run='^$$' -bench='Explore|Marshal' -benchtime=1x ./internal/mcmodel ./internal/sig
	$(GO) test -run='^$$' -bench='PacketMarshal|AgentDeliver|AgentEmitBatch' -benchtime=1x ./internal/media

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench-check keeps bench/ — the repo's one measuring instrument, a
# module of its own that ./... does not reach — building and passing
# against the tree: its vet and tests, then its self-test of every
# workload.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh -smoke

# alloc-gate asserts the zero-alloc claims: the signaling decode path
# (interned strings, pooled Meta frames) and the end-to-end
# decode->inbox->dispatch->release path, the steady-state event
# dispatch path (box) both standalone and through a cluster shard, the
# media fast path — packet marshal, transmit staging, and wire delivery
# — the MPEG-TS container layer (PES mux, PSI generation, demux
# validation) and the framed fast path end to end, the reliable
# layer's steady-state send (stamp, retain, ack bookkeeping), a logical
# channel's envelopes from mux Send to the far RecvBatch over the
# reliable layer, and the store's disabled path and cached registry
# lookup allocate nothing; a ring-network dial, accept and close stay
# within their budget of one allocation of at most 2 KB, an in-memory
# pipe is one allocation, and a mux channel's dial, accept and close
# at both ends stay within 8; and a whole call through a relay already
# holding 600 others — dial, splice, flow, teardown — stays within its
# budget of 11 allocations. The last line is a race-detector run: the
# runner's pumps recycle their batch buffers, and may hand one on only
# after the loop has acked the batch it carried.
alloc-gate:
	$(GO) test -run='TestDecodeZeroAlloc|TestEncodeZeroAlloc' ./internal/sig
	$(GO) test -run='TestRunnerEventZeroAlloc|TestClusterEventZeroAlloc|TestRunnerEventEndToEndAllocs|TestCallCycleAllocBudget' ./internal/box
	$(GO) test -run='TestMediaZeroAlloc|TestTSFramingZeroAlloc' ./internal/media
	$(GO) test -run='TestTSZeroAlloc' ./internal/ts
	$(GO) test -run='TestRelSendSteadyStateZeroAlloc|TestRingDialAllocBudget|TestMuxCarrierZeroAlloc|TestMuxChannelAllocBudget|TestPipeAllocBudget' ./internal/transport
	$(GO) test -run='TestStoreZeroAlloc' ./internal/store
	$(GO) test -race -run='TestPumpStateReusedOnlyAfterAck' ./internal/box

# storm-smoke drives 500 concurrent call lifecycles for 5 seconds over
# the in-memory network: a shutdown-under-load and liveness check, not
# a measurement. The second leg reruns it on a 4-shard cluster over
# ring-port channels at GOMAXPROCS=4 with the gate armed — no give-up,
# and no envelope past a ring's capacity (transport.ring_spills = 0) —
# so every CI run re-proves the sharded runtime under load and the ring
# size against real traffic.
storm-smoke:
	$(GO) run ./cmd/callstorm -paths 500 -servers 4 -mode link -net mem -hold 250ms -duration 5s
	GOMAXPROCS=4 $(GO) run ./cmd/callstorm -paths 500 -servers 4 -mode link -net ring -shards 4 -hold 250ms -duration 5s -gate -alloc-gate 0.71

# media-smoke blasts the in-memory media plane for ~2 seconds: a
# pipeline liveness check, not a measurement.
media-smoke:
	$(GO) run ./cmd/mediastorm -plane mem -agents 16 -duration 2s

# ts-smoke is the MPEG-TS integrity gate: 8 paced TS flows (well under
# capacity, so the wire is clean) for 2 seconds, exiting nonzero on any
# CRC error, continuity discontinuity, or framing drop. Saturated runs
# legitimately lose datagrams; this paced run must not.
ts-smoke:
	$(GO) run ./cmd/tsstorm -agents 8 -rate 50 -duration 2s -gate

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

# bench-media records the media-plane numbers: the in-memory carrier,
# the persistent-socket batched pipeline, and the framed legs — the
# same pipeline carrying 1316-byte opaque payloads vs. full MPEG-TS
# bursts — at equal agent count, written to BENCH_media.json.
# ts_pps_ratio_vs_opaque is the container's cost (acceptance: ≥0.85,
# i.e. at most a 15% pps penalty).
bench-media:
	$(GO) run ./cmd/mediastorm -agents 8 -duration 3s -out BENCH_media.json

# profile-runtime captures CPU and allocation profiles of two callstorm
# legs for `go tool pprof` spelunking. The first holds 1200 paths on
# 1 s holds (mostly idle, so it shows where the event loop and the
# timers spend their time); the second is
# one saturated shard at GOMAXPROCS=1 redialing on 3 ms holds, so the
# channel churn path — dial, ring pipe, teardown — is what gets
# profiled.
profile-runtime:
	$(GO) run ./cmd/callstorm -paths 1200 -servers 8 -mode link -net ring -hold 1s -duration 10s -cpuprofile callstorm.cpu.pprof -memprofile callstorm.allocs.pprof
	GOMAXPROCS=1 $(GO) run ./cmd/callstorm -paths 256 -servers 4 -mode link -net ring -shards 1 -hold 3ms -duration 10s -cpuprofile callstorm.sat.cpu.pprof -memprofile callstorm.sat.allocs.pprof
	@echo "profiles written: callstorm.cpu.pprof callstorm.allocs.pprof callstorm.sat.cpu.pprof callstorm.sat.allocs.pprof"
	@echo "inspect with: go tool pprof -top -sample_index=alloc_space callstorm.sat.allocs.pprof"

# bench-mc records the before/after checker numbers: the twelve-model
# suite at workers 1 vs 4, written to BENCH_mc.json. Forcing 4 (rather
# than the GOMAXPROCS default) keeps the parallel leg and its
# totals-agreement check in the record even on small CI hosts.
bench-mc:
	$(GO) run ./cmd/pathcheck -bench BENCH_mc.json -workers 4
