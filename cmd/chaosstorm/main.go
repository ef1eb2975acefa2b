// chaosstorm is the fault-tolerance harness: internal/storm's client
// lifecycles run over a deliberately hostile wire, with the Section V
// temporal formulas checked live while the faults land. The stack is
// RelNetwork(FaultNetwork(mem|tcp)): the fault layer drops,
// duplicates, delays, and reorders envelopes and severs links
// mid-storm; the reliable layer retransmits, suppresses duplicates,
// and re-dials, so the boxes above should see at most a blip. A
// pathmon.Tracker polls every signaling path and holds it to the
// bounded-time reading of its formula — recurrence paths must return
// to bothFlowing within the bound, stability paths must not flow past
// it — and records the recovery latency of every healed outage.
//
// The run is a gate, not just a report: it fails (exit 1) on any
// bounded-time formula violation, any path wedged after drain, a
// client give-up rate at or above the budget, clients that never
// drained, or leaked goroutines after shutdown. BENCH_chaos.json
// captures the fault profile, call outcomes, transport recovery
// counters, and the recovery-latency distribution.
//
// With -crash, the durable store rides the storm too: every client is
// bound to the subscriber registry (setup lookups) and the CDR log
// (teardown appends), and at the storm's midpoint — alongside the
// partition — the store takes a simulated power cut, recovers from its
// write-ahead log, and is swapped back in live. The Section V formulas
// keep being checked across the restart, and extra gates reconcile
// CDRs against the channel lifecycle: no acknowledged append may be
// lost, the final log must account for every append accepted after the
// swap, and a final reopen must replay to the same count.
//
// Usage:
//
//	chaosstorm [-paths 24] [-servers 3] [-duration 20s] [-net mem|tcp]
//	           [-drop 0.05] [-dup 0.02] [-delayrate 0] [-reorder 0]
//	           [-partition 150ms] [-seed 1] [-bound 5s] [-poll 25ms]
//	           [-giveup-budget 0.01] [-out BENCH_chaos.json] [-check]
//	           [-crash] [-store-dir DIR]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"ipmedia/internal/box"
	"ipmedia/internal/pathmon"
	"ipmedia/internal/slot"
	"ipmedia/internal/store"
	"ipmedia/internal/storm"
	"ipmedia/internal/telemetry"
	"ipmedia/internal/transport"
)

type result struct {
	Date       string `json:"date"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`

	Net         string  `json:"net"`
	Paths       int     `json:"paths"`
	Servers     int     `json:"servers"`
	Shards      int     `json:"shards"`
	DurationMS  int64   `json:"duration_ms"`
	Drop        float64 `json:"drop_rate"`
	Dup         float64 `json:"dup_rate"`
	DelayRate   float64 `json:"delay_rate"`
	Reorder     float64 `json:"reorder_rate"`
	PartitionMS int64   `json:"partition_ms"`
	Seed        int64   `json:"seed"`
	BoundMS     int64   `json:"bound_ms"`

	Setups      int64   `json:"setups"`
	Completed   int64   `json:"completed_calls"`
	CallGiveups int64   `json:"call_giveups"`
	GiveupRate  float64 `json:"giveup_rate"`
	Drained     int64   `json:"clients_drained"`

	FaultsInjected   int64 `json:"faults_injected"`
	Reconnects       int64 `json:"reconnects"`
	Retransmits      int64 `json:"retransmits"`
	DupDropped       int64 `json:"dup_dropped"`
	TransportGiveups int64 `json:"transport_giveups"`
	BacklogDropped   int64 `json:"backlog_dropped"`

	LTLPolls      int      `json:"ltl_polls"`
	LTLViolations []string `json:"ltl_violations"`
	Wedged        []string `json:"wedged_paths"`

	RecoveryCount int64   `json:"recovery_count"`
	RecoveryP50MS float64 `json:"recovery_p50_ms"`
	RecoveryP95MS float64 `json:"recovery_p95_ms"`
	RecoveryMaxMS float64 `json:"recovery_max_ms"`

	GoroutinesBaseline int  `json:"goroutines_baseline"`
	GoroutinesFinal    int  `json:"goroutines_final"`
	Leaked             bool `json:"goroutines_leaked"`

	// Durable-store fields, populated when -crash (or -store-dir) binds
	// the store into the storm.
	StoreCrashed     bool    `json:"store_crashed,omitempty"`
	StoreLookups     int64   `json:"store_lookups,omitempty"`
	StoreLookupMiss  int64   `json:"store_lookup_miss"`
	CDRIssued        uint64  `json:"cdrs_issued,omitempty"`
	CDRAckedAtCrash  uint64  `json:"cdrs_acked_at_crash,omitempty"`
	CDRRecovered     int     `json:"cdrs_recovered,omitempty"`
	CDRMissedUnbound uint64  `json:"cdrs_missed_unbound"`
	CDRFinal         int     `json:"cdrs_final,omitempty"`
	CDRFinalReopen   int     `json:"cdrs_final_reopen,omitempty"`
	StoreRecoveryMS  float64 `json:"store_recovery_ms,omitempty"`
}

func main() {
	paths := flag.Int("paths", 24, "concurrent call lifecycles (paths)")
	servers := flag.Int("servers", 3, "holding device boxes")
	shards := flag.Int("shards", 0, "run boxes on a cluster of this many runtime shards (0: one goroutine per box)")
	netKind := flag.String("net", "mem", "base transport under the fault layer: mem or tcp")
	duration := flag.Duration("duration", 20*time.Second, "storm window before drain")
	hold := flag.Duration("hold", 300*time.Millisecond, "mean hold time per call")
	giveup := flag.Duration("giveup", 10*time.Second, "client abandons a call not flowing after this long")
	drop := flag.Float64("drop", 0.05, "envelope drop rate")
	dup := flag.Float64("dup", 0.02, "envelope duplication rate")
	delayRate := flag.Float64("delayrate", 0.0, "envelope delay rate")
	reorder := flag.Float64("reorder", 0.0, "envelope reorder rate")
	partition := flag.Duration("partition", 150*time.Millisecond, "mid-storm partition length (0: no sever)")
	seed := flag.Int64("seed", 1, "seed for faults, backoff jitter, and client schedules")
	bound := flag.Duration("bound", 5*time.Second, "bounded-time patience per temporal formula")
	poll := flag.Duration("poll", 25*time.Millisecond, "LTL tracker poll interval")
	giveupBudget := flag.Float64("giveup-budget", 0.01, "max tolerated client give-up rate")
	out := flag.String("out", "", "write the result JSON here (empty: stdout only)")
	check := flag.Bool("check", true, "exit nonzero when a resilience gate fails")
	crash := flag.Bool("crash", false, "bind the durable store and crash/recover it mid-storm")
	storeDir := flag.String("store-dir", "", "durable store directory (empty with -crash: a temp dir)")
	flag.Parse()

	reg := telemetry.Enable()
	baseline := runtime.NumGoroutine()

	// The durable store rides along when asked for: client setups look
	// up the subscriber registry, teardowns cut CDRs.
	useStore := *crash || *storeDir != ""
	var storeReopen func() *store.Store
	var st *store.Store
	var binder *store.Binder
	if useStore {
		sdir := *storeDir
		if sdir == "" {
			var err error
			sdir, err = os.MkdirTemp("", "chaosstorm-store-*")
			if err != nil {
				fmt.Fprintln(os.Stderr, "chaosstorm:", err)
				os.Exit(1)
			}
			defer os.RemoveAll(sdir)
		}
		var err error
		st, err = store.Open(sdir, store.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaosstorm:", err)
			os.Exit(1)
		}
		binder = store.NewBinder(st)
		// Every client gets a registry profile, so a lookup miss during
		// the storm means the store lost data, not that the cast grew.
		for i := 0; i < *paths; i++ {
			if err := st.PutProfile(store.Profile{
				Name: fmt.Sprintf("cli%d", i), Features: []string{"storm"},
			}); err != nil {
				fmt.Fprintln(os.Stderr, "chaosstorm:", err)
				os.Exit(1)
			}
		}
		storeReopen = func() *store.Store {
			s2, err := store.Open(sdir, store.Options{})
			if err != nil {
				fmt.Fprintf(os.Stderr, "chaosstorm: GATE FAILED: store recovery: %v\n", err)
				os.Exit(1)
			}
			return s2
		}
	}

	var base transport.Network
	switch *netKind {
	case "mem":
		base = transport.NewMemNetwork()
	case "tcp":
		base = transport.TCPNetwork{}
	default:
		fmt.Fprintf(os.Stderr, "chaosstorm: unknown -net %q\n", *netKind)
		os.Exit(2)
	}
	fn := transport.NewFaultNetwork(base, transport.FaultProfile{
		Seed:         *seed,
		DropRate:     *drop,
		DupRate:      *dup,
		DelayRate:    *delayRate,
		ReorderRate:  *reorder,
		PartitionFor: *partition,
	})
	network := transport.NewRelNetwork(fn, transport.RelConfig{
		Seed:        *seed,
		GiveUpAfter: *giveup,
	})

	// With -shards the whole population shares a cluster's shard loops
	// and per-shard timer wheels; the chaos gates (formula violations,
	// drain, goroutine leaks) then certify the sharded runtime, not just
	// the one-goroutine-per-box layout.
	var cluster *box.Cluster
	newRunner := func(b *box.Box) *box.Runner { return box.NewRunner(b, network) }
	if *shards > 0 {
		cluster = box.NewCluster(network, *shards)
		newRunner = cluster.Runner
	}

	mon := pathmon.New()
	stats := &storm.Stats{}

	// Holding devices first, so every client dial lands on a listener.
	devs, devAddrs, err := storm.ListenAll(newRunner, *netKind == "tcp", "dev", *servers, func(name string, i int) *box.Box {
		b := box.New(name, storm.DevProfile(name, 20000+i))
		b.Hook = storm.DeviceHook(mon, name, nil)
		return b
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaosstorm:", err)
		os.Exit(1)
	}
	for _, r := range devs {
		mon.AddBox(r)
	}

	fmt.Fprintf(os.Stderr, "chaosstorm: %d paths vs %d devices over %s: drop=%.0f%% dup=%.0f%% delay=%.0f%% reorder=%.0f%% partition=%v seed=%d\n",
		*paths, *servers, *netKind, *drop*100, *dup*100, *delayRate*100, *reorder*100, *partition, *seed)

	rng := rand.New(rand.NewSource(*seed))
	clients := make([]*box.Runner, *paths)
	for i := range clients {
		name := fmt.Sprintf("cli%d", i)
		b := box.New(name, storm.DevProfile(name, 30000+i))
		r := newRunner(b)
		if binder != nil {
			// Bind before the program starts dialing, so every channel's
			// setup and teardown is accounted.
			r.SetLifecycle(binder)
		}
		r.SetProgram(storm.ClientProgram(stats, devAddrs[i%len(devAddrs)], *hold, *duration/4, *giveup, rng.Int63(), nil))
		mon.AddBox(r)
		clients[i] = r
	}

	// Live formula checking for the length of the storm and the drain.
	tk := pathmon.NewTracker(mon, *bound)
	stopPolling := storm.Poll(tk, *poll, func(err error) {
		fmt.Fprintln(os.Stderr, "chaosstorm: tracker:", err)
	})

	// The storm window, with one partition dropped in the middle — and,
	// in crash mode, the store's power cut at the same moment: faults
	// above and below the boxes at once.
	half := *duration / 2
	time.Sleep(half)
	if *partition > 0 {
		fmt.Fprintf(os.Stderr, "chaosstorm: mid-storm sever: every link cut, dials refused for %v\n", *partition)
		fn.Sever()
	}
	var ackedAtCrash, issuedAtCrash uint64
	var cdrRecovered int
	var storeRecoveryMS float64
	if *crash {
		// Capture what the store acknowledged, cut its power, recover
		// from the WAL, and swap the recovered store in live. Teardowns
		// landing in the unbound window are counted by the binder.
		ackedAtCrash = st.DurableCDRs()
		issuedAtCrash = binder.Issued()
		binder.Swap(nil)
		st.Crash()
		start := time.Now()
		st2 := storeReopen()
		storeRecoveryMS = float64(time.Since(start)) / float64(time.Millisecond)
		cdrRecovered = st2.CDRCount()
		binder.Swap(st2)
		st = st2
		fmt.Fprintf(os.Stderr, "chaosstorm: store crash at midpoint: %d CDRs acked, %d recovered in %.1f ms, store re-bound\n",
			ackedAtCrash, cdrRecovered, storeRecoveryMS)
	}
	time.Sleep(*duration - half)

	// Drain: clients finish their current lifecycle and park; every
	// path must quiesce with its formula satisfied.
	stats.Drain(int64(*paths), *giveup+*bound+5*time.Second)
	stopPolling()
	verdict := tk.FinalReport()

	// Shut everything down and check nothing leaked: no pump, redial,
	// shard loop, or delayed-send goroutine may outlive the storm.
	for _, r := range clients {
		r.Stop()
	}
	for _, r := range devs {
		r.Stop()
	}
	if cluster != nil {
		cluster.Stop() // shard loops and per-shard wheels
	}
	fn.Stop()

	// Stop flushed every live channel through the binder; settle the
	// log and reconcile CDRs against the lifecycle, across one more
	// restart.
	var cdrFinal, cdrReopen int
	if useStore {
		if err := st.Sync(); err != nil {
			fmt.Fprintln(os.Stderr, "chaosstorm: store sync:", err)
		}
		cdrFinal = st.CDRCount()
		st.Close()
		st = storeReopen()
		cdrReopen = st.CDRCount()
		st.Close()
	}
	finalG, leaked := storm.SettledGoroutines(baseline)
	if leaked {
		buf := make([]byte, 1<<20)
		fmt.Fprintf(os.Stderr, "chaosstorm: leaked goroutines:\n%s\n", buf[:runtime.Stack(buf, true)])
	}

	snap := reg.Snapshot()
	counter := func(name string) int64 { return int64(snap.Counters[name]) }
	recoveries := tk.Stats().Recoveries
	sort.Slice(recoveries, func(i, j int) bool { return recoveries[i] < recoveries[j] })
	pctMS := func(q float64) float64 {
		if len(recoveries) == 0 {
			return 0
		}
		idx := int(q * float64(len(recoveries)-1))
		return float64(recoveries[idx]) / float64(time.Millisecond)
	}

	attempts := stats.Setups.Load() + stats.Giveups.Load()
	giveupRate := 0.0
	if attempts > 0 {
		giveupRate = float64(stats.Giveups.Load()) / float64(attempts)
	}
	res := result{
		Date:        time.Now().Format("2006-01-02"),
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Net:         *netKind,
		Paths:       *paths,
		Servers:     *servers,
		Shards:      *shards,
		DurationMS:  duration.Milliseconds(),
		Drop:        *drop,
		Dup:         *dup,
		DelayRate:   *delayRate,
		Reorder:     *reorder,
		PartitionMS: partition.Milliseconds(),
		Seed:        *seed,
		BoundMS:     bound.Milliseconds(),

		Setups:      stats.Setups.Load(),
		Completed:   stats.Completed.Load(),
		CallGiveups: stats.Giveups.Load(),
		GiveupRate:  giveupRate,
		Drained:     stats.Idle.Load(),

		FaultsInjected:   counter(transport.MetricFaultsInjected),
		Reconnects:       counter(transport.MetricReconnects),
		Retransmits:      counter(slot.MetricRetransmits),
		DupDropped:       counter(slot.MetricDupDropped),
		TransportGiveups: counter(transport.MetricGiveups),
		BacklogDropped:   counter(transport.MetricBacklogDropped),

		LTLPolls:      verdict.Polls,
		LTLViolations: verdict.Violations,
		Wedged:        verdict.Wedged,

		RecoveryCount: int64(len(recoveries)),
		RecoveryP50MS: pctMS(0.50),
		RecoveryP95MS: pctMS(0.95),
		RecoveryMaxMS: pctMS(1.0),

		GoroutinesBaseline: baseline,
		GoroutinesFinal:    finalG,
		Leaked:             leaked,
	}
	if useStore {
		res.StoreCrashed = *crash
		res.StoreLookups = counter(store.MetricLookups)
		res.StoreLookupMiss = counter(store.MetricLookupMiss)
		res.CDRIssued = binder.Issued()
		res.CDRAckedAtCrash = ackedAtCrash
		res.CDRRecovered = cdrRecovered
		res.CDRMissedUnbound = binder.Missed()
		res.CDRFinal = cdrFinal
		res.CDRFinalReopen = cdrReopen
		res.StoreRecoveryMS = storeRecoveryMS
	}

	blob, err := storm.WriteReport(res, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaosstorm:", err)
		os.Exit(1)
	}

	if !*check {
		return
	}
	fail := func(format string, args ...any) { storm.FailGate("chaosstorm", format, args...) }
	// A verdict field serialized as null means the harness never produced
	// a verdict at all — downstream tooling must not read that as "zero
	// violations". The gate treats null as a failure in its own right.
	if bytes.Contains(blob, []byte(`"ltl_violations": null`)) ||
		bytes.Contains(blob, []byte(`"wedged_paths": null`)) {
		fail("result serialized null for a formula-verdict field")
	}
	if n := len(verdict.Violations); n > 0 {
		fail("%d bounded-time formula violations, first: %s", n, verdict.Violations[0])
	}
	if n := len(verdict.Wedged); n > 0 {
		fail("%d wedged paths after drain, first: %s", n, verdict.Wedged[0])
	}
	if res.Drained < int64(*paths) {
		fail("only %d/%d clients drained", res.Drained, *paths)
	}
	if giveupRate >= *giveupBudget {
		fail("give-up rate %.2f%% >= budget %.2f%%", giveupRate*100, *giveupBudget*100)
	}
	if leaked {
		fail("goroutines leaked: baseline %d, final %d", baseline, finalG)
	}
	if useStore {
		// CDR-vs-lifecycle reconciliation across the restart(s).
		if *crash && uint64(cdrRecovered) < ackedAtCrash {
			fail("store crash lost acknowledged CDRs: %d acked, %d recovered", ackedAtCrash, cdrRecovered)
		}
		issuedAfter := res.CDRIssued - issuedAtCrash
		expect := uint64(cdrRecovered) + issuedAfter
		if !*crash {
			expect = res.CDRIssued
		}
		if uint64(cdrFinal) != expect {
			fail("CDR log does not reconcile with lifecycle: %d in log, %d expected (%d recovered + %d issued after swap)",
				cdrFinal, expect, cdrRecovered, issuedAfter)
		}
		if cdrReopen != cdrFinal {
			fail("final reopen replayed %d CDRs, log held %d", cdrReopen, cdrFinal)
		}
		if res.StoreLookupMiss > 0 {
			fail("%d registry lookups missed despite preloaded profiles", res.StoreLookupMiss)
		}
	}
	fmt.Fprintf(os.Stderr, "chaosstorm: all gates passed: %d lifecycles, %d reconnects, %d retransmits, %d recoveries, 0 violations\n",
		res.Completed, res.Reconnects, res.Retransmits, res.RecoveryCount)
}
