package storm

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"ipmedia/internal/box"
	"ipmedia/internal/pathmon"
	"ipmedia/internal/slot"
	"ipmedia/internal/store"
	"ipmedia/internal/telemetry"
	"ipmedia/internal/transport"
)

// TestChaosUnderFaults is the resilience gate: 24 client lifecycles
// against 3 holding devices over RelNetwork(FaultNetwork(mem)), every
// link severed at the midpoint with dials refused for 150 ms, while a
// polled pathmon.Tracker holds every signaling path to the bounded-time
// reading of its Section V formula. The durable store rides along —
// setups look up the registry, teardowns cut CDRs — and takes a power
// cut at the same midpoint, is recovered from its WAL and swapped back
// in live. The standalone case runs one loop per box; the sharded case
// multiplexes the population onto a 2-shard cluster and adds delay and
// reordering to the wire.
//
// A case fails on a formula violation, a wedged path after drain, a
// client that never drained, a give-up rate of 1 % or more, a leaked
// goroutine, an acknowledged CDR lost to the crash, a CDR log that does
// not reconcile with the lifecycle count, a reopen that replays another
// count, a registry lookup miss — and if the faults never landed: no
// fault injected, no retransmit, no reconnect or no recovered outage.
func TestChaosUnderFaults(t *testing.T) {
	const partition = 150 * time.Millisecond
	cases := []struct {
		name   string
		shards int // 0: a standalone runner per box
		window time.Duration
		prof   transport.FaultProfile
	}{
		{"standalone", 0, 20 * time.Second, transport.FaultProfile{
			Seed: 1, DropRate: 0.05, DupRate: 0.02, PartitionFor: partition}},
		{"shards=2", 2, 10 * time.Second, transport.FaultProfile{
			Seed: 1, DropRate: 0.05, DupRate: 0.02, DelayRate: 0.05, ReorderRate: 0.02, PartitionFor: partition}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const (
				paths, devices = 24, 3
				hold           = 300 * time.Millisecond
				giveup         = 10 * time.Second
				bound          = 5 * time.Second
				giveupBudget   = 0.01
			)
			reg := telemetry.NewRegistry()
			telemetry.SetDefault(reg) // before the stack resolves its instruments
			defer telemetry.SetDefault(nil)
			baseline := runtime.NumGoroutine()

			dir := t.TempDir()
			openStore := func() *store.Store {
				st, err := store.Open(dir, store.Options{})
				if err != nil {
					t.Fatalf("store recovery: %v", err)
				}
				return st
			}
			st := openStore()
			// Every client has a profile, so a lookup miss means the store
			// lost data.
			for i := 0; i < paths; i++ {
				if err := st.PutProfile(store.Profile{Name: fmt.Sprintf("cli%d", i), Features: []string{"storm"}}); err != nil {
					t.Fatal(err)
				}
			}
			binder := store.NewBinder(st)

			fn := transport.NewFaultNetwork(transport.NewMemNetwork(), tc.prof)
			network := transport.NewRelNetwork(fn, transport.RelConfig{Seed: tc.prof.Seed, GiveUpAfter: giveup})
			newRunner := func(b *box.Box) *box.Runner { return box.NewRunner(b, network) }
			var cluster *box.Cluster
			if tc.shards > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
				cluster = box.NewCluster(network, tc.shards)
				newRunner = cluster.Runner
			}

			mon := pathmon.New()
			stats := &Stats{}
			devs, devAddrs, err := ListenAll(newRunner, "dev", devices, func(name string, i int) *box.Box {
				b := box.New(name, DevProfile(name, 20000+i))
				b.Hook = DeviceHook(mon, name, nil)
				return b
			})
			if err != nil {
				t.Fatal(err)
			}
			var runners []*box.Runner
			rng := rand.New(rand.NewSource(tc.prof.Seed))
			for i := 0; i < paths; i++ {
				name := fmt.Sprintf("cli%d", i)
				r := newRunner(box.New(name, DevProfile(name, 30000+i)))
				r.SetLifecycle(binder) // before the first dial, so every channel is accounted
				r.SetProgram(ClientProgram(stats, devAddrs[i%devices], hold, tc.window/4, giveup, rng.Int63(), nil))
				runners = append(runners, r)
			}
			runners = append(runners, devs...)
			for _, r := range runners {
				mon.AddBox(r)
			}
			tk := pathmon.NewTracker(mon, bound)
			stopPolling := Poll(tk, 25*time.Millisecond, func(err error) { t.Errorf("tracker: %v", err) })

			// Faults above and below the boxes at once: the wire is severed
			// and the store loses power at the midpoint.
			time.Sleep(tc.window / 2)
			fn.Sever()
			acked, issuedAtCrash := st.DurableCDRs(), binder.Issued()
			binder.Swap(nil)
			st.Crash()
			st = openStore()
			recovered := st.CDRCount()
			binder.Swap(st)
			time.Sleep(tc.window - tc.window/2)

			stats.Drain(paths, giveup+bound+5*time.Second)
			stopPolling()
			verdict := tk.FinalReport()
			for _, r := range runners {
				r.Stop() // flushes every live channel's CDR through the binder
			}
			if cluster != nil {
				cluster.Stop()
			}
			if err := st.Sync(); err != nil {
				t.Errorf("store sync: %v", err)
			}
			final := st.CDRCount()
			if err := st.Close(); err != nil {
				t.Errorf("store close: %v", err)
			}
			st = openStore()
			reopened := st.CDRCount()
			st.Close()
			settled(t, baseline)

			counter := func(name string) uint64 { return reg.Counter(name).Value() }
			recoveries := tk.Stats().Recoveries
			slices.Sort(recoveries)
			pct := func(q float64) time.Duration {
				if len(recoveries) == 0 {
					return 0
				}
				return recoveries[int(q*float64(len(recoveries)-1))].Round(time.Millisecond)
			}
			setups, giveups := stats.Setups.Load(), stats.Giveups.Load()
			t.Logf("%d lifecycles, %d set-ups, %d give-ups; %d faults, %d retransmits, %d duplicates dropped, %d reconnects, %d transport give-ups",
				stats.Completed.Load(), setups, giveups, counter(transport.MetricFaultsInjected),
				counter(slot.MetricRetransmits), counter(slot.MetricDupDropped),
				counter(transport.MetricReconnects), counter(transport.MetricGiveups))
			t.Logf("%d polls; %d recoveries, p50 %v, p95 %v, max %v", verdict.Polls, len(recoveries), pct(0.50), pct(0.95), pct(1))
			t.Logf("CDRs: %d acked at the crash, %d recovered, %d issued after it, %d final, %d on reopen; %d lookups",
				acked, recovered, binder.Issued()-issuedAtCrash, final, reopened, counter(store.MetricLookups))

			if verdict.Violations == nil || verdict.Wedged == nil {
				t.Errorf("formula verdict left a list nil: %+v", verdict)
			}
			if n := len(verdict.Violations); n > 0 {
				t.Errorf("%d bounded-time formula violations, first: %s", n, verdict.Violations[0])
			}
			if n := len(verdict.Wedged); n > 0 {
				t.Errorf("%d wedged paths after drain, first: %s", n, verdict.Wedged[0])
			}
			if idle := stats.Idle.Load(); idle < paths {
				t.Errorf("only %d/%d clients drained", idle, paths)
			}
			if rate := float64(giveups) / float64(max(setups+giveups, 1)); rate >= giveupBudget {
				t.Errorf("give-up rate %.2f%% >= budget %.2f%%", rate*100, giveupBudget*100)
			}
			for _, name := range []string{transport.MetricFaultsInjected, slot.MetricRetransmits, transport.MetricReconnects} {
				if counter(name) == 0 {
					t.Errorf("%s = 0: the faults never landed", name)
				}
			}
			if len(recoveries) == 0 {
				t.Error("no recovered outage: the faults never landed")
			}
			if uint64(recovered) < acked {
				t.Errorf("store crash lost acknowledged CDRs: %d acked, %d recovered", acked, recovered)
			}
			if want := uint64(recovered) + binder.Issued() - issuedAtCrash; uint64(final) != want {
				t.Errorf("CDR log does not reconcile with the lifecycle: %d in the log, want %d recovered + %d issued after the crash",
					final, recovered, binder.Issued()-issuedAtCrash)
			}
			if reopened != final {
				t.Errorf("final reopen replayed %d CDRs, the log held %d", reopened, final)
			}
			if miss := counter(store.MetricLookupMiss); miss > 0 {
				t.Errorf("%d registry lookups missed despite preloaded profiles", miss)
			}
		})
	}
}
