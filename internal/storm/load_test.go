package storm

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipmedia/internal/box"
	"ipmedia/internal/core"
	"ipmedia/internal/sig"
	"ipmedia/internal/telemetry"
	"ipmedia/internal/transport"
)

// The load tests' population: clients running ClientProgram through
// relays that splice every call on to a device with a flowLink, so each
// lifecycle crosses the full open/hold/flowLink/close goal set. A call
// takes milliseconds to flow; one still not flowing after loadGiveup is
// given up, and the tests run longer than that, so a stuck call fails
// them.
const (
	loadClients = 500
	loadServers = 4
	loadHold    = 250 * time.Millisecond
	loadGiveup  = 2 * time.Second
)

// relayHook splices every incoming call onward to a device box with a
// flowLink, and propagates teardowns to the spliced leg. It runs on
// the relay's loop goroutine.
//
// Spliced-leg names are pooled: accepted channel names are minted
// fresh per call, so deriving the out-leg name from the in name would
// allocate a new string per call, forever. Instead the hook keeps a
// free list of out names ("o-K"); a storm's steady state cycles a
// bounded set of strings and allocates none.
func relayHook(devAddrs []string, seed int) func(*box.Ctx, *box.Event) {
	next := seed
	outOf := map[string]string{} // live in-channel -> its spliced out name
	var free []string            // out names returned by torn-down calls
	minted := 0
	return func(ctx *box.Ctx, ev *box.Event) {
		if ev.Kind != box.EvEnvelope || !ev.Env.IsMeta() {
			return
		}
		in := ev.Channel
		if strings.HasPrefix(in, "o-") {
			return // events on spliced legs are the flowLink's business
		}
		switch ev.Env.Meta.Kind {
		case sig.MetaSetup:
			var out string
			if n := len(free); n > 0 {
				out, free = free[n-1], free[:n-1]
			} else {
				out = "o-" + strconv.Itoa(minted)
				minted++
			}
			outOf[in] = out
			ctx.Dial(out, devAddrs[next%len(devAddrs)])
			next++
			ctx.SetGoal(core.NewFlowLink(box.TunnelSlot(in, 0), box.TunnelSlot(out, 0)))
		case sig.MetaTeardown:
			if out, ok := outOf[in]; ok {
				delete(outOf, in)
				free = append(free, out)
				ctx.Teardown(out)
			}
		}
	}
}

// startLoad stands the population up on runners from newRunner —
// devices, then relays, then clients — and waits until every client
// has had a call flow. It returns every runner it started.
func startLoad(t *testing.T, newRunner func(*box.Box) *box.Runner, stats *Stats) []*box.Runner {
	t.Helper()
	devs, devAddrs, err := ListenAll(newRunner, "dev", loadServers, func(name string, i int) *box.Box {
		return box.New(name, DevProfile(name, 20000+i))
	})
	if err != nil {
		t.Fatal(err)
	}
	relays, relayAddrs, err := ListenAll(newRunner, "relay", loadServers, func(name string, i int) *box.Box {
		b := box.New(name, core.ServerProfile{Name: name})
		b.Hook = relayHook(devAddrs, i)
		return b
	})
	if err != nil {
		t.Fatal(err)
	}
	runners := append(devs, relays...)
	var up atomic.Int64 // clients whose first call has flowed
	for i := 0; i < loadClients; i++ {
		name := fmt.Sprintf("cli%d", i)
		r := newRunner(box.New(name, DevProfile(name, 30000+i)))
		flowed := false // read and written on r's loop only
		r.SetProgram(ClientProgram(stats, relayAddrs[i%loadServers], loadHold, loadHold, loadGiveup, int64(i+1),
			func(time.Duration) {
				if !flowed {
					flowed = true
					up.Add(1)
				}
			}))
		runners = append(runners, r)
	}
	waitFor(t, "every client's first call flowing", func() bool { return up.Load() == loadClients })
	return runners
}

// settled fails t if goroutines started since baseline outlive the
// population's shutdown.
func settled(t *testing.T, baseline int) {
	t.Helper()
	if final, leaked := SettledGoroutines(baseline); leaked {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutines leaked: baseline %d, final %d\n%s", baseline, final, buf[:runtime.Stack(buf, true)])
	}
}

// TestRingClusterUnderLoad drives the population on a 4-shard cluster
// over ring-port channels at GOMAXPROCS=4 and holds it to the gates
// the sharded runtime keeps under load: no call given up, no envelope
// past a ring's capacity (transport.ring_spills = 0, which proves the
// ring size against real traffic), and at most 0.71 allocations per
// loop event in steady state.
func TestRingClusterUnderLoad(t *testing.T) {
	const (
		window         = 3 * time.Second
		allocsPerEvent = 0.71
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg) // before the stack resolves its instruments
	defer telemetry.SetDefault(nil)
	baseline := runtime.NumGoroutine()

	cluster := box.NewCluster(transport.NewRingMemNetwork(), 4)
	stats := &Stats{}
	startLoad(t, cluster.Runner, stats)

	events := reg.Counter(box.MetricLoopIterations)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	events0, completed0 := events.Value(), stats.Completed.Load()
	time.Sleep(window)
	runtime.ReadMemStats(&ms1)
	n, completed := events.Value()-events0, stats.Completed.Load()-completed0
	cluster.Stop()

	if n == 0 || completed == 0 {
		t.Fatalf("%d loop events and %d completed calls in %v", n, completed, window)
	}
	perEvent := float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	t.Logf("%d calls completed, %d loop events, %.3f allocs/event in %v", completed, n, perEvent, window)
	if g := stats.Giveups.Load(); g != 0 {
		t.Errorf("%d calls given up", g)
	}
	if spills := reg.Counter(transport.MetricRingSpills).Value(); spills != 0 {
		t.Errorf("%d envelopes found a ring full", spills)
	}
	if perEvent > allocsPerEvent {
		t.Errorf("%.3f allocs per loop event, budget %.2f", perEvent, allocsPerEvent)
	}
	settled(t, baseline)
}

// TestStopUnderLoad runs the population on standalone runners over the
// in-memory network — one loop per box, a pump per channel end — and
// stops every runner at once while calls flow. No call may have been
// given up before the stop, and no loop, pump or timer goroutine may
// outlive it.
func TestStopUnderLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()
	network := transport.NewMemNetwork()
	stats := &Stats{}
	runners := startLoad(t, func(b *box.Box) *box.Runner { return box.NewRunner(b, network) }, stats)
	time.Sleep(loadGiveup)

	if g := stats.Giveups.Load(); g != 0 {
		t.Errorf("%d calls given up before the stop", g)
	}
	var wg sync.WaitGroup
	for _, r := range runners {
		wg.Add(1)
		go func(r *box.Runner) {
			defer wg.Done()
			r.Stop()
		}(r)
	}
	wg.Wait()
	settled(t, baseline)
}
