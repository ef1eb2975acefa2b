// callstorm is the load harness for the live runtime: it stands up K
// server boxes and drives N concurrent open/hold/flowLink/close call
// lifecycles over the in-memory network (or TCP loopback), then
// reports throughput, setup-latency percentiles from the telemetry
// histograms, and runtime footprint as JSON on stdout.
//
// Each path is a device box cycling a three-state program: dial and
// open toward a server, hold while flowing, tear down and redial. In
// link mode the servers are relays that splice every incoming call to
// a device box with a flowLink, so each path exercises the full
// open/hold/flowLink/close goal set end to end; in hold mode clients
// land directly on holdSlot devices.
//
// With -shards N the whole population runs on a box.Cluster of N
// runtime shards (per-shard inboxes, timer wheels, and inline ring
// draining) instead of one goroutine per box.
//
// callstorm is a liveness and shutdown-under-load gate (make
// storm-smoke) and a profiling target (make profile-runtime), not a
// measuring instrument: capacity and latency figures come from
// bash bench/run.sh.
//
// Usage:
//
//	callstorm [-paths N] [-servers K] [-mode link|hold] [-net mem|ring|tcp]
//	          [-shards N] [-duration 10s] [-hold 500ms]
//	          [-gate] [-alloc-gate A] [-cpuprofile F] [-memprofile F]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipmedia/internal/box"
	"ipmedia/internal/core"
	"ipmedia/internal/prof"
	"ipmedia/internal/sig"
	"ipmedia/internal/slot"
	"ipmedia/internal/storm"
	"ipmedia/internal/telemetry"
	"ipmedia/internal/timerwheel"
	"ipmedia/internal/transport"
)

// The ramp waits this long at most for every path to flow once, and a
// call that has not flowed after giveupAfter is abandoned and redialed.
const (
	rampMax     = 60 * time.Second
	giveupAfter = 10 * time.Second
)

type stormStats struct {
	storm.Stats              // Setups, Completed, Giveups
	pathsUp     atomic.Int64 // distinct paths that have reached flowing at least once
	holding     atomic.Int64 // paths currently flowing-and-held
}

type result struct {
	Date       string `json:"date"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`

	Mode     string `json:"mode"`
	Net      string `json:"net"`
	Paths    int    `json:"paths"`
	Servers  int    `json:"servers"`
	Shards   int    `json:"shards"`
	HoldMS   int64  `json:"hold_ms"`
	WindowMS int64  `json:"window_ms"`

	PathsHeldPeak int64   `json:"paths_held_peak"`
	Setups        int64   `json:"setups"`
	Completed     int64   `json:"completed_calls"`
	Giveups       int64   `json:"giveups"`
	CallsPerSec   float64 `json:"calls_per_sec"`

	Events         int64   `json:"events"`
	EventsPerSec   float64 `json:"events_per_sec"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`

	GoroutinesPeak int   `json:"goroutines_peak"`
	InboxDepthHWM  int64 `json:"inbox_depth_hwm"`
	TimersHWM      int64 `json:"timerwheel_pending_hwm"`
	QueueDepthHWM  int64 `json:"queue_depth_hwm"`

	// RingSpills counts envelopes that found a ring port's ring full;
	// RingOccupancy[n-1] counts drains that found n envelopes waiting.
	// Both stay zero/empty off -net ring.
	RingSpills    int64    `json:"ring_spills"`
	RingOccupancy []uint64 `json:"ring_occupancy,omitempty"`

	SetupCount int64   `json:"setup_latency_count"`
	SetupP50MS float64 `json:"setup_latency_p50_ms"`
	SetupP95MS float64 `json:"setup_latency_p95_ms"`
	SetupP99MS float64 `json:"setup_latency_p99_ms"`
}

var (
	paths    = flag.Int("paths", 1000, "concurrent call lifecycles (paths)")
	servers  = flag.Int("servers", 4, "server boxes")
	shards   = flag.Int("shards", 0, "run on a cluster of this many runtime shards (0: one goroutine per box)")
	mode     = flag.String("mode", "link", "server behavior: link (relay+flowLink) or hold (direct holdSlot)")
	netKind  = flag.String("net", "mem", "transport: mem, ring (in-process SPSC rings), or tcp (loopback)")
	duration = flag.Duration("duration", 10*time.Second, "steady-state measurement window")
	hold     = flag.Duration("hold", 500*time.Millisecond, "mean hold time per call")
)

func main() {
	gate := flag.Bool("gate", false, "exit nonzero on any giveup or ring spill")
	allocGate := flag.Float64("alloc-gate", 0, "exit nonzero above this allocs/event budget (0: off)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measurement window here")
	memprofile := flag.String("memprofile", "", "write an allocation profile captured at the end of the measurement window here")
	flag.Parse()

	sess, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "callstorm:", err)
		os.Exit(1)
	}

	res := runStorm()

	if err := sess.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "callstorm:", err)
		os.Exit(1)
	}
	storm.WriteReport(res, "") // stdout only: no file to fail on
	if *gate && res.Giveups+res.RingSpills > 0 {
		storm.FailGate("callstorm", "%d giveups, %d ring spills (want 0)", res.Giveups, res.RingSpills)
	}
	if *allocGate > 0 && res.AllocsPerEvent > *allocGate {
		storm.FailGate("callstorm", "%.2f allocs/event (budget %.2f)", res.AllocsPerEvent, *allocGate)
	}
}

// runStorm runs the storm: network, box population, ramp, steady
// window, clean shutdown.
func runStorm() result {
	// The registry must be live before the first runner resolves its
	// instruments.
	reg := telemetry.Enable()

	var network transport.Network
	switch *netKind {
	case "mem":
		network = transport.NewMemNetwork()
	case "ring":
		network = transport.NewRingMemNetwork()
	case "tcp":
		network = transport.TCPNetwork{}
	default:
		fmt.Fprintf(os.Stderr, "callstorm: unknown -net %q\n", *netKind)
		os.Exit(2)
	}

	var cluster *box.Cluster
	newRunner := func(b *box.Box) *box.Runner { return box.NewRunner(b, network) }
	if *shards > 0 {
		cluster = box.NewCluster(network, *shards)
		newRunner = cluster.Runner
	}

	stats := &stormStats{}

	// Servers first, so every client dial lands on a listener.
	_, targets, err := storm.ListenAll(newRunner, *netKind == "tcp", "dev", *servers, func(name string, i int) *box.Box {
		return box.New(name, storm.DevProfile(name, 20000+i))
	})
	if err == nil && *mode == "link" {
		devAddrs := targets
		_, targets, err = storm.ListenAll(newRunner, *netKind == "tcp", "relay", *servers, func(name string, i int) *box.Box {
			b := box.New(name, core.ServerProfile{Name: name})
			b.Hook = relayHook(devAddrs, i)
			return b
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "callstorm:", err)
		os.Exit(1)
	}

	// Clients: one box per path, each cycling its lifecycle program.
	fmt.Fprintf(os.Stderr, "callstorm: starting %d paths against %d %s servers over %s (shards=%d)...\n",
		*paths, *servers, *mode, *netKind, *shards)
	rng := rand.New(rand.NewSource(1))
	clients := make([]*box.Runner, *paths)
	for i := range clients {
		name := fmt.Sprintf("cli%d", i)
		b := box.New(name, storm.DevProfile(name, 30000+i))
		r := newRunner(b)
		r.OnError = func(err error) { fmt.Fprintf(os.Stderr, "callstorm: %s: %v\n", name, err) }
		r.SetProgram(clientProgram(stats, targets[i%len(targets)], *hold, rng.Int63()))
		clients[i] = r
	}

	// Ramp: every path flowing at least once.
	rampDeadline := time.Now().Add(rampMax)
	for stats.pathsUp.Load() < int64(*paths) && time.Now().Before(rampDeadline) {
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Fprintf(os.Stderr, "callstorm: ramp done, %d/%d paths set up; measuring %v...\n",
		stats.pathsUp.Load(), *paths, *duration)

	// Steady window.
	mEvents := telemetry.C(box.MetricLoopIterations)
	var ms0, ms1 runtime.MemStats
	goroPeak := runtime.NumGoroutine()
	var heldPeak int64
	runtime.ReadMemStats(&ms0)
	events0 := int64(mEvents.Value())
	completed0 := stats.Completed.Load()
	t0 := time.Now()
	for end := t0.Add(*duration); time.Now().Before(end); {
		time.Sleep(100 * time.Millisecond)
		if g := runtime.NumGoroutine(); g > goroPeak {
			goroPeak = g
		}
		if h := stats.holding.Load(); h > heldPeak {
			heldPeak = h
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	events := int64(mEvents.Value()) - events0
	completed := stats.Completed.Load() - completed0

	snap := reg.Snapshot()
	ttf := snap.Histograms[slot.MetricTimeToFlowing]
	res := result{
		Date:       time.Now().Format("2006-01-02"),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Mode:       *mode,
		Net:        *netKind,
		Paths:      *paths,
		Servers:    *servers,
		Shards:     *shards,
		HoldMS:     hold.Milliseconds(),
		WindowMS:   elapsed.Milliseconds(),

		PathsHeldPeak: heldPeak,
		Setups:        stats.Setups.Load(),
		Completed:     stats.Completed.Load(),
		Giveups:       stats.Giveups.Load(),
		CallsPerSec:   float64(completed) / elapsed.Seconds(),

		Events:         events,
		EventsPerSec:   float64(events) / elapsed.Seconds(),
		GoroutinesPeak: goroPeak,
		InboxDepthHWM:  snap.Gauges[box.MetricInboxDepth].HighWater,
		TimersHWM:      snap.Gauges[timerwheel.MetricPending].HighWater,
		QueueDepthHWM:  snap.Gauges[transport.MetricQueueDepth].HighWater,
		RingSpills:     int64(snap.Counters[transport.MetricRingSpills]),

		SetupCount: int64(ttf.Count),
		SetupP50MS: float64(ttf.P50) / float64(time.Millisecond),
		SetupP95MS: float64(ttf.P95) / float64(time.Millisecond),
		SetupP99MS: float64(ttf.P99) / float64(time.Millisecond),
	}
	for n := 1; ; n++ {
		c, ok := snap.Counters[transport.MetricRingOccupancyPrefix+strconv.Itoa(n)]
		if !ok {
			break
		}
		res.RingOccupancy = append(res.RingOccupancy, c)
	}
	if events > 0 {
		res.NsPerEvent = float64(elapsed.Nanoseconds()) / float64(events)
		res.AllocsPerEvent = float64(ms1.Mallocs-ms0.Mallocs) / float64(events)
	}

	// Clean shutdown under load is part of what the harness exercises.
	if cluster != nil {
		cluster.Stop()
	} else {
		stopAll(clients)
	}
	if res.PathsHeldPeak < int64(*paths)/2 {
		fmt.Fprintf(os.Stderr, "callstorm: WARNING: held only %d of %d paths concurrently\n",
			res.PathsHeldPeak, *paths)
	}
	return res
}

// relayHook splices every incoming call onward to a device box with a
// flowLink, and propagates teardowns to the spliced leg. It runs on
// the relay's loop goroutine.
//
// Spliced-leg names are pooled: accepted channel names are minted
// fresh per call (in0, in1, ...), so deriving the out-leg name from
// the in name ("out-"+in) allocated a new string per call, forever.
// Instead the hook keeps a free list of out names ("o-K"); a storm's
// steady state cycles a bounded set of strings and allocates none.
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

// clientProgram is one path's lifecycle: dial and open toward addr,
// hold while flowing, tear down, redial. Hold times are jittered ±25%
// so the storm does not beat in lockstep.
func clientProgram(stats *stormStats, addr string, hold time.Duration, seed int64) *box.Program {
	const ch = "c"
	s0 := box.TunnelSlot(ch, 0)
	rng := rand.New(rand.NewSource(seed))
	jitter := func() time.Duration {
		return hold/2 + hold/2 + time.Duration(rng.Int63n(int64(hold)/2)) - hold/4
	}
	flowedOnce := false
	states := []*box.State{
		{
			Name:   "call",
			Annots: []box.Annot{box.OpenSlotAnn(s0, sig.Audio)},
			OnEnter: func(ctx *box.Ctx) {
				ctx.Dial(ch, addr)
				ctx.SetTimer("giveup", giveupAfter)
			},
			Trans: []box.Trans{
				{When: func(ctx *box.Ctx) bool { return ctx.IsFlowing(s0) }, To: "hold",
					Do: func(ctx *box.Ctx) {
						ctx.CancelTimer("giveup")
						if !flowedOnce {
							flowedOnce = true
							stats.pathsUp.Add(1)
						}
						stats.Setups.Add(1)
						stats.holding.Add(1)
					}},
				{When: func(ctx *box.Ctx) bool { return ctx.OnMeta(ch, sig.MetaUnavailable) }, To: "redial",
					Do: func(ctx *box.Ctx) { ctx.CancelTimer("giveup"); stats.Giveups.Add(1) }},
				{When: func(ctx *box.Ctx) bool { return ctx.OnTimer("giveup") }, To: "redial",
					Do: func(ctx *box.Ctx) { stats.Giveups.Add(1) }},
			},
		},
		{
			Name:    "hold",
			Annots:  []box.Annot{box.OpenSlotAnn(s0, sig.Audio)},
			OnEnter: func(ctx *box.Ctx) { ctx.SetTimer("hold", jitter()) },
			Trans: []box.Trans{
				{When: func(ctx *box.Ctx) bool { return ctx.OnTimer("hold") }, To: "redial",
					Do: func(ctx *box.Ctx) {
						stats.holding.Add(-1)
						stats.Completed.Add(1)
					}},
			},
		},
		{
			Name:    "redial",
			OnEnter: func(ctx *box.Ctx) { ctx.Teardown(ch) },
			Trans: []box.Trans{
				{When: func(*box.Ctx) bool { return true }, To: "call"},
			},
		},
	}
	return &box.Program{Initial: "call", States: states}
}

// stopAll stops runners through a small worker pool; serial Stop of
// 100k runners would dominate shutdown.
func stopAll(rs []*box.Runner) {
	var wg sync.WaitGroup
	work := make(chan *box.Runner)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				r.Stop()
			}
		}()
	}
	for _, r := range rs {
		work <- r
	}
	close(work)
	wg.Wait()
}
