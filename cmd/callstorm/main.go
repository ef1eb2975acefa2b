// callstorm is the load harness for the live runtime: it stands up K
// server boxes and drives N concurrent open/hold/flowLink/close call
// lifecycles over the in-memory network (or TCP loopback), then
// reports throughput, setup-latency percentiles from the telemetry
// histograms, and runtime footprint, optionally as a JSON artifact.
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
// draining) instead of one goroutine per box; -sweep "1,2,4,8" runs
// one measurement leg per GOMAXPROCS/shard-count value and emits the
// scaling curve as a single JSON document.
//
// Usage:
//
//	callstorm [-paths N] [-servers K] [-mode link|hold] [-net mem|ring|tcp]
//	          [-shards N] [-sweep 1,2,4,8] [-gate]
//	          [-ramp 30s] [-duration 10s] [-hold 500ms] [-out BENCH_runtime.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
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
	"ipmedia/internal/telemetry"
	"ipmedia/internal/timerwheel"
	"ipmedia/internal/transport"
)

type stormStats struct {
	pathsUp   atomic.Int64 // distinct paths that have reached flowing at least once
	setups    atomic.Int64 // calls that reached flowing
	completed atomic.Int64 // full lifecycles (flowing + held + torn down)
	giveups   atomic.Int64 // calls that hit the give-up timer
	holding   atomic.Int64 // paths currently flowing-and-held
}

type stormConfig struct {
	paths    int
	servers  int
	shards   int // 0: one standalone runner per box
	mode     string
	netKind  string
	ramp     time.Duration
	duration time.Duration
	hold     time.Duration
	stagger  time.Duration
	giveup   time.Duration
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

// sweepResult is the scaling-curve artifact: one leg per
// GOMAXPROCS/shard count, plus the calls/s speedups relative to the
// 1-shard leg of the same run.
type sweepResult struct {
	Date    string             `json:"date"`
	NumCPU  int                `json:"num_cpu"`
	Mode    string             `json:"mode"`
	Net     string             `json:"net"`
	Paths   int                `json:"paths"`
	Servers int                `json:"servers"`
	Legs    []result           `json:"gomaxprocs_curve"`
	Speedup map[string]float64 `json:"calls_per_sec_speedup_vs_1"`
}

func main() {
	cfg := stormConfig{}
	flag.IntVar(&cfg.paths, "paths", 1000, "concurrent call lifecycles (paths)")
	flag.IntVar(&cfg.servers, "servers", 4, "server boxes")
	flag.IntVar(&cfg.shards, "shards", 0, "run on a cluster of this many runtime shards (0: one goroutine per box)")
	flag.StringVar(&cfg.mode, "mode", "link", "server behavior: link (relay+flowLink) or hold (direct holdSlot)")
	flag.StringVar(&cfg.netKind, "net", "mem", "transport: mem, ring (in-process SPSC rings), or tcp (loopback)")
	flag.DurationVar(&cfg.ramp, "ramp", 60*time.Second, "max time to wait for all paths to reach flowing once")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "steady-state measurement window")
	flag.DurationVar(&cfg.hold, "hold", 500*time.Millisecond, "mean hold time per call")
	flag.DurationVar(&cfg.stagger, "stagger", 0, "spread each path's first dial uniformly over this window (0: dial immediately)")
	flag.DurationVar(&cfg.giveup, "giveup", 10*time.Second, "abandon and redial a call that has not flowed after this long")
	sweep := flag.String("sweep", "", "comma-separated GOMAXPROCS/shard counts; run one leg per value (e.g. 1,2,4,8)")
	gate := flag.Bool("gate", false, "exit nonzero if any leg recorded giveups or ring spills")
	allocGate := flag.Float64("alloc-gate", 0, "exit nonzero if any leg exceeds this allocs/event budget (0: off)")
	out := flag.String("out", "", "write the result JSON here (empty: stdout only)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measurement window here")
	memprofile := flag.String("memprofile", "", "write an allocation profile captured at the end of the measurement window here")
	flag.Parse()

	sess, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "callstorm:", err)
		os.Exit(1)
	}

	var blob []byte
	giveups, spills := int64(0), int64(0)
	allocsWorst := 0.0
	if *sweep == "" {
		res := runStorm(cfg)
		giveups, spills = res.Giveups, res.RingSpills
		allocsWorst = res.AllocsPerEvent
		blob, _ = json.MarshalIndent(res, "", "  ")
	} else {
		sr := sweepResult{
			Date:    time.Now().Format("2006-01-02"),
			NumCPU:  runtime.NumCPU(),
			Mode:    cfg.mode,
			Net:     cfg.netKind,
			Paths:   cfg.paths,
			Servers: cfg.servers,
			Speedup: map[string]float64{},
		}
		prev := runtime.GOMAXPROCS(0)
		for _, f := range strings.Split(*sweep, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "callstorm: bad -sweep entry %q\n", f)
				os.Exit(2)
			}
			legCfg := cfg
			legCfg.shards = n
			runtime.GOMAXPROCS(n)
			fmt.Fprintf(os.Stderr, "callstorm: === sweep leg: GOMAXPROCS=%d shards=%d ===\n", n, n)
			res := runStorm(legCfg)
			giveups += res.Giveups
			spills += res.RingSpills
			if res.AllocsPerEvent > allocsWorst {
				allocsWorst = res.AllocsPerEvent
			}
			sr.Legs = append(sr.Legs, res)
			runtime.GC() // drop the leg's population before the next one
		}
		runtime.GOMAXPROCS(prev)
		if len(sr.Legs) > 0 && sr.Legs[0].CallsPerSec > 0 {
			base := sr.Legs[0].CallsPerSec
			for _, leg := range sr.Legs {
				sr.Speedup[strconv.Itoa(leg.GoMaxProcs)] = leg.CallsPerSec / base
			}
		}
		blob, _ = json.MarshalIndent(sr, "", "  ")
	}

	if err := sess.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "callstorm:", err)
		os.Exit(1)
	}

	fmt.Println(string(blob))
	if *out != "" {
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "callstorm:", err)
			os.Exit(1)
		}
	}
	if *gate && giveups+spills > 0 {
		fmt.Fprintf(os.Stderr, "callstorm: GATE FAILED: %d giveups, %d ring spills (want 0)\n", giveups, spills)
		os.Exit(1)
	}
	if *allocGate > 0 && allocsWorst > *allocGate {
		fmt.Fprintf(os.Stderr, "callstorm: GATE FAILED: %.2f allocs/event (budget %.2f)\n", allocsWorst, *allocGate)
		os.Exit(1)
	}
}

// runStorm runs one full measurement: fresh telemetry registry, fresh
// network, fresh box population, ramp, steady window, clean shutdown.
func runStorm(cfg stormConfig) result {
	// A fresh registry per leg so sweep legs do not bleed counters or
	// histogram mass into each other. It must be live before the first
	// runner resolves its instruments.
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)

	var network transport.Network
	switch cfg.netKind {
	case "mem":
		network = transport.NewMemNetwork()
	case "ring":
		network = transport.NewRingMemNetwork()
	case "tcp":
		network = transport.TCPNetwork{}
	default:
		fmt.Fprintf(os.Stderr, "callstorm: unknown -net %q\n", cfg.netKind)
		os.Exit(2)
	}

	var cluster *box.Cluster
	newRunner := box.NewRunner
	if cfg.shards > 0 {
		cluster = box.NewCluster(network, cfg.shards)
		newRunner = func(b *box.Box, _ transport.Network) *box.Runner {
			return cluster.Runner(b)
		}
	}

	stats := &stormStats{}

	// Servers first, so every client dial lands on a listener.
	devAddrs := listenAll(network, newRunner, cfg.netKind, "dev", cfg.servers, func(i int) *box.Box {
		return box.New(fmt.Sprintf("dev%d", i), devProfile(fmt.Sprintf("dev%d", i), 20000+i))
	})
	targets := devAddrs
	if cfg.mode == "link" {
		relayAddrs := listenAll(network, newRunner, cfg.netKind, "relay", cfg.servers, func(i int) *box.Box {
			b := box.New(fmt.Sprintf("relay%d", i), core.ServerProfile{Name: fmt.Sprintf("relay%d", i)})
			b.Hook = relayHook(devAddrs, i)
			return b
		})
		targets = relayAddrs
	}

	// Clients: one box per path, each cycling its lifecycle program.
	fmt.Fprintf(os.Stderr, "callstorm: starting %d paths against %d %s servers over %s (shards=%d)...\n",
		cfg.paths, cfg.servers, cfg.mode, cfg.netKind, cfg.shards)
	rng := rand.New(rand.NewSource(1))
	clients := make([]*box.Runner, cfg.paths)
	for i := range clients {
		name := fmt.Sprintf("cli%d", i)
		b := box.New(name, devProfile(name, 30000+i))
		r := newRunner(b, network)
		r.OnError = func(err error) { fmt.Fprintf(os.Stderr, "callstorm: %s: %v\n", name, err) }
		r.SetProgram(clientProgram(stats, targets[i%len(targets)], cfg.hold, cfg.stagger, cfg.giveup, rng.Int63()))
		clients[i] = r
	}

	// Ramp: every path flowing at least once.
	rampDeadline := time.Now().Add(cfg.ramp)
	for stats.pathsUp.Load() < int64(cfg.paths) && time.Now().Before(rampDeadline) {
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Fprintf(os.Stderr, "callstorm: ramp done, %d/%d paths set up; measuring %v...\n",
		stats.pathsUp.Load(), cfg.paths, cfg.duration)

	// Steady window.
	mEvents := telemetry.C(box.MetricLoopIterations)
	var ms0, ms1 runtime.MemStats
	goroPeak := runtime.NumGoroutine()
	var heldPeak int64
	runtime.ReadMemStats(&ms0)
	events0 := int64(mEvents.Value())
	completed0 := stats.completed.Load()
	t0 := time.Now()
	for end := t0.Add(cfg.duration); time.Now().Before(end); {
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
	completed := stats.completed.Load() - completed0

	snap := reg.Snapshot()
	ttf := snap.Histograms[slot.MetricTimeToFlowing]
	res := result{
		Date:       time.Now().Format("2006-01-02"),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Mode:       cfg.mode,
		Net:        cfg.netKind,
		Paths:      cfg.paths,
		Servers:    cfg.servers,
		Shards:     cfg.shards,
		HoldMS:     cfg.hold.Milliseconds(),
		WindowMS:   elapsed.Milliseconds(),

		PathsHeldPeak: heldPeak,
		Setups:        stats.setups.Load(),
		Completed:     stats.completed.Load(),
		Giveups:       stats.giveups.Load(),
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
	if res.PathsHeldPeak < int64(cfg.paths)/2 {
		fmt.Fprintf(os.Stderr, "callstorm: WARNING: held only %d of %d paths concurrently\n",
			res.PathsHeldPeak, cfg.paths)
	}
	return res
}

// listenAll starts n server boxes and returns their dial addresses.
func listenAll(network transport.Network, newRunner func(*box.Box, transport.Network) *box.Runner,
	netKind, prefix string, n int, build func(i int) *box.Box) []string {
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("%s%d", prefix, i)
		if netKind == "tcp" {
			// Grab a free loopback port for the runner to re-listen on.
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fmt.Fprintln(os.Stderr, "callstorm:", err)
				os.Exit(1)
			}
			addr = l.Addr().String()
			l.Close()
		}
		r := newRunner(build(i), network)
		if err := r.Listen(addr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "callstorm:", err)
			os.Exit(1)
		}
		addrs[i] = addr
	}
	return addrs
}

func devProfile(name string, port int) *core.EndpointProfile {
	return core.NewEndpointProfile(name, "10.1.0.1", port,
		[]sig.Codec{sig.G711, sig.G726}, []sig.Codec{sig.G711, sig.G726})
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
// so the storm does not beat in lockstep, and a nonzero stagger delays
// the first dial by a uniform-random slice of the window so a large
// storm does not open every path in the same instant.
func clientProgram(stats *stormStats, addr string, hold, stagger, giveup time.Duration, seed int64) *box.Program {
	const ch = "c"
	s0 := box.TunnelSlot(ch, 0)
	rng := rand.New(rand.NewSource(seed))
	jitter := func() time.Duration {
		return hold/2 + hold/2 + time.Duration(rng.Int63n(int64(hold)/2)) - hold/4
	}
	initial := "call"
	flowedOnce := false
	var states []*box.State
	if stagger > 0 {
		initial = "stagger"
		delay := time.Duration(rng.Int63n(int64(stagger)))
		states = append(states, &box.State{
			Name:    "stagger",
			OnEnter: func(ctx *box.Ctx) { ctx.SetTimer("start", delay) },
			Trans: []box.Trans{
				{When: func(ctx *box.Ctx) bool { return ctx.OnTimer("start") }, To: "call"},
			},
		})
	}
	states = append(states, []*box.State{
		{
			Name:   "call",
			Annots: []box.Annot{box.OpenSlotAnn(s0, sig.Audio)},
			OnEnter: func(ctx *box.Ctx) {
				ctx.Dial(ch, addr)
				ctx.SetTimer("giveup", giveup)
			},
			Trans: []box.Trans{
				{When: func(ctx *box.Ctx) bool { return ctx.IsFlowing(s0) }, To: "hold",
					Do: func(ctx *box.Ctx) {
						ctx.CancelTimer("giveup")
						if !flowedOnce {
							flowedOnce = true
							stats.pathsUp.Add(1)
						}
						stats.setups.Add(1)
						stats.holding.Add(1)
					}},
				{When: func(ctx *box.Ctx) bool { return ctx.OnMeta(ch, sig.MetaUnavailable) }, To: "redial",
					Do: func(ctx *box.Ctx) { ctx.CancelTimer("giveup"); stats.giveups.Add(1) }},
				{When: func(ctx *box.Ctx) bool { return ctx.OnTimer("giveup") }, To: "redial",
					Do: func(ctx *box.Ctx) { stats.giveups.Add(1) }},
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
						stats.completed.Add(1)
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
	}...)
	return &box.Program{Initial: initial, States: states}
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
