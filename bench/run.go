package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"ipmedia/internal/box"
	"ipmedia/internal/media"
	"ipmedia/internal/slot"
	"ipmedia/internal/store"
	"ipmedia/internal/telemetry"
	"ipmedia/internal/timerwheel"
	"ipmedia/internal/transport"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measurement window
	trace    bool
	smoke    bool
	outDir   string // scratch (store directories) and trace files
}

// workloadSpec is a named workload: what it runs and why it exists.
type workloadSpec struct {
	name  string
	why   string
	procs int // GOMAXPROCS, pinned per workload
	calls *callsParams
	media *mediaParams
}

const (
	fullParked      = 2000
	fullSubscribers = 20000
	giveUpAfter     = 2 * time.Second
)

var workloadSpecs = []workloadSpec{
	{
		name:  "calls-sat",
		why:   "closed loop, 256 clients redialing through 4 relays on one ring shard at GOMAXPROCS=1: calls/s per core, with box+core+slot+ring doing all the work and codec, TCP, rel, mux, store none",
		procs: 1,
		calls: &callsParams{closedLoop: true, loopClients: 256, parked: fullParked, relays: 4, devs: 4, giveup: giveUpAfter},
	},
	{
		name:  "calls-paced",
		why:   "open loop, 1000 calls/s on a seeded schedule with 1 s holds, ring shard plus store: the latency a caller feels at a stated load, one event per wake-up instead of full batches",
		procs: 2,
		calls: &callsParams{rate: 1000, meanHold: time.Second, pool: 2000, parked: fullParked, relays: 4, devs: 4,
			subscribers: fullSubscribers, giveup: giveUpAfter},
	},
	{
		name:  "calls-mux",
		why:   "the calls-paced schedule with clients and servers behind two routers joined by mux over rel over TCP: every envelope crosses the codec and the reliable/mux/TCP stack",
		procs: 2,
		calls: &callsParams{mux: true, rate: 1000, meanHold: time.Second, pool: 2000, parked: fullParked, relays: 4, devs: 4,
			subscribers: fullSubscribers, giveup: giveUpAfter},
	},
	{
		name:  "media-ts",
		why:   "closed loop, window-limited rounds of MPEG-TS datagrams over UDP loopback: the only workload where media and ts work and the signaling stack is idle",
		procs: 2,
		media: &mediaParams{pairs: 2, burst: 32, roundTimeout: 20 * time.Millisecond},
	},
}

func specFor(name string) (workloadSpec, bool) {
	for _, s := range workloadSpecs {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// timing holds the durations a run is built from. A smoke run shrinks
// every one of them (and the populations) so that all passes of all
// workloads fit in a few seconds; its numbers mean nothing, its output
// checks are the real ones.
type timing struct {
	window   time.Duration
	slice    time.Duration
	warmup   time.Duration
	setups   int // set-ups per run; setup_s is their median
	offSlice int // traced run: leading slices measured with the decorators passing through
}

func (cfg config) timing() timing {
	t := timing{
		window: time.Duration(cfg.seconds * float64(time.Second)),
		slice:  2 * time.Second,
		warmup: 2 * time.Second,
		setups: 9,
	}
	if cfg.smoke {
		t = timing{window: 600 * time.Millisecond, slice: 100 * time.Millisecond, warmup: 100 * time.Millisecond, setups: 1}
	}
	if t.window < 2*t.slice {
		t.slice = t.window / 2
	}
	if cfg.trace {
		t.offSlice = int(t.window/t.slice) * 3 / 10
		if t.offSlice < 1 {
			t.offSlice = 1
		}
	}
	return t
}

// shrink scales a workload's populations down for a smoke run.
func (s workloadSpec) shrink() workloadSpec {
	if s.calls != nil {
		p := *s.calls
		p.parked = 100
		if p.closedLoop {
			p.loopClients = 32
		} else {
			p.rate, p.pool, p.meanHold = 250, 200, 100*time.Millisecond
		}
		if p.subscribers > 0 {
			p.subscribers = 500
		}
		s.calls = &p
	}
	return s
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one run. The JSON form is the last line of
// standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	all        map[string]float64 // every metric measured, end-to-end and per-layer
	violations []string
	samples    int       // latency samples behind latency_p50_us
	setups     []float64 // seconds, every set-up of the run
	rates      []float64 // ops/s of each slice of the window
	cpus       []float64 // CPU µs per op of each slice
}

// bracket is the state read at both ends of a window.
type bracket struct {
	at   time.Time
	ms   runtime.MemStats
	rt   runtimeSample
	snap telemetry.Snapshot
}

func takeBracket(reg *telemetry.Registry) bracket {
	b := bracket{at: time.Now(), rt: readRuntime(), snap: reg.Snapshot()}
	runtime.ReadMemStats(&b.ms)
	return b
}

// meter cuts the window into slices.
type meter struct {
	slices   []slice
	last     time.Time
	lastOps  float64
	lastCPU  float64
	goroPeak int
}

func (m *meter) begin(ops float64) {
	m.last, m.lastOps, m.lastCPU = time.Now(), ops, cpuUS()
}

func (m *meter) cut(ops float64) {
	now, cpu := time.Now(), cpuUS()
	m.slices = append(m.slices, slice{seconds: now.Sub(m.last).Seconds(), ops: ops - m.lastOps, cpuUS: cpu - m.lastCPU})
	m.last, m.lastOps, m.lastCPU = now, ops, cpu
	if g := runtime.NumGoroutine(); g > m.goroPeak {
		m.goroPeak = g
	}
}

// runWorkload runs one workload once and returns its result. The
// default telemetry registry is replaced for the run (a fresh one per
// workload, as every storm harness does) and GOMAXPROCS is pinned.
func runWorkload(cfg config) (*result, error) {
	spec, ok := specFor(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.smoke {
		spec = spec.shrink()
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(spec.procs))
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	r := &run{cfg: cfg, spec: spec, tm: cfg.timing(), reg: reg, tr: tr,
		res: &result{all: map[string]float64{}}}
	var err error
	if spec.media != nil {
		err = r.runMedia()
	} else {
		err = r.runCalls()
	}
	if err != nil {
		return nil, err
	}
	r.finish()
	return r.res, nil
}

// run is the state of one workload run.
type run struct {
	cfg  config
	spec workloadSpec
	tm   timing
	reg  *telemetry.Registry
	tr   *tracer
	res  *result

	setups       []float64 // seconds, one per set-up
	m            meter
	b0, b1       bracket
	heapLive     float64 // bytes, after two forced GCs at window end
	harnessBytes float64 // of which the harness's own sample buffers
	calib        [2]float64
	latencySS    *samples
	genLagSS     *samples
	ops          float64 // operations completed inside the window
	opsAtOn      float64 // op counter when the decorators started recording
	tracedOps    float64 // operations completed while they recorded
	pendingTimer int64   // timers armed at window end, for the wheel probe
	genLagP95US  float64 // open loop: how late the generator issued its 95th-percentile call
}

func (r *run) set(name string, v float64) { r.res.all[name] = v }

// window runs the slice clock for a load that runs by itself: it
// sleeps to each slice boundary, reads the op counter, and switches
// the tracer on after the leading pass-through slices.
func (r *run) window(ops func() float64) {
	r.b0 = takeBracket(r.reg)
	start, first := time.Now(), ops()
	r.m.begin(first)
	n := int(r.tm.window / r.tm.slice)
	for i := 0; i < n; i++ {
		if r.tr != nil && i == r.tm.offSlice {
			r.opsAtOn = ops()
			r.tr.on.Store(true)
		}
		time.Sleep(time.Until(start.Add(time.Duration(i+1) * r.tm.slice)))
		r.m.cut(ops())
	}
	r.b1 = takeBracket(r.reg)
	r.tr.stop()
	r.ops, r.tracedOps = r.m.lastOps-first, r.m.lastOps-r.opsAtOn
}

// forcedHeap reads the live heap after two forced collections (the
// second sweeps what the first's finalizers and pools released). The
// caller quiesces the load first: a collection that runs beside a load
// allocating 200 MB/s reads tens of megabytes of garbage as live.
func forcedHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func (r *run) runCalls() error {
	p := *r.spec.calls
	t0 := time.Now()
	w, err := buildCalls(p, r.cfg, r.tr, 0)
	if err != nil {
		return err
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	// Sample buffers are sized for the window up front: the open loop's
	// count is known, the closed loop's is bounded by 50k calls/s.
	capacity := int(r.tm.window.Seconds()*50000) + 1024
	if !p.closedLoop {
		capacity = int(r.tm.window.Seconds()*p.rate*1.25) + 1024
	}
	w.latency, w.genLag = newSamples(capacity), newSamples(capacity)
	r.latencySS, r.genLagSS = w.latency, w.genLag
	r.harnessBytes = 16 * float64(capacity)
	if r.tr != nil {
		r.tr.watchRelay(w.servers[p.devs]) // the first relay
	}

	probe, err := newHostProbe(r.cfg.smoke)
	if err != nil {
		w.close()
		return fmt.Errorf("host probe: %w", err)
	}
	defer probe.close()
	r.calib[0] = probe.run()

	// Load: warm-up at the workload's own load, then the window.
	span := r.tm.warmup + r.tm.window
	genDone := make(chan struct{})
	start := time.Now()
	if p.closedLoop {
		w.startLoops()
		close(genDone)
	} else {
		calls := makeSchedule(r.cfg.seed, p.rate, span, p.meanHold, p.subscribers)
		go func() {
			defer close(genDone)
			w.generate(calls, start)
		}()
	}
	time.Sleep(time.Until(start.Add(r.tm.warmup)))
	w.recFrom.Store(nowNS())
	w.recTo.Store(nowNS() + int64(r.tm.window))
	r.window(func() float64 { return float64(w.completed.Load()) })
	r.pendingTimer = r.b1.snap.Gauges[timerwheel.MetricPending].Value

	// State held per call: the load quiesced, the parked population and
	// every idle box still standing.
	<-genDone
	r.res.violations = append(r.res.violations, w.quiesce()...)
	r.heapLive = forcedHeap()
	r.calib[1] = probe.run()
	r.res.violations = append(r.res.violations, w.drain()...)
	r.res.Attempted, r.res.Failed = w.attempted.Load(), w.failed.Load()
	if w.st != nil {
		if issued := w.binder.Issued(); issued > 0 {
			r.set("store.acked_ratio", float64(w.st.DurableCDRs())/float64(issued))
		}
	}
	w.close()

	// The remaining set-ups, for the median. They run after the window so
	// the measured world is the process's first: its high-water gauges
	// and the shared timer wheels' gauges belong to this run's registry.
	for i := 1; i < r.tm.setups; i++ {
		t0 := time.Now()
		extra, err := buildCalls(p, r.cfg, nil, i)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i+1, err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		extra.latency, extra.genLag = newSamples(1), newSamples(1)
		if bad := extra.drain(); len(bad) > 0 {
			r.res.violations = append(r.res.violations, bad...)
		}
		extra.close()
	}
	return nil
}

func (r *run) runMedia() error {
	p := *r.spec.media
	t0 := time.Now()
	w, err := buildMedia(p, r.tr)
	if err != nil {
		return err
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	defer func() {
		if w != nil {
			w.close()
		}
	}()
	probe, err := newHostProbe(r.cfg.smoke)
	if err != nil {
		return fmt.Errorf("host probe: %w", err)
	}
	defer probe.close()
	r.calib[0] = probe.run()

	bursts := burstSizes(r.cfg.seed, p.burst, 1<<16)
	lat := newSamples(int(r.tm.window.Seconds()*20000) + 1024) // rounds take ~150 µs; 20k/s is far above
	r.latencySS = lat
	r.harnessBytes = 8 * float64(len(lat.buf))
	accepted := func() float64 { a, _, _, _ := w.tally(); return float64(a) }

	start := time.Now()
	round := 0
	for time.Since(start) < r.tm.warmup {
		w.round(bursts[round%len(bursts)], r.tr)
		round++
	}
	r.b0 = takeBracket(r.reg)
	wstart := time.Now()
	r.m.begin(accepted())
	ops0 := accepted()
	nSlices := int(r.tm.window / r.tm.slice)
	for cut := 0; cut < nSlices; {
		if r.tr != nil && cut == r.tm.offSlice && !r.tr.on.Load() {
			r.opsAtOn = accepted()
			r.tr.on.Store(true)
		}
		lat.add(w.round(bursts[round%len(bursts)], r.tr))
		round++
		if time.Since(wstart) >= time.Duration(cut+1)*r.tm.slice {
			r.m.cut(accepted())
			cut++
		}
	}
	r.b1 = takeBracket(r.reg)
	r.tr.stop()
	r.ops, r.tracedOps = r.m.lastOps-ops0, r.m.lastOps-r.opsAtOn
	r.heapLive = forcedHeap()

	lost := w.settle()
	a, c, u, f := w.tally()
	sent := w.sent()
	r.res.Attempted, r.res.Failed = int64(sent), int64(sent-a)
	dec := w.mErr.Value()
	if sent != a+c+u+f+dec+lost {
		r.res.violations = append(r.res.violations,
			fmt.Sprintf("media accounting: sent %d != accepted %d + clipped %d + unexpected %d + framing %d + decode %d + lost %d",
				sent, a, c, u, f, dec, lost))
	}
	snap := r.reg.Snapshot()
	crc, cc := snap.Counters[media.MetricTSCRCErrors], snap.Counters[media.MetricTSCCDiscontinuities]
	if f+crc+cc > 0 {
		r.res.violations = append(r.res.violations,
			fmt.Sprintf("media integrity: %d framing, %d CRC, %d continuity errors", f, crc, cc))
	}
	if n := snap.Counters[transport.MetricFramesOut]; n > 0 {
		r.res.violations = append(r.res.violations, fmt.Sprintf("media-ts sent %d signaling envelopes", n))
	}
	for _, err := range w.plane.Errs() {
		r.res.violations = append(r.res.violations, "media plane: "+err.Error())
	}
	r.set("media.lost_ratio", float64(lost)/float64(sent))
	r.set("media.clipped", float64(c))
	r.set("media.decode_errors", float64(dec))
	r.set("ts.crc_errors", float64(crc))
	r.set("ts.cc_discontinuities", float64(cc))
	r.set("ts.framing_errors", float64(f))
	r.calib[1] = probe.run() // the plane idle but standing, as at the first reading
	w.close()
	w = nil

	// A media set-up takes a third of a millisecond and varies fivefold
	// from one to the next; a couple of hundred of them (60 ms), so the
	// median is of more than scheduler luck.
	for i := 1; i < 25*r.tm.setups; i++ {
		t0 := time.Now()
		extra, err := buildMedia(p, nil)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i+1, err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		extra.close()
	}
	return nil
}

// delta reads how far a registry counter moved across the window.
func (r *run) delta(name string) float64 {
	return float64(r.b1.snap.Counters[name]) - float64(r.b0.snap.Counters[name])
}

// finish reduces the run's raw readings to named metrics, runs the
// layer probes on a traced run, and applies the output checks.
func (r *run) finish() {
	res := r.res
	ops := r.ops
	perOp := func(v float64) float64 {
		if ops <= 0 {
			return 0
		}
		return v / ops
	}

	// End to end.
	opsPerSec, cpuPerOp, rates := medianOfSlices(r.m.slices)
	res.rates = rates
	for _, s := range r.m.slices {
		if s.ops > 0 {
			res.cpus = append(res.cpus, s.cpuUS/s.ops)
		}
	}
	r.set("setup_s", median(r.setups))
	res.setups = r.setups
	r.set("ops_per_sec", opsPerSec)
	r.set("cpu_us_per_op", cpuPerOp)
	lat := r.latencySS.sorted()
	res.samples = len(lat)
	r.set("latency_p50_us", quantile(lat, 0.5)/1e3)
	r.set("allocs_per_op", perOp(float64(r.b1.ms.Mallocs-r.b0.ms.Mallocs)))
	r.set("alloc_bytes_per_op", perOp(float64(r.b1.ms.TotalAlloc-r.b0.ms.TotalAlloc)))
	r.set("heap_live_mb", (r.heapLive-r.harnessBytes)/(1<<20))

	// The harness and the runtime.
	p99 := 0.99
	if tp := tailPercentile(len(lat)); tp < p99 {
		p99 = tp // too few samples for a p99: the highest percentile the sample supports
	}
	r.set("load.latency_p99_us", quantile(lat, p99)/1e3)
	if r.genLagSS != nil {
		r.set("load.gen_lag_p99_us", r.genLagSS.pct(0.99)/1e3)
		r.genLagP95US = r.genLagSS.pct(0.95) / 1e3
	}
	r.set("load.slice_iqr_ratio", iqrRatio(rates))
	r.set("load.host_calib_ms", r.calib[0])
	if r.calib[0] > 0 {
		r.set("load.host_drift_ratio", r.calib[1]/r.calib[0])
	}
	wall := r.b1.at.Sub(r.b0.at).Seconds()
	cpuTotal := 0.0
	for _, s := range r.m.slices {
		cpuTotal += s.cpuUS
	}
	r.set("load.cpu_busy_ratio", cpuTotal/1e6/wall/float64(r.spec.procs))
	r.set("runtime.gc_per_sec", float64(r.b1.rt.gcCycles-r.b0.rt.gcCycles)/wall)
	if d := r.b1.rt.totalCPU - r.b0.rt.totalCPU; d > 0 {
		r.set("runtime.gc_cpu_fraction", (r.b1.rt.gcCPU-r.b0.rt.gcCPU)/d)
	}
	r.set("runtime.sched_latency_p50_us", schedLatencyP50US(r.b0.rt, r.b1.rt))

	// Layers, from the registry: counts across the window, high-water
	// marks since process start (the paced parking ramp included).
	g := r.b1.snap.Gauges
	r.set("box.events_per_op", perOp(r.delta(box.MetricLoopIterations)))
	r.set("box.inbox_depth_hwm", float64(g[box.MetricInboxDepth].HighWater))
	r.set("box.goroutines_peak", float64(r.m.goroPeak))
	r.set("sig.wire_bytes_per_op", perOp(r.delta(transport.MetricBytesOut)))
	r.set("transport.queue_depth_hwm", float64(g[transport.MetricQueueDepth].HighWater))
	r.set("transport.send_queue_depth_hwm", float64(g[transport.MetricSendQueueDepth].HighWater))
	r.set("transport.retransmits", r.delta(slot.MetricRetransmits))
	r.set("transport.reconnects", r.delta(transport.MetricReconnects))
	r.set("transport.mux_drops", r.delta(transport.MetricMuxDrops))
	r.set("transport.backlog_dropped", r.delta(transport.MetricBacklogDropped))
	r.set("timerwheel.pending_hwm", float64(g[timerwheel.MetricPending].HighWater))
	r.set("store.lookups_per_op", perOp(r.delta(store.MetricLookups)))
	r.set("store.lookup_miss", r.delta(store.MetricLookupMiss))
	if cdrs := r.delta(store.MetricCDRAppends); cdrs > 0 {
		r.set("store.fsyncs_per_1k_cdr", r.delta(store.MetricWALFsyncs)/cdrs*1000)
	}
	if r.spec.media != nil {
		r.set("media.round_us_p50", quantile(lat, 0.5)/1e3)
	}

	if r.tr != nil {
		r.traced()
	}
	r.check()

	// The reported set: end-to-end untraced, per-layer traced.
	defs := endToEnd
	if r.cfg.trace {
		defs = perLayer
	}
	res.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: res.all[d.name], Unit: d.unit}
	}
	res.Correct = len(res.violations) == 0
}

// traced adds what only the decorators and probes can see.
func (r *run) traced() {
	tr := r.tr
	perTraced := func(v float64) float64 {
		if r.tracedOps <= 0 {
			return 0
		}
		return v / r.tracedOps
	}
	off, on := r.m.slices[:r.tm.offSlice], r.m.slices[r.tm.offSlice:]
	_, cpuOff, _ := medianOfSlices(off)
	_, cpuOn, _ := medianOfSlices(on)
	if cpuOff > 0 {
		r.set("load.trace_overhead_ratio", cpuOn/cpuOff)
	}
	st := tr.statsByKind()
	if r.spec.media != nil {
		if n := tr.muxN.Load(); n > 0 {
			r.set("ts.mux_ns_per_burst", float64(tr.muxNS.Load())/float64(n))
		}
		if n := tr.demuxN.Load(); n > 0 {
			r.set("ts.demux_ns_per_burst", float64(tr.demuxNS.Load())/float64(n))
		}
	} else {
		r.set("transport.envelopes_per_op", perTraced(float64(tr.envelopes.Load())))
		r.set("slot.signals_per_op", perTraced(float64(tr.signals.Load())))
		r.set("transport.hop_us_p50", st[spHop].P50US)
		r.set("box.hop_us_p50", st[spBoxHop].P50US)
		r.set("transport.dial_us_p50", st[spDial].P50US)
		r.set("transport.send_ns_p50", tr.sendNS.pct(0.5))
		r.set("store.lookup_ns_p50", tr.lookupNS.pct(0.5))
		r.set("store.append_cdr_ns_p50", tr.appendNS.pct(0.5))
	}
	byCall := tr.callSpans()
	var median *callTree
	if r.spec.calls != nil {
		if id, tile := tr.medianCallTiling(byCall); id != 0 {
			tree := buildTree(id, byCall[id])
			tree.TileRatio = tile
			median = &tree
			r.set("load.span_tile_ratio", tile)
		}
	}
	r.probes()
	if err := tr.writeFile(r, st, byCall, median); err != nil {
		r.res.violations = append(r.res.violations, "trace file: "+err.Error())
	}
}

// check applies the output checks that need the reduced metrics.
func (r *run) check() {
	res := r.res
	bad := func(format string, args ...any) {
		res.violations = append(res.violations, fmt.Sprintf(format, args...))
	}
	if r.ops <= 0 {
		bad("no operation completed inside the window")
	}
	if n := r.latencySS.dropped.Load(); n > 0 {
		bad("%d latency samples dropped: sample buffer too small", n)
	}
	if c := r.spec.calls; c != nil {
		// The sandbox freezes the whole process for 20–40 ms a dozen times
		// in a window; every call due in a freeze is issued late, which
		// alone puts ~1.5 % of calls (and so the p99) at 5–20 ms. A late
		// generator is one that is late outside those freezes: the check
		// is on the 95th percentile, the report still carries the p99.
		if !c.closedLoop && !r.cfg.smoke && r.genLagP95US > 5000 {
			bad("generator ran late: 5 %% of calls were issued more than 5 ms late (p95 %.0f µs), so the schedule, not the program, set the latency", r.genLagP95US)
		}
		if n := res.all["store.lookup_miss"]; n > 0 {
			bad("%.0f registry lookups missed", n)
		}
		// Bypass predictions: what a workload must not touch.
		if !c.mux && res.all["sig.wire_bytes_per_op"] > 0 {
			bad("ring workload put %.0f bytes per op on a wire", res.all["sig.wire_bytes_per_op"])
		}
		if c.subscribers == 0 && res.all["store.lookups_per_op"] > 0 {
			bad("store-less workload made registry lookups")
		}
		if r.tr != nil && !r.cfg.smoke && !c.mux && !c.closedLoop {
			if tile := res.all["load.span_tile_ratio"]; tile < 0.95 || tile > 1.05 {
				bad("median call's spans cover %.3f of its setup, want within 5 %%", tile)
			}
		}
	}
}
