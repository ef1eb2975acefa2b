// mediastorm is the load harness for the media plane: it brings up N
// flowing media paths (transmitter/receiver agent pairs wired the way
// the signaling stack wires them after a successful open/select
// exchange), streams paced media through them, and reports throughput,
// allocation cost, clipping, and delivery jitter, optionally as a JSON
// artifact (BENCH_media.json via make bench-media).
//
// Two carriers are measured: the in-memory Plane (mem) and the
// persistent-socket batched UDP pipeline (udp, driven by per-agent
// pacers).
//
// The framed legs measure what the MPEG-TS container costs on the
// same pipeline: udp_ts muxes and demux-validates a 7×188-byte TS
// burst per packet, udp_opaque moves the same 1316 bytes with no
// container — the fair baseline, since the header-only legs above
// send ~30-byte datagrams. ts_pps_ratio_vs_opaque is the acceptance
// number (≥0.85 = at most a 15% pps penalty).
//
// Usage:
//
//	mediastorm [-agents N] [-plane all|mem|udp] [-rate PPS]
//	           [-framing none|ts|opaque] [-duration 3s]
//	           [-batch auto|on|off] [-out BENCH_media.json]
//
// -framing selects the payload for the explicit -plane udp run;
// -plane all always appends the udp_opaque and udp_ts legs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"ipmedia/internal/media"
	"ipmedia/internal/sig"
	"ipmedia/internal/storm"
	"ipmedia/internal/telemetry"
)

type runResult struct {
	Plane   string `json:"plane"` // mem | udp | udp_opaque | udp_ts
	BatchIO bool   `json:"batch_io"`
	Agents  int    `json:"agents"`  // flowing pairs
	Framing string `json:"framing"` // none | opaque | ts
	Payload int    `json:"payload_bytes"`

	WindowMS     int64  `json:"window_ms"`
	Sent         uint64 `json:"packets_sent"`
	Accepted     uint64 `json:"packets_accepted"`
	Clipped      uint64 `json:"packets_clipped"`
	Unexpected   uint64 `json:"packets_unexpected"`
	DecodeErrors uint64 `json:"decode_errors"`

	// The actual offered rate, from packets really sent — not the -rate
	// target, which a saturated sender may never reach.
	RatePerFlowPPS float64 `json:"rate_per_flow_pps"`

	PPSOut          float64 `json:"pps_out"`
	PPSIn           float64 `json:"pps_in"`
	ClipRate        float64 `json:"clip_rate"`
	AllocsPerPacket float64 `json:"allocs_per_packet"`

	JitterP50US float64 `json:"jitter_p50_us"`
	JitterP95US float64 `json:"jitter_p95_us"`
	JitterP99US float64 `json:"jitter_p99_us"`

	// Framed-leg integrity counters (zero on a clean paced wire;
	// saturation loss surfaces here as discontinuities).
	FramingErrors       uint64 `json:"framing_errors,omitempty"`
	TSCRCErrors         uint64 `json:"ts_crc_errors,omitempty"`
	TSCCDiscontinuities uint64 `json:"ts_cc_discontinuities,omitempty"`
}

type report struct {
	Date           string `json:"date"`
	GoMaxProcs     int    `json:"gomaxprocs"`
	NumCPU         int    `json:"num_cpu"`
	BatchSupported bool   `json:"batch_io_supported"`
	Agents         int    `json:"agents"`
	RateTarget     int    `json:"rate_per_flow_target_pps"` // the -rate flag; per-run rate_per_flow_pps is the actual

	Runs []runResult `json:"runs"`

	// udp_ts pps over udp_opaque pps at the same payload size: the
	// container's cost. Acceptance is ≥0.85 (≤15% penalty).
	TSPPSRatioVsOpaque float64 `json:"ts_pps_ratio_vs_opaque,omitempty"`
}

func main() {
	agents := flag.Int("agents", 32, "flowing media paths (transmitter/receiver pairs)")
	plane := flag.String("plane", "all", "carriers to measure: all, mem, udp")
	rate := flag.Int("rate", 0, "per-flow target pps on the paced UDP run (0: saturate)")
	framing := flag.String("framing", "none", "payload framing for the -plane udp run: none, ts, opaque")
	duration := flag.Duration("duration", 3*time.Second, "measurement window per carrier")
	batch := flag.String("batch", "auto", "UDP batched syscall path: auto, on, off")
	out := flag.String("out", "", "write the result JSON here (empty: stdout only)")
	flag.Parse()

	if _, ok := media.NewFramingFactory(*framing); !ok {
		fatalf("unknown framing %q", *framing)
	}

	rep := report{
		Date:           time.Now().Format("2006-01-02"),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		BatchSupported: media.NewUDPPlane().BatchIO(),
		Agents:         *agents,
		RateTarget:     *rate,
	}

	want := func(name string) bool { return *plane == "all" || *plane == name }
	if want("mem") {
		rep.Runs = append(rep.Runs, runMem(*agents, *duration))
	}
	if want("udp") {
		rep.Runs = append(rep.Runs, runUDP(*agents, *duration, *rate, *batch, *framing))
	}
	if *plane == "all" {
		// The framed-vs-opaque pair: equal payload sizes, so the ratio
		// isolates the container's mux+demux cost.
		rep.Runs = append(rep.Runs, runUDP(*agents, *duration, *rate, *batch, "opaque"))
		rep.Runs = append(rep.Runs, runUDP(*agents, *duration, *rate, *batch, "ts"))
	}

	var udpTS, udpOpaque float64
	for _, r := range rep.Runs {
		switch r.Plane {
		case "udp_ts":
			udpTS = r.PPSOut
		case "udp_opaque":
			udpOpaque = r.PPSOut
		}
	}
	if udpOpaque > 0 {
		rep.TSPPSRatioVsOpaque = udpTS / udpOpaque
	}

	if _, err := storm.WriteReport(rep, *out); err != nil {
		fatalf("%v", err)
	}
	for _, r := range rep.Runs {
		if r.Sent == 0 {
			fatalf("carrier %s moved no packets", r.Plane)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mediastorm: "+format+"\n", args...)
	os.Exit(1)
}

// freshTelemetry installs a new registry so each run's counters and
// jitter histogram start from zero, and returns it.
func freshTelemetry() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	return reg
}

// runMem blasts Tick-driven media through n in-memory pairs.
func runMem(n int, dur time.Duration) runResult {
	freshTelemetry()
	p := media.NewPlane()
	txs := make([]*media.Agent, n)
	for i := 0; i < n; i++ {
		tx := p.Agent(fmt.Sprintf("tx%04d", i), media.AddrPort{Addr: fmt.Sprintf("h%d", i), Port: 1})
		rx := p.Agent(fmt.Sprintf("rx%04d", i), media.AddrPort{Addr: fmt.Sprintf("h%d", i), Port: 2})
		tx.SetSending(rx.Origin(), sig.G711)
		rx.SetExpecting(tx.Origin(), sig.G711, true)
		txs[i] = tx
	}
	fmt.Fprintf(os.Stderr, "mediastorm: mem: %d pairs, %v window...\n", n, dur)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for time.Since(t0) < dur {
		p.Tick(16)
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	res := collect("mem", false, n, elapsed, txs, nil, nil)
	res.Framing = "none"
	if res.Sent > 0 {
		res.AllocsPerPacket = float64(ms1.Mallocs-ms0.Mallocs) / float64(res.Sent)
	}
	return res
}

// runUDP streams media through n loopback pairs: per-agent pacers over
// the persistent-socket batched pipeline. framing selects the payload
// each packet carries ("none" for the header-only leg).
func runUDP(n int, dur time.Duration, rate int, batch string, framing string) runResult {
	reg := freshTelemetry()
	p := media.NewUDPPlane()
	defer p.Close()
	switch batch {
	case "on":
		p.SetBatchIO(true)
	case "off":
		p.SetBatchIO(false)
	}
	name := "udp"
	factory, _ := media.NewFramingFactory(framing)
	if factory != nil {
		name += "_" + framing
		p.SetFraming(factory)
	}

	ports := freePorts(2 * n)
	txs := make([]*media.Agent, n)
	rxs := make([]*media.Agent, n)
	for i := 0; i < n; i++ {
		tx := p.Agent(fmt.Sprintf("tx%04d", i), media.AddrPort{Addr: "127.0.0.1", Port: ports[2*i]})
		rx := p.Agent(fmt.Sprintf("rx%04d", i), media.AddrPort{Addr: "127.0.0.1", Port: ports[2*i+1]})
		tx.SetSending(rx.Origin(), sig.G711)
		rx.SetExpecting(tx.Origin(), sig.G711, true)
		txs[i] = tx
		rxs[i] = rx
	}
	if errs := p.Errs(); len(errs) > 0 {
		fatalf("udp setup: %v", errs[0])
	}

	fmt.Fprintf(os.Stderr, "mediastorm: %s: %d pairs, batch_io=%v, %v window...\n",
		name, n, p.BatchIO(), dur)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	// One pacer per transmitting agent. rate 0 saturates: a short
	// interval with a full staging batch per tick.
	interval, perTick := 100*time.Microsecond, 128
	if rate > 0 {
		interval = 5 * time.Millisecond
		perTick = rate / 200 // packets per 5ms tick
		if perTick < 1 {
			perTick = 1
			interval = time.Second / time.Duration(rate)
		}
	}
	for _, tx := range txs {
		p.StartPacer(tx, interval, perTick)
	}
	time.Sleep(dur)
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	// Let in-flight datagrams drain before the final receive counts.
	time.Sleep(200 * time.Millisecond)
	res := collect(name, p.BatchIO(), n, elapsed, txs, rxs, reg)
	res.Framing = framing
	if factory != nil {
		res.Payload = factory().PayloadSize()
	}
	if res.Sent > 0 {
		res.AllocsPerPacket = float64(ms1.Mallocs-ms0.Mallocs) / float64(res.Sent)
	}
	for _, err := range p.Errs() {
		// A framed saturated run legitimately loses datagrams (counted as
		// discontinuities); only non-framing errors are fatal.
		if errors.Is(err, media.ErrFraming) {
			continue
		}
		fatalf("%s run: %v", name, err)
	}
	return res
}

// collect sums the pair stats into one carrier result. reg supplies
// decode-error and jitter numbers for the UDP runs (nil for mem);
// rxs (when given) supplies per-receiver framing-error counts.
func collect(name string, batchIO bool, n int, elapsed time.Duration, txs, rxs []*media.Agent, reg *telemetry.Registry) runResult {
	res := runResult{Plane: name, BatchIO: batchIO, Agents: n, WindowMS: elapsed.Milliseconds()}
	for _, tx := range txs {
		res.Sent += tx.Stats().Sent
	}
	for _, rx := range rxs {
		res.FramingErrors += rx.Stats().FramingErrors
	}
	snap := telemetry.Default().Snapshot()
	in := snap.Counters[media.MetricPacketsIn]
	res.Clipped = snap.Counters[media.MetricClipped]
	res.DecodeErrors = snap.Counters[media.MetricDecodeErrors]
	res.TSCRCErrors = snap.Counters[media.MetricTSCRCErrors]
	res.TSCCDiscontinuities = snap.Counters[media.MetricTSCCDiscontinuities]
	// The harness wires no strangers, so everything received is either
	// accepted or clipped.
	res.Accepted = in - res.Clipped
	secs := elapsed.Seconds()
	res.PPSOut = float64(res.Sent) / secs
	res.PPSIn = float64(in) / secs
	res.RatePerFlowPPS = res.PPSOut / float64(n)
	if in > 0 {
		res.ClipRate = float64(res.Clipped) / float64(in)
	}
	if reg != nil {
		j := snap.Histograms[media.MetricJitter]
		res.JitterP50US = float64(j.P50) / float64(time.Microsecond)
		res.JitterP95US = float64(j.P95) / float64(time.Microsecond)
		res.JitterP99US = float64(j.P99) / float64(time.Microsecond)
	}
	return res
}

// freePorts grabs n currently-free loopback UDP ports by binding them
// all at once, then releasing them for the plane's agents to re-bind.
func freePorts(n int) []int {
	conns := make([]*net.UDPConn, 0, n)
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.ParseIP("127.0.0.1")})
		if err != nil {
			fatalf("probing free ports: %v", err)
		}
		conns = append(conns, c)
		ports = append(ports, c.LocalAddr().(*net.UDPAddr).Port)
	}
	for _, c := range conns {
		c.Close()
	}
	return ports
}
