// tsstorm is the MPEG-TS integrity harness: it streams paced TS-framed
// media through N loopback flows and verifies the container survives
// the trip — every burst demuxes with intact sync bytes, per-PID
// continuity, PSI CRC32s, and PES headers. On a clean wire (a paced
// rate well under capacity) the gate is strict: zero CRC errors, zero
// continuity discontinuities, zero framing drops; make ts-smoke runs
// it that way in CI. It also reports PCR jitter percentiles — how far
// the receive clock spacing drifts from the 27 MHz program clock.
//
// Usage:
//
//	tsstorm [-agents 8] [-rate 50] [-duration 2s] [-gate] [-out FILE]
package main

import (
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

type result struct {
	Date       string `json:"date"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Agents     int    `json:"agents"`
	RatePPS    int    `json:"rate_per_flow_pps"`
	WindowMS   int64  `json:"window_ms"`

	Sent          uint64 `json:"packets_sent"`
	Accepted      uint64 `json:"packets_accepted"`
	FramingErrors uint64 `json:"framing_errors"`

	TSPackets          uint64  `json:"ts_packets"`
	PSISections        uint64  `json:"ts_psi_sections"`
	CRCErrors          uint64  `json:"ts_crc_errors"`
	CCDiscontinuities  uint64  `json:"ts_cc_discontinuities"`
	PCRJitterP50US     float64 `json:"pcr_jitter_p50_us"`
	PCRJitterP95US     float64 `json:"pcr_jitter_p95_us"`
	PCRJitterP99US     float64 `json:"pcr_jitter_p99_us"`
	AllocsPerPacket    float64 `json:"allocs_per_packet"`
	PayloadBytesPerPkt int     `json:"payload_bytes"`
}

func main() {
	agents := flag.Int("agents", 8, "flowing TS media paths (transmitter/receiver pairs)")
	rate := flag.Int("rate", 50, "paced per-flow pps (20ms bursts at 50)")
	duration := flag.Duration("duration", 2*time.Second, "streaming window")
	gate := flag.Bool("gate", false, "exit non-zero on any integrity error (CI smoke mode)")
	out := flag.String("out", "", "write the result JSON here (empty: stdout only)")
	flag.Parse()

	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)

	p := media.NewUDPPlane()
	p.SetFraming(func() media.Framing { return media.NewTSFraming() })
	defer p.Close()

	ports := freePorts(2 * *agents)
	txs := make([]*media.Agent, *agents)
	rxs := make([]*media.Agent, *agents)
	for i := 0; i < *agents; i++ {
		tx := p.Agent(fmt.Sprintf("tx%04d", i), media.AddrPort{Addr: "127.0.0.1", Port: ports[2*i]})
		rx := p.Agent(fmt.Sprintf("rx%04d", i), media.AddrPort{Addr: "127.0.0.1", Port: ports[2*i+1]})
		tx.SetSending(rx.Origin(), sig.G711)
		rx.SetExpecting(tx.Origin(), sig.G711, true)
		txs[i], rxs[i] = tx, rx
	}
	if errs := p.Errs(); len(errs) > 0 {
		fatalf("setup: %v", errs[0])
	}

	fmt.Fprintf(os.Stderr, "tsstorm: %d TS flows at %d pps each, %v window...\n", *agents, *rate, *duration)
	interval := time.Second / time.Duration(*rate)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for _, tx := range txs {
		p.StartPacer(tx, interval, 1)
	}
	time.Sleep(*duration)
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	time.Sleep(100 * time.Millisecond) // drain in-flight datagrams

	res := result{
		Date:               time.Now().Format("2006-01-02"),
		GoMaxProcs:         runtime.GOMAXPROCS(0),
		Agents:             *agents,
		RatePPS:            *rate,
		WindowMS:           elapsed.Milliseconds(),
		PayloadBytesPerPkt: media.TSPayloadSize,
	}
	for _, tx := range txs {
		res.Sent += tx.Stats().Sent
	}
	for _, rx := range rxs {
		s := rx.Stats()
		res.Accepted += s.Accepted
		res.FramingErrors += s.FramingErrors
	}
	snap := reg.Snapshot()
	res.TSPackets = snap.Counters[media.MetricTSPackets]
	res.PSISections = snap.Counters[media.MetricTSPSISections]
	res.CRCErrors = snap.Counters[media.MetricTSCRCErrors]
	res.CCDiscontinuities = snap.Counters[media.MetricTSCCDiscontinuities]
	j := snap.Histograms[media.MetricTSPCRJitter]
	res.PCRJitterP50US = float64(j.P50) / float64(time.Microsecond)
	res.PCRJitterP95US = float64(j.P95) / float64(time.Microsecond)
	res.PCRJitterP99US = float64(j.P99) / float64(time.Microsecond)
	if res.Sent > 0 {
		res.AllocsPerPacket = float64(ms1.Mallocs-ms0.Mallocs) / float64(res.Sent)
	}

	if _, err := storm.WriteReport(res, *out); err != nil {
		fatalf("%v", err)
	}

	if res.Sent == 0 || res.Accepted == 0 {
		fatalf("no TS media moved (sent %d, accepted %d)", res.Sent, res.Accepted)
	}
	if *gate {
		if res.CRCErrors != 0 || res.CCDiscontinuities != 0 || res.FramingErrors != 0 {
			fatalf("integrity gate failed: %d crc errors, %d cc discontinuities, %d framing drops on a clean wire",
				res.CRCErrors, res.CCDiscontinuities, res.FramingErrors)
		}
		fmt.Fprintf(os.Stderr, "tsstorm: gate passed: %d bursts (%d TS packets) clean\n", res.Accepted, res.TSPackets)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tsstorm: "+format+"\n", args...)
	os.Exit(1)
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
