// Benchmarks regenerating every quantitative result in the paper's
// evaluation (the E1–E12 experiment index in DESIGN.md), plus
// microbenchmarks of the protocol engines. Latency experiments run on
// the virtual clock and report the measured virtual latency as a
// custom "ms_latency" metric — wall-clock ns/op measures only how fast
// the simulation runs, not the protocol.
package ipmedia_test

import (
	"testing"
	"time"

	"ipmedia"
	"ipmedia/internal/core"
	"ipmedia/internal/lab"
	"ipmedia/internal/mc"
	"ipmedia/internal/mcmodel"
	"ipmedia/internal/scenario"
	"ipmedia/internal/sig"
	"ipmedia/internal/slot"
	"ipmedia/internal/telemetry"
	"ipmedia/internal/transport"
)

// BenchmarkE1NaivePathology runs the full Figure 2 story per
// iteration: establishment plus the three pathological snapshots under
// uncoordinated servers.
func BenchmarkE1NaivePathology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := scenario.NewPrepaid()
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Establish(); err != nil {
			b.Fatal(err)
		}
		p.GoNaive()
		if _, err := p.RunNaive(); err != nil {
			b.Fatal(err)
		}
		p.Stop()
	}
}

// BenchmarkE2PrepaidCorrect runs the full Figure 3 story per
// iteration: establishment plus all four compositional snapshots.
func BenchmarkE2PrepaidCorrect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := scenario.NewPrepaid()
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Establish(); err != nil {
			b.Fatal(err)
		}
		if _, err := p.RunCorrect(); err != nil {
			b.Fatal(err)
		}
		p.Stop()
	}
}

// BenchmarkE3ProtocolScenario drives the Figure 10 protocol scenario —
// open, oack, selects, modify (describe/select), close, closeack —
// through two real slots per iteration.
func BenchmarkE3ProtocolScenario(b *testing.B) {
	dl := &sig.Descriptor{ID: sig.DescID{Origin: "L", Seq: 1}, Addr: "l", Port: 1, Codecs: []sig.Codec{sig.G711}}
	dl2 := &sig.Descriptor{ID: sig.DescID{Origin: "L", Seq: 2}, Addr: "l", Port: 1, Codecs: []sig.Codec{sig.G726}}
	dr := &sig.Descriptor{ID: sig.DescID{Origin: "R", Seq: 1}, Addr: "r", Port: 2, Codecs: []sig.Codec{sig.G711, sig.G726}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l, r := slot.New("l", true), slot.New("r", false)
		step := func(dir bool, g sig.Signal) {
			var err error
			if dir {
				if err = l.Send(g); err == nil {
					_, err = r.Receive(g)
				}
			} else {
				if err = r.Send(g); err == nil {
					_, err = l.Receive(g)
				}
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		step(true, sig.Open(sig.Audio, dl))
		step(false, sig.Oack(dr))
		step(false, sig.Select(sig.Selector{Answers: dl.ID, Addr: "r", Port: 2, Codec: sig.G711}))
		step(true, sig.Select(sig.Selector{Answers: dr.ID, Addr: "l", Port: 1, Codec: sig.G711}))
		step(true, sig.Describe(dl2)) // modify
		step(false, sig.Select(sig.Selector{Answers: dl2.ID, Addr: "r", Port: 2, Codec: sig.G726}))
		step(true, sig.Close())
		step(false, sig.CloseAck())
	}
}

// BenchmarkE4ClickToDial runs the Figure 6 happy path per iteration.
func BenchmarkE4ClickToDial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net := ipmedia.NewMemNetwork()
		plane := ipmedia.NewMediaPlane()
		p1, _ := ipmedia.NewDevice(ipmedia.DeviceConfig{Name: "p1", Net: net, Plane: plane, MediaPort: 5004})
		p2, _ := ipmedia.NewDevice(ipmedia.DeviceConfig{Name: "p2", Net: net, Plane: plane, MediaPort: 5006})
		tone, _ := ipmedia.NewToneGenerator("tone", net, plane)
		ctd, done, err := ipmedia.NewClickToDial(net, ipmedia.ClickToDialConfig{
			User1Addr: "p1", User2Addr: "p2", ToneAddr: "tone",
		})
		if err != nil {
			b.Fatal(err)
		}
		waitB(b, func() bool { return len(p1.Ringing()) == 1 })
		p1.Answer("in0")
		waitB(b, func() bool { return len(p2.Ringing()) == 1 })
		p2.Answer("in0")
		waitB(b, func() bool { return plane.HasFlow("p1", "p2") && plane.HasFlow("p2", "p1") })
		p2.HangUp("in0")
		<-done
		ctd.Stop()
		p1.Stop()
		p2.Stop()
		tone.Stop()
	}
}

// BenchmarkE5Conference joins three devices to a bridge per iteration
// and waits for the full media mesh.
func BenchmarkE5Conference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net := ipmedia.NewMemNetwork()
		plane := ipmedia.NewMediaPlane()
		br, err := ipmedia.NewBridge("bridge", net, plane)
		if err != nil {
			b.Fatal(err)
		}
		var devs []*ipmedia.Device
		for j := 0; j < 3; j++ {
			d, _ := ipmedia.NewDevice(ipmedia.DeviceConfig{
				Name: string(rune('A' + j)), Net: net, Plane: plane, MediaPort: 5004 + 2*j,
			})
			devs = append(devs, d)
			if err := d.Call("conf", "bridge", ipmedia.Audio); err != nil {
				b.Fatal(err)
			}
		}
		waitB(b, func() bool { return len(plane.Flows()) == 6 })
		for _, d := range devs {
			d.Stop()
		}
		br.Stop()
	}
}

// BenchmarkE6CollabTV creates a movie session with five tunnels,
// plays, and splits off a second session per iteration.
func BenchmarkE6CollabTV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net := ipmedia.NewMemNetwork()
		plane := ipmedia.NewMediaPlane()
		ms, err := ipmedia.NewMovieServer("movies", net, plane)
		if err != nil {
			b.Fatal(err)
		}
		ctl := ipmedia.NewRunner(ipmedia.NewBox("ctl", ipmedia.ServerProfile{Name: "ctl"}), net)
		if err := ctl.Connect("m", "movies"); err != nil {
			b.Fatal(err)
		}
		ctl.Do(func(ctx *ipmedia.Ctx) {
			ctx.SendMeta("m", ipmedia.Meta{Kind: ipmedia.MetaApp, App: "watch", Attrs: ipmedia.NewAttrs("movie", "x", "pos", "0")})
			ctx.SendMeta("m", ipmedia.Meta{Kind: ipmedia.MetaApp, App: "play"})
		})
		waitB(b, func() bool {
			s, ok := ms.Session("in0")
			return ok && s.Playing
		})
		ctl.Stop()
		ms.Stop()
	}
}

// BenchmarkE7ModelCheckSuite verifies all twelve Section VIII-A path
// models per iteration (default chaos budgets) and reports the total
// explored states.
func BenchmarkE7ModelCheckSuite(b *testing.B) {
	var states int
	for i := 0; i < b.N; i++ {
		states = 0
		for _, v := range mcmodel.Suite(mc.Options{}) {
			if !v.OK() {
				b.Fatalf("%s failed: %v %v", v.Config.Name(), v.Safety, v.Liveness)
			}
			states += v.Result.States
		}
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkE8FlowlinkBlowup measures the verification-cost blow-up of
// adding one flowlink (paper Section VIII-A: x300 memory, x1000 time
// on its Spin models) at equal chaos budgets, reporting the state
// ratio.
func BenchmarkE8FlowlinkBlowup(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		base := mcmodel.Check(mcmodel.Config{Left: mcmodel.Open, Right: mcmodel.Hold, Flowlinks: 0, ChaosBudget: 2}, mc.Options{})
		link := mcmodel.Check(mcmodel.Config{Left: mcmodel.Open, Right: mcmodel.Hold, Flowlinks: 1, ChaosBudget: 2}, mc.Options{})
		if !base.OK() || !link.OK() {
			b.Fatal("verification failed")
		}
		ratio = float64(link.Result.States) / float64(base.Result.States)
	}
	b.ReportMetric(ratio, "state_ratio")
}

// BenchmarkE9Fig13Latency measures the compositional protocol's
// concurrent-relink latency on the virtual clock (paper: 2n+3c =
// 128 ms).
func BenchmarkE9Fig13Latency(b *testing.B) {
	var r lab.Row
	var err error
	for i := 0; i < b.N; i++ {
		r, err = lab.Fig13(lab.PaperC, lab.PaperN)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Match() {
			b.Fatalf("formula mismatch: %s", r)
		}
	}
	b.ReportMetric(float64(r.Measured.Milliseconds()), "ms_latency")
}

// BenchmarkE10PathSweep measures pn+(p+1)c for p = 1..8.
func BenchmarkE10PathSweep(b *testing.B) {
	var last lab.Row
	for i := 0; i < b.N; i++ {
		rows, err := lab.PathSweep(lab.PaperC, lab.PaperN, 8)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Match() {
				b.Fatalf("formula mismatch: %s", r)
			}
		}
		last = rows[len(rows)-1]
	}
	b.ReportMetric(float64(last.Measured.Milliseconds()), "ms_latency_p8")
}

// BenchmarkE11SIPComparison measures the SIP baseline: the common case
// (paper: 378 ms vs our 128 ms) and the glare case (10n+11c+d).
func BenchmarkE11SIPComparison(b *testing.B) {
	var common, glare lab.Row
	for i := 0; i < b.N; i++ {
		var err error
		common, err = lab.SIPCommon(lab.PaperC, lab.PaperN)
		if err != nil {
			b.Fatal(err)
		}
		glare, _, err = lab.SIPGlare(lab.PaperC, lab.PaperN, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if !common.Match() || !glare.Match() {
			b.Fatal("formula mismatch")
		}
	}
	b.ReportMetric(float64(common.Measured.Milliseconds()), "ms_sip_common")
	b.ReportMetric(float64(glare.Measured.Milliseconds()), "ms_sip_glare")
}

// BenchmarkE12Ablations isolates SIP's three delay sources and the
// bundling penalty.
func BenchmarkE12Ablations(b *testing.B) {
	var ours, sip lab.Row
	for i := 0; i < b.N; i++ {
		rows, err := lab.Ablations(lab.PaperC, lab.PaperN, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Match() {
				b.Fatalf("formula mismatch: %s", r)
			}
		}
		ours, err = lab.BundlingOurs(lab.PaperC, lab.PaperN)
		if err != nil {
			b.Fatal(err)
		}
		sip, err = lab.BundlingSIP(lab.PaperC, lab.PaperN)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ours.Measured.Milliseconds()), "ms_bundled_ours")
	b.ReportMetric(float64(sip.Measured.Milliseconds()), "ms_bundled_sip")
}

// BenchmarkWireCodec measures the framed binary encoding of a typical
// signal.
func BenchmarkWireCodec(b *testing.B) {
	e := sig.Envelope{Tunnel: 3, Sig: sig.Open(sig.Audio, &sig.Descriptor{
		ID: sig.DescID{Origin: "device", Seq: 7}, Addr: "192.168.1.10", Port: 5004,
		Codecs: []sig.Codec{sig.G711, sig.G726},
	})}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := e.Marshal()
		if _, err := sig.UnmarshalEnvelope(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowLinkForwarding measures the flowlink engine's
// steady-state describe/select forwarding rate.
func BenchmarkFlowLinkForwarding(b *testing.B) {
	ss := benchSlots{}
	ss["a"] = slot.New("a", true)
	ss["b"] = slot.New("b", false)
	fl := core.NewFlowLink("a", "b")
	// Bring both slots to flowing by hand.
	dl := &sig.Descriptor{ID: sig.DescID{Origin: "L", Seq: 1}, Addr: "l", Port: 1, Codecs: []sig.Codec{sig.G711}}
	dr := &sig.Descriptor{ID: sig.DescID{Origin: "R", Seq: 1}, Addr: "r", Port: 2, Codecs: []sig.Codec{sig.G711}}
	if _, err := ss["a"].Receive(sig.Open(sig.Audio, dl)); err != nil {
		b.Fatal(err)
	}
	if _, err := fl.Attach(ss); err != nil {
		b.Fatal(err)
	}
	if _, err := ss["b"].Receive(sig.Oack(dr)); err != nil {
		b.Fatal(err)
	}
	if _, err := fl.OnEvent(ss, "b", slot.EvOack, sig.Oack(dr)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate fresh describes from the left and the matching
		// selects from the right.
		d := dl
		d.ID.Seq = uint32(i%2) + 2
		ev, err := ss["a"].Receive(sig.Describe(d))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fl.OnEvent(ss, "a", ev, sig.Describe(d)); err != nil {
			b.Fatal(err)
		}
		sel := sig.Selector{Answers: d.ID, Addr: "r", Port: 2, Codec: sig.G711}
		ev, err = ss["b"].Receive(sig.Select(sel))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fl.OnEvent(ss, "b", ev, sig.Select(sel)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransportRoundTrip measures envelope throughput over the
// in-memory transport.
func BenchmarkTransportRoundTrip(b *testing.B) {
	pa, pb := transport.Pipe("a", "b")
	e := sig.Envelope{Tunnel: 0, Sig: sig.Close()}
	in, buf := pb.(transport.BatchPort), make([]sig.Envelope, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pa.Send(e); err != nil {
			b.Fatal(err)
		}
		in.RecvBatch(buf)
	}
}

type benchSlots map[string]*slot.Slot

func (s benchSlots) Slot(name string) *slot.Slot { return s[name] }

func waitB(b *testing.B, pred func() bool) {
	b.Helper()
	for i := 0; i < 5000; i++ {
		if pred() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	b.Fatal("timeout in benchmark setup")
}

// BenchmarkE13MultiFlowlink verifies a two-flowlink path per iteration
// — the paper's "might take 900 Gb and 300 hours" future-work item.
func BenchmarkE13MultiFlowlink(b *testing.B) {
	var states int
	for i := 0; i < b.N; i++ {
		v := mcmodel.Check(mcmodel.Config{Left: mcmodel.Open, Right: mcmodel.Hold, Flowlinks: 2, ChaosBudget: 1}, mc.Options{})
		if !v.OK() {
			b.Fatalf("safety=%v liveness=%v", v.Safety, v.Liveness)
		}
		states = v.Result.States
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkE15MessageCounts tallies wire messages per relink for both
// protocols.
func BenchmarkE15MessageCounts(b *testing.B) {
	var m lab.MsgCounts
	for i := 0; i < b.N; i++ {
		var err error
		m, err = lab.MessageCounts(lab.PaperC, lab.PaperN, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Ours), "msgs_ours")
	b.ReportMetric(float64(m.SIPCommon), "msgs_sip_common")
	b.ReportMetric(float64(m.SIPGlare), "msgs_sip_glare")
}

// BenchmarkE17GlareWindow measures the start-offset window inside
// which two SIP operations collide; the compositional protocol never
// conflicts.
func BenchmarkE17GlareWindow(b *testing.B) {
	var res lab.GlareWindowResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = lab.GlareWindow(lab.PaperC, lab.PaperN, 400*time.Millisecond, 50*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		if res.OursConflicts != 0 {
			b.Fatal("compositional protocol conflicted")
		}
	}
	b.ReportMetric(float64(res.SIPWindow.Milliseconds()), "ms_sip_glare_window")
}

// Package-level instrument pointers for the disabled-path benchmarks:
// nil at compile time to the reader, but opaque enough that the
// compiler cannot prove it and eliminate the calls.
var (
	benchNilCounter *telemetry.Counter
	benchNilHist    *telemetry.Histogram
	benchNilGauge   *telemetry.Gauge
)

// BenchmarkTelemetry measures the instrument hot paths: counter
// increment and histogram observe when enabled, and the nil-receiver
// fast path the whole stack rides when telemetry is off. Acceptance:
// counter increment <= 25ns/op, disabled path <= 2ns/op with 0 allocs.
func BenchmarkTelemetry(b *testing.B) {
	reg := telemetry.NewRegistry()
	b.Run("CounterInc", func(b *testing.B) {
		c := reg.Counter("bench.counter")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("GaugeAdd", func(b *testing.B) {
		g := reg.Gauge("bench.gauge")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Add(1)
		}
	})
	b.Run("HistogramObserve", func(b *testing.B) {
		h := reg.Histogram("bench.hist")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(time.Duration(i&0xFFFFF) * time.Nanosecond)
		}
	})
	b.Run("DisabledCounter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchNilCounter.Inc()
		}
	})
	b.Run("DisabledHistogram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchNilHist.Observe(time.Duration(i))
		}
	})
	b.Run("DisabledTimer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchNilHist.Timer()()
		}
	})
}

// TestTelemetryDisabledZeroAlloc pins the disabled path's allocation
// contract: with no registry installed, every instrument call the
// instrumented layers make must allocate nothing.
func TestTelemetryDisabledZeroAlloc(t *testing.T) {
	if telemetry.Enabled() {
		t.Skip("default registry installed by another test")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		benchNilCounter.Inc()
		benchNilCounter.Add(3)
		benchNilGauge.Add(1)
		benchNilGauge.Set(7)
		benchNilGauge.Dec()
		benchNilHist.Observe(time.Microsecond)
		benchNilHist.Timer()()
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry path allocates %v bytes/op, want 0", allocs)
	}
}
