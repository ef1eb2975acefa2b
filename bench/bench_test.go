package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"ipmedia/internal/box"
	"ipmedia/internal/sig"
	"ipmedia/internal/telemetry"
	"ipmedia/internal/transport"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.50}, {20, 0.50}, {99, 0.50}, {100, 0.90}, {199, 0.90}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// The self-check's spread must be the spread the acceptance driver
// computes with Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 30, 20, 50}) // unsorted on purpose
	if q1 != 12.5 || q2 != 25 || q3 != 45 {
		t.Errorf("quartiles(10,30,20,50) = %v %v %v, want 12.5 25 45", q1, q2, q3)
	}
}

func TestMedianOfSlices(t *testing.T) {
	// One stalled slice (half the ops, double the CPU per op) must not
	// move either reading; an empty slice gives no CPU-per-op reading.
	ss := []slice{
		{seconds: 2, ops: 2000, cpuUS: 200000},
		{seconds: 2, ops: 1000, cpuUS: 200000},
		{seconds: 2, ops: 2020, cpuUS: 204020},
		{seconds: 2, ops: 1980, cpuUS: 196020},
		{seconds: 2, ops: 0, cpuUS: 5000},
	}
	ops, cpu, rates := medianOfSlices(ss)
	if ops != 990 {
		t.Errorf("ops/s = %v, want the median slice's 990", ops)
	}
	if math.Abs(cpu-100.5) > 1e-9 {
		t.Errorf("cpu µs/op = %v, want 100.5 (median of the four slices that completed ops)", cpu)
	}
	if len(rates) != 5 {
		t.Errorf("rates = %v, want one per slice", rates)
	}
}

func TestScheduleFromSeed(t *testing.T) {
	const rate, subs = 1000.0, 20000
	span, hold := 5*time.Second, time.Second
	a := makeSchedule(7, rate, span, hold, subs)
	if b := makeSchedule(7, rate, span, hold, subs); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if c := makeSchedule(8, rate, span, hold, subs); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same schedule")
	}
	if n := float64(len(a)); math.Abs(n-rate*span.Seconds()) > 0.02*rate*span.Seconds() {
		t.Errorf("%v calls in %v at %v/s", n, span, rate)
	}
	hot := 0
	for i, c := range a {
		if i > 0 && c.due <= a[i-1].due {
			t.Fatalf("call %d due %v is not after call %d due %v", i, c.due, i-1, a[i-1].due)
		}
		if c.due >= span {
			t.Fatalf("call %d due %v past the span", i, c.due)
		}
		if c.hold < hold*3/4 || c.hold > hold*5/4 {
			t.Fatalf("call %d holds %v, outside ±25%% of %v", i, c.hold, hold)
		}
		if c.sub < 0 || int(c.sub) >= subs {
			t.Fatalf("call %d subscriber %d out of range", i, c.sub)
		}
		if c.sub < 100 {
			hot++
		}
	}
	// Zipf: a hot head (the first 100 of 20 000 subscribers place a large
	// share of the calls) and a cold tail (most calls' subscribers differ).
	if share := float64(hot) / float64(len(a)); share < 0.3 || share > 0.8 {
		t.Errorf("hottest 100 subscribers place %.0f%% of calls", share*100)
	}
	if bs := burstSizes(3, 32, 1000); !reflect.DeepEqual(bs, burstSizes(3, 32, 1000)) {
		t.Error("burst sizes differ for one seed")
	} else {
		sum := 0
		for _, b := range bs {
			if b < 24 || b > 40 {
				t.Fatalf("burst of %d outside [24,40]", b)
			}
			sum += b
		}
		if mean := float64(sum) / float64(len(bs)); math.Abs(mean-32) > 1 {
			t.Errorf("mean burst %.1f, want 32", mean)
		}
	}
}

// smallWorld builds an open-loop ring world with no store and no
// parked population, for tests that drive the generator directly.
func smallWorld(t *testing.T, tr *tracer) *callsWorld {
	t.Helper()
	telemetry.SetDefault(telemetry.NewRegistry())
	t.Cleanup(func() { telemetry.SetDefault(nil) })
	p := callsParams{rate: 1000, meanHold: 20 * time.Millisecond, pool: 200, relays: 2, devs: 2, giveup: 2 * time.Second}
	w, err := buildCalls(p, config{seed: 1, outDir: t.TempDir()}, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.latency, w.genLag = newSamples(4096), newSamples(4096)
	w.recFrom.Store(0)
	w.recTo.Store(math.MaxInt64)
	return w
}

// An open loop times a call from when it was due, so a stall in the
// program shows up in the latency of every call that fell due during
// it — not only in the one call that was being served.
func TestDueTimeLatencyUnderStall(t *testing.T) {
	w := smallWorld(t, nil)
	defer w.close()
	const stall = 60 * time.Millisecond
	calls := makeSchedule(1, 1000, 200*time.Millisecond, 20*time.Millisecond, 0)
	start := time.Now().Add(5 * time.Millisecond)
	go func() {
		// Block the one shard loop from 50 ms into the schedule.
		time.Sleep(time.Until(start.Add(50 * time.Millisecond)))
		w.servers[0].Do(func(*box.Ctx) { time.Sleep(stall) })
	}()
	w.generate(calls, start)
	if bad := w.drain(); len(bad) > 0 {
		t.Fatal(bad)
	}
	if got, want := w.latency.count(), len(calls); got != want {
		t.Fatalf("%d latency samples for %d calls", got, want)
	}
	lat := w.latency.sorted()
	slow := 0
	for _, v := range lat {
		if v >= float64(10*time.Millisecond) {
			slow++
		}
	}
	// About stall-10ms worth of calls (one per ms) waited 10 ms or more.
	if slow < 35 {
		t.Errorf("%d calls saw ≥10 ms; a %v stall at 1000 calls/s should delay about 50", slow, stall)
	}
	if max := lat[len(lat)-1]; max < float64(stall)*0.8 {
		t.Errorf("slowest call %v, want about the %v stall", time.Duration(max), stall)
	}
	if w.failed.Load() != 0 {
		t.Errorf("%d calls failed", w.failed.Load())
	}
}

// The port decorator must leave the delivery path alone: a decorated
// ring port is still an InlinePort (drained inline by the shard loop,
// no pump goroutine) and a decorated queue port still a BatchPort.
func TestPortDecoratorTransparency(t *testing.T) {
	tr := newTracer()
	for _, c := range []struct {
		name   string
		net    transport.Network
		inline bool
	}{
		{"ring", transport.NewRingMemNetwork(), true},
		{"mem", transport.NewMemNetwork(), false},
	} {
		n := tr.wrapNet(c.net)
		l, err := n.Listen("svc")
		if err != nil {
			t.Fatal(err)
		}
		near, err := n.Dial("svc")
		if err != nil {
			t.Fatal(err)
		}
		far, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		for end, p := range map[string]transport.Port{"dial": near, "accept": far} {
			_, inline := p.(transport.InlinePort)
			_, batch := p.(transport.BatchPort)
			if inline != c.inline || batch == c.inline {
				t.Errorf("%s %s end: InlinePort=%v BatchPort=%v", c.name, end, inline, batch)
			}
		}
		// Envelopes cross unchanged, in order, with tracing on.
		tr.on.Store(true)
		want := []sig.Envelope{
			{Meta: &sig.Meta{Kind: sig.MetaSetup, Attrs: sig.NewAttrs("chan", "c", "from", "x")}},
			{Tunnel: 0, Sig: sig.Close()},
			{Tunnel: 3, Sig: sig.CloseAck()},
		}
		for _, e := range want {
			if err := near.Send(e); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]sig.Envelope, 8)
		k := 0
		if ip, ok := far.(transport.InlinePort); ok {
			ip.SetReady(func() {})
			k, _ = ip.TryRecvBatch(got)
		} else {
			for k < len(want) {
				m, _ := far.(transport.BatchPort).RecvBatch(got[k:])
				k += m
			}
		}
		if k != len(want) {
			t.Fatalf("%s: received %d of %d envelopes", c.name, k, len(want))
		}
		for i := range want {
			if got[i].Tunnel != want[i].Tunnel || got[i].Sig.Kind != want[i].Sig.Kind || got[i].Meta != want[i].Meta {
				t.Errorf("%s: envelope %d arrived as %v, sent %v", c.name, i, got[i], want[i])
			}
		}
		tr.on.Store(false)
		near.Close()
		l.Close()
	}
}

// A call's blocking chain must tile its setup span exactly: the hops
// share their end instants with the spans on either side.
func TestBlockingChainTiles(t *testing.T) {
	spans := []span{
		{call: 1, kind: spSetup, role: roleClient, start: 100, end: 1000},
		{call: 1, kind: spBoxHop, role: roleClient, start: 100, end: 150}, // dial → first send
		{call: 1, kind: spBoxHop, role: roleClient, start: 100, end: 160}, // a second send, off the blocking path
		{call: 1, kind: spHop, role: roleRelay, start: 150, end: 300},
		{call: 1, kind: spHop, role: roleRelay, start: 160, end: 300}, // same burst, same receive instant
		{call: 1, kind: spBoxHop, role: roleRelay, start: 300, end: 340},
		{call: 1, kind: spHop, role: roleDevice, start: 340, end: 500},
		{call: 1, kind: spBoxHop, role: roleDevice, start: 500, end: 520},
		{call: 1, kind: spHop, role: roleRelay, start: 520, end: 700},
		{call: 1, kind: spBoxHop, role: roleRelay, start: 700, end: 710},
		{call: 1, kind: spHop, role: roleClient, start: 710, end: 990},
		{call: 1, kind: spBoxHop, role: roleClient, start: 990, end: 1000}, // receive → flowing
	}
	setup, chain, ok := blockingChain(spans)
	if !ok {
		t.Fatal("no setup span found")
	}
	var sum int64
	for _, s := range chain {
		sum += s.end - s.start
	}
	if sum != setup.end-setup.start {
		t.Errorf("chain covers %d of a %d setup: %+v", sum, setup.end-setup.start, chain)
	}
	if len(chain) != 9 {
		t.Errorf("chain has %d spans, want 9 (5 box hops, 4 transport hops)", len(chain))
	}
	tree := buildTree(1, spans)
	for i, s := range tree.Spans {
		if s.Name != "setup" && s.Parent < 0 {
			t.Errorf("span %d (%s) has no parent", i, s.Name)
		}
	}
}

// One smoke pass of every workload, untraced and traced, with the
// output checks armed: every call closed, CDRs reconciled, packets
// accounted for, bypass predictions held, and exactly the declared
// metrics reported.
func TestSmokeWorkloads(t *testing.T) {
	for _, spec := range workloadSpecs {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: spec.name, seed: 1, seconds: 1, trace: traced, smoke: true, outDir: t.TempDir()}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", spec.name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: checks failed: %v", spec.name, traced, res.violations)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", spec.name, traced, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", spec.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q", spec.name, traced, d.name, m.Unit)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", spec.name, d.name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(cfg.outDir + "/trace-" + spec.name + ".json"); err != nil {
					t.Errorf("%s: no trace file: %v", spec.name, err)
				}
				if spec.calls != nil && res.all["transport.envelopes_per_op"] <= 0 {
					t.Errorf("%s: the port decorator saw no envelopes", spec.name)
				}
			}
		}
	}
}

// BENCHMARK.json (one directory up, beside the paths it names) and the
// tables in defs.go describe the same benchmark.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/: ", err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if s, ok := specFor(w.Name); !ok || s.why != w.Why {
			t.Errorf("workload %s: unknown, or its reason differs from the code's", w.Name)
		}
	}
	if len(names) != len(workloadSpecs) {
		t.Errorf("BENCHMARK.json has workloads %v, the code has %d", names, len(workloadSpecs))
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the code %d+%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		m := doc.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Bound != d.bound || (m.Better == "higher") != d.higherBetter {
			t.Errorf("end-to-end metric %d: file %+v, code %+v", i, m, d)
		}
	}
	var fileLayer, codeLayer []string
	for i := range perLayer {
		fileLayer = append(fileLayer, doc.PerLayer[i].Name+" "+doc.PerLayer[i].Unit)
		codeLayer = append(codeLayer, perLayer[i].name+" "+perLayer[i].unit)
	}
	sort.Strings(fileLayer)
	sort.Strings(codeLayer)
	if !reflect.DeepEqual(fileLayer, codeLayer) {
		t.Errorf("per-layer metrics differ:\nfile %v\ncode %v", fileLayer, codeLayer)
	}
}
