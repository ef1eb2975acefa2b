package box

import (
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"ipmedia/internal/core"
	"ipmedia/internal/sig"
	"ipmedia/internal/transport"
)

// liveHeap is the heap still reachable after two collections: the
// first may leave finalizer-reachable or pool-victim objects for the
// second.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// footprint reports the live heap per item that one round of build
// holds. A first round is built and torn down before the measured one,
// so one-time costs (the solo wheel, telemetry instruments, intern
// entries) are paid beforehand, and so are the runtime's goroutine
// records, which exited goroutines leave for reuse: the reading is
// heap the items hold, goroutine records and stacks not counted.
func footprint(n int, build func(round int) (stop func())) int64 {
	build(0)()
	before := liveHeap()
	stop := build(1)
	after := liveHeap()
	stop()
	return (int64(after) - int64(before)) / int64(n)
}

// TestStandaloneRunnerFootprint holds what an idle standalone runner
// costs: its box, its runner record and its private shard, but no turn
// — no scratch, inbox slices or drain buffer: a standalone shard holds
// one only while its loop is busy. 1 000 fresh runners read 790 B each
// on a 2-vCPU x86-64 host (13 600 B with the drain buffer inline in
// every shard), under a 3 KB budget. A runner that has drained a
// channel, lost its port and gone idle again reads 1 400 B: its channel
// map and parked channel record besides; its budget is that reading
// plus 10 %. A shard that kept its scratch and inbox slices after the
// drain read 2 275 B, and one that kept its drain buffer too would add
// 7.7 KB to that.
func TestStandaloneRunnerFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	const n = 1000
	net := transport.NewMemNetwork()
	for _, c := range []struct {
		drained bool
		budget  int64
	}{{false, 3 << 10}, {true, 1550}} {
		per := footprint(n, func(round int) func() {
			rs := make([]*Runner, n)
			for i := range rs {
				name := fmt.Sprintf("idle%d.%d", round, i)
				rs[i] = NewRunner(New(name, core.ServerProfile{Name: name}), net)
			}
			if c.drained {
				for _, r := range rs {
					drainOnce(t, r)
				}
			}
			return func() {
				for _, r := range rs {
					r.Stop()
				}
			}
		})
		t.Logf("idle standalone runner (drained a channel: %v): %d B", c.drained, per)
		if per > c.budget {
			t.Fatalf("an idle standalone runner (drained a channel: %v) holds %d B, budget %d B", c.drained, per, c.budget)
		}
	}
}

// drainOnce has r drain a channel over a ring pipe whose far end sends
// one envelope and goes away, and waits until the box has destroyed the
// channel.
func drainOnce(t *testing.T, r *Runner) {
	t.Helper()
	near, far := transport.RingPipe("far", "near")
	far.Send(sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaSetup}})
	far.Send(sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaApp, App: "hi"}})
	far.Close()
	r.Do(func(ctx *Ctx) { r.addPort(ctx.Box().addChannel("c", false, false), near) })
	await(t, r, "the lost channel destroyed", func(ctx *Ctx) bool { return !ctx.Box().HasChannel("c") && r.port("c") == nil })
}

// TestPumpedChannelFootprint holds what a pumped in-memory channel
// costs at both ends once each end's pump has posted a batch: the pipe
// and its two queues, both channel records with the dialer's setup
// meta, and two pumps with their ack channel and batch buffer. On a
// 2-vCPU x86-64 host it reads 4 700 B per channel; with two batch
// buffers per pump it read 6 450 B. The budget is the one-buffer
// reading plus 10 %. With 384 B channel records it reads 3 400 B.
func TestPumpedChannelFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	const n, budget = 500, 5170
	per := channelFootprint(t, transport.NewMemNetwork(), n)
	t.Logf("pumped mem channel, both ends: %d B", per)
	if per > budget {
		t.Fatalf("a pumped channel holds %d B at its two ends, budget %d B", per, budget)
	}
}

// TestQueueChannelFootprint holds what a queue-backed channel drained
// on the shard loop costs at both ends: a mux channel, whose port is an
// InlinePort as well as a BatchPort, over an in-memory carrier. It
// holds both mux ports with their receive queues, both channel records
// with the dialer's setup meta and their readiness callbacks, and no
// goroutine, ack channel or batch buffer; a queue drained empty holds
// no buffer. On a 2-vCPU x86-64 host it reads 1 470 B per channel
// (2 030–2 280 B while every queue kept its first buffer), against
// 3 450 B for a pumped in-memory channel (TestPumpedChannelFootprint).
// The budget is the reading plus 10 %.
func TestQueueChannelFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	const n, budget = 500, 1620
	per := channelFootprint(t, newMuxNet(t), n)
	t.Logf("mux channel drained inline, both ends: %d B", per)
	if per > budget {
		t.Fatalf("a mux channel holds %d B at its two ends, budget %d B", per, budget)
	}
}

// channelFootprint reports what one of n channels between two
// standalone runners over net holds at both ends once an envelope has
// crossed each way and both inboxes have drained.
func channelFootprint(t *testing.T, net transport.Network, n int) int64 {
	return footprint(n, func(round int) func() {
		var replies atomic.Int64
		srv := New("fpS", core.ServerProfile{Name: "fpS"})
		srv.Hook = func(ctx *Ctx, ev *Event) {
			if ev.Kind == EvEnvelope && ev.Env.IsMeta() && ev.Env.Meta.Kind == sig.MetaSetup {
				ctx.SendMeta(ev.Channel, sig.Meta{Kind: sig.MetaApp, App: "hi"})
			}
		}
		cli := New("fpC", core.ServerProfile{Name: "fpC"})
		cli.Hook = func(_ *Ctx, ev *Event) {
			if ev.Kind == EvEnvelope && ev.Env.IsMeta() && ev.Env.Meta.App == "hi" {
				replies.Add(1)
			}
		}
		rs, rc := NewRunner(srv, net), NewRunner(cli, net)
		addr := "fpS" + strconv.Itoa(round)
		if err := rs.Listen(addr, nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := rc.Connect("c"+strconv.Itoa(i), addr); err != nil {
				t.Fatal(err)
			}
			if (i+1)%muxAcceptWave == 0 {
				await(t, rc, "a wave of replies", func(*Ctx) bool { return replies.Load() == int64(i+1) })
			}
		}
		await(t, rc, "a reply on every channel", func(*Ctx) bool { return replies.Load() == int64(n) })
		// Drain both inboxes: what the replies left queued behind them
		// is processed before the reading.
		for i := 0; i < 3; i++ {
			rs.Do(func(*Ctx) {})
			rc.Do(func(*Ctx) {})
		}
		return func() {
			rc.Stop()
			rs.Stop()
		}
	})
}

// parkedCallProgram is a client that, told to go, dials its relay on
// channel c with a give-up timer armed, cancels the timer once the call
// flows and holds the call from then on, counting it in up.
func parkedCallProgram(relay string, up *atomic.Int64) *Program {
	s0 := TunnelSlot("c", 0)
	open := []Annot{OpenSlotAnn(s0, sig.Audio)}
	return &Program{Initial: "idle", States: []*State{
		{Name: "idle", Trans: []Trans{
			{When: func(ctx *Ctx) bool { return ctx.OnApp("gen", "go") }, To: "call"},
		}},
		{Name: "call", Annots: open,
			OnEnter: func(ctx *Ctx) {
				ctx.Dial("c", relay)
				ctx.SetTimer("giveup", time.Minute)
			},
			Trans: []Trans{
				{When: func(ctx *Ctx) bool { return ctx.IsFlowing(s0) }, To: "hold",
					Do: func(ctx *Ctx) { ctx.CancelTimer("giveup"); up.Add(1) }},
			}},
		{Name: "hold", Annots: open},
	}}
}

// TestParkedCallFootprint holds what a parked call costs: a client box
// with its runner and program, holding one call through a relay that
// splices it to a device with a flowLink, all on one ring shard — the
// standing population of the calls workloads. Its state is the client's
// box, runner, program and timer, four channel records (client, the
// relay's two legs, device), two ring stores and the goal objects;
// per-event scratch belongs to the shard and is not counted per call,
// and neither are ring slots, which a channel leases only while
// envelopes wait in it. On a 2-vCPU x86-64 host 2 000 calls read
// 4 900 B each (7 480 B when every ring kept its slots inline and every
// box a slot map, 10 050 B when every box also kept its own scratch,
// timer maps and stop channels); the budget is the reading plus 10 %.
func TestParkedCallFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	const n, budget = 2000, 5390
	per := footprint(n, func(round int) func() {
		c := NewCluster(transport.NewRingMemNetwork(), 1)
		dev := c.Runner(New("fpdev", deviceProfile("fpdev", 5004)))
		rb := New("fprelay", core.ServerProfile{Name: "fprelay"})
		rb.Hook = spliceHook("fpdev")
		relay := c.Runner(rb)
		for _, r := range []*Runner{dev, relay} {
			if err := r.Listen(r.Box().Name(), nil); err != nil {
				t.Fatal(err)
			}
		}
		var up atomic.Int64
		goEv := Event{Kind: EvEnvelope, Channel: "gen", Env: sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaApp, App: "go"}}}
		for i := 0; i < n; i++ {
			name := "fpc" + strconv.Itoa(i)
			r := c.Runner(New(name, deviceProfile(name, 6000)))
			r.SetProgram(parkedCallProgram("fprelay", &up))
			r.Inject(goEv)
		}
		deadline := time.Now().Add(30 * time.Second)
		for up.Load() < n {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d of %d calls flowing", round, up.Load(), n)
			}
			time.Sleep(time.Millisecond)
		}
		// Drain the inbox: what the last calls' set-up queued behind them
		// (the far ends' acks) is processed before the reading.
		for i := 0; i < 3; i++ {
			relay.Do(func(*Ctx) {})
		}
		noErrs(t, dev, relay)
		return c.Stop
	})
	box, runner, rec := int64(unsafe.Sizeof(Box{})), int64(unsafe.Sizeof(Runner{})), int64(unsafe.Sizeof(chanInfo{}))
	t.Logf("parked call: %d B (budget %d B): Box %d B, Runner %d B, 4 channel records of %d B, and %d B besides "+
		"(two ring stores and pipes, the client's program and channel map, goals, profiles, setup metas, names, timer)",
		per, budget, box, runner, rec, per-box-runner-4*rec)
	if per > budget {
		t.Fatalf("a parked call holds %d B, budget %d B", per, budget)
	}
}

// TestPumpBurstInOrder: a backlog far larger than a batch, queued on a
// pipe before the runner sees the port, reaches the box whole and in
// order through one pump posting one batch at a time.
func TestPumpBurstInOrder(t *testing.T) {
	near, far := transport.Pipe("far", "near")
	burstInOrder(t, near, far)
}

// TestDrainBurstInOrder: a backlog far larger than the drain's fairness
// cap, queued on a mux channel before the runner sees the port, reaches
// the box whole and in order through drains that re-post themselves.
func TestDrainBurstInOrder(t *testing.T) {
	near, far := newMuxNet(t).pipe(t)
	burstInOrder(t, near, far)
}

// burstInOrder queues a setup and 1 000 numbered envelopes on far, then
// hands near to a runner and checks that the box is shown them all, in
// order.
func burstInOrder(t *testing.T, near, far transport.Port) {
	const n = 1000
	var got []int
	bx := New("B", core.ServerProfile{Name: "B"})
	bx.Hook = func(_ *Ctx, ev *Event) {
		if ev.Kind == EvEnvelope && ev.Env.IsMeta() && ev.Env.Meta.App == "seq" {
			i, _ := strconv.Atoi(ev.Env.Meta.Get("i"))
			got = append(got, i)
		}
	}
	r := NewRunner(bx, transport.NewMemNetwork())
	defer r.Stop()
	far.Send(sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaSetup}})
	for i := 0; i < n; i++ {
		if err := far.Send(sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaApp, App: "seq",
			Attrs: sig.NewAttrs("i", strconv.Itoa(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	r.Do(func(ctx *Ctx) { r.addPort(ctx.Box().addChannel("c", false, false), near) })
	await(t, r, "the whole backlog", func(*Ctx) bool { return len(got) == n })
	var seen []int
	r.Do(func(*Ctx) { seen = append(seen, got...) })
	for i, v := range seen {
		if v != i {
			t.Fatalf("envelope %d arrived as %v", i, seen[max(0, i-2):min(len(seen), i+3)])
		}
	}
}

// TestRecordSizes pins the records a box moves by value — an Event per
// inbox entry and frame, an Output per entry of an output buffer, each
// holding one 120-byte envelope whose descriptor is a pointer to a
// shared record — and the records a parked call keeps: its box, its
// runner and its channel records (four per call through a relay). The
// pins keep a parked call's footprint from creeping back; a channel
// record is at the top of its 384 B size class.
func TestRecordSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pinned sizes are for 64-bit platforms")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Event", unsafe.Sizeof(Event{}), 176},
		{"Output", unsafe.Sizeof(Output{}), 208},
		{"Box", unsafe.Sizeof(Box{}), 224},
		{"Runner", unsafe.Sizeof(Runner{}), 208},
		{"chanInfo", unsafe.Sizeof(chanInfo{}), 384},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s{}) = %d, want %d", c.name, c.got, c.want)
		}
	}
}
