package box

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"ipmedia/internal/core"
	"ipmedia/internal/sig"
	"ipmedia/internal/timerwheel"
	"ipmedia/internal/transport"
)

// spliceHook is the storm load tests' relay: it splices every accepted
// call onward to dev with a flowLink and propagates the in-leg's
// teardown to the out-leg, whose names ("o-N") it pools.
func spliceHook(dev string) func(*Ctx, *Event) {
	outOf := map[string]string{}
	var free []string
	minted := 0
	return func(ctx *Ctx, ev *Event) {
		if ev.Kind != EvEnvelope || !ev.Env.IsMeta() || strings.HasPrefix(ev.Channel, "o-") {
			return
		}
		in := ev.Channel
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
			ctx.Dial(out, dev)
			ctx.SetGoal(core.NewFlowLink(TunnelSlot(in, 0), TunnelSlot(out, 0)))
		case sig.MetaTeardown:
			if out, ok := outOf[in]; ok {
				delete(outOf, in)
				free = append(free, out)
				ctx.Teardown(out)
			}
		}
	}
}

// boundedRecords checks that what a box and its runner keep per channel
// and per timer is sized by the channels the box has held at once
// lately, not by how many it has ever held, and that a listener that
// never held more than atOnce channels minted no more accept names than
// that.
func boundedRecords(t *testing.T, r *Runner, atOnce int) {
	t.Helper()
	r.Do(func(ctx *Ctx) {
		b := ctx.Box()
		parked := 0
		for ci := b.parked.head; ci != nil; ci = ci.parkNext {
			if !ci.parked || ci.live || ci.port != nil || b.chans[ci.name] != ci {
				t.Errorf("box %s: parked list holds %s (parked %v, live %v, port %v)", b.name, ci.name, ci.parked, ci.live, ci.port)
			}
			parked++
		}
		if parked != b.parked.n {
			t.Errorf("box %s counts %d parked records and lists %d", b.name, b.parked.n, parked)
		}
		if n, most := len(b.chans), max(b.peak, b.peakPrev); n > most+parkSlack && parked > 0 {
			t.Errorf("box %s keeps %d channel records (%d parked), want at most %d + %d", b.name, n, parked, most, parkSlack)
		}
		if most := max(b.peak, b.peakPrev); most > atOnce {
			t.Errorf("box %s held %d channels at once, want at most %d", b.name, most, atOnce)
		}
		live := 0
		for _, ci := range b.chans {
			switch {
			case ci.live:
				live++
			case !ci.parked && ci.port == nil:
				t.Errorf("box %s keeps %s, which is neither live, nor waiting for its port to go, nor parked", b.name, ci.name)
			}
		}
		if live != b.live {
			t.Errorf("box %s counts %d live channels and has %d", b.name, b.live, live)
		}
		if r.acceptN > atOnce {
			t.Errorf("box %s minted %d accept names for at most %d channels at once", b.name, r.acceptN, atOnce)
		}
		if n := len(r.timers); n > 4 {
			t.Errorf("box %s keeps %d timers", b.name, n)
		}
	})
}

// callCycleRig is the set-up the call-cycle gate and benchmark share:
// on one ring shard, a relay splicing every call to a device with a
// flowLink, both already carrying 600 standing calls, and a client that
// dials a call through the relay, tears it down once it flows, and
// redials at once — until it has completed the last of its marks.
type callCycleRig struct {
	dev, relay, parker, cli *Runner
	done                    chan int // the call count at each mark, -1 on a give-up
}

const standingCalls = 600

func newCallCycleRig(tb testing.TB, marks ...int) *callCycleRig {
	tb.Helper()
	c := NewCluster(transport.NewRingMemNetwork(), 1)
	tb.Cleanup(c.Stop)
	rig := &callCycleRig{done: make(chan int, len(marks))}
	rig.dev = c.Runner(New("dev", deviceProfile("dev", 5004)))
	rb := New("relay", core.ServerProfile{Name: "relay"})
	rb.Hook = spliceHook("dev")
	rig.relay = c.Runner(rb)
	for _, r := range []*Runner{rig.dev, rig.relay} {
		if err := r.Listen(r.Box().Name(), nil); err != nil {
			tb.Fatal(err)
		}
	}

	// The standing population: one box holding 600 calls through the relay.
	rig.parker = c.Runner(New("parker", deviceProfile("parker", 5006)))
	for i := 0; i < standingCalls; i++ {
		ch := "p" + strconv.Itoa(i)
		if err := rig.parker.Connect(ch, "relay"); err != nil {
			tb.Fatal(err)
		}
		rig.parker.Do(func(ctx *Ctx) {
			ctx.SetGoal(core.NewOpenSlot(TunnelSlot(ch, 0), sig.Audio, ctx.Box().Profile()))
		})
	}
	await(tb, rig.parker, "the standing calls flowing", func(ctx *Ctx) bool {
		for i := 0; i < standingCalls; i++ {
			if !ctx.IsFlowing(TunnelSlot("p"+strconv.Itoa(i), 0)) {
				return false
			}
		}
		return true
	})

	calls := 0
	s0 := TunnelSlot("c", 0)
	rig.cli = c.Runner(New("cli", deviceProfile("cli", 5008)))
	rig.cli.SetProgram(&Program{Initial: "idle", States: []*State{
		{Name: "idle", Trans: []Trans{
			{When: func(ctx *Ctx) bool { return ctx.OnApp("gen", "go") }, To: "call"},
		}},
		{Name: "call", Annots: []Annot{OpenSlotAnn(s0, sig.Audio)},
			OnEnter: func(ctx *Ctx) {
				ctx.Dial("c", "relay")
				ctx.SetTimer("giveup", 5*time.Second)
			},
			Trans: []Trans{
				{When: func(ctx *Ctx) bool { return ctx.IsFlowing(s0) }, To: "over",
					Do: func(ctx *Ctx) { ctx.CancelTimer("giveup") }},
				{When: func(ctx *Ctx) bool { return ctx.OnTimer("giveup") }, To: "idle",
					Do: func(ctx *Ctx) { rig.done <- -1 }},
			}},
		{Name: "over",
			OnEnter: func(ctx *Ctx) {
				ctx.Teardown("c")
				if calls++; calls == marks[0] {
					marks = marks[1:]
					rig.done <- calls
				}
			},
			Trans: []Trans{
				{When: func(*Ctx) bool { return len(marks) > 0 }, To: "call"},
				{When: func(*Ctx) bool { return true }, To: "idle"},
			}},
	}})
	rig.cli.Inject(Event{Kind: EvEnvelope, Channel: "gen", Env: sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaApp, App: "go"}}})
	return rig
}

// mark waits for the client to complete want calls and returns the
// process's allocation count and allocated bytes at that moment.
func (rig *callCycleRig) mark(tb testing.TB, want int) (allocs, bytes uint64) {
	tb.Helper()
	select {
	case got := <-rig.done:
		if got != want {
			tb.Fatalf("the client stopped at %d calls, want %d", got, want)
		}
	case <-time.After(60 * time.Second):
		tb.Fatalf("the client never reached %d calls", want)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// TestCallCycleAllocBudget is the CI gate for call set-up and
// tear-down: a client dials a relay that splices the call to a device
// with a flowLink, the call flows, and the client tears it down — on a
// relay and a device already carrying 600 standing calls, past every
// fixed cache size the runtime used to have. A steady-state cycle may
// allocate what is new per call and nothing else: the two ring pipes'
// identities, the goal objects (openSlot and its annotation, flowLink,
// holdSlot, the widowed out-leg's closeSlot) and the two slot names the
// relay's hook builds. That is 9; the budget leaves two spare. In bytes
// a cycle measures 528 B, against 3 920 B when every pipe allocated its
// rings afresh; the 1 KB budget fails the old pipes and leaves room for
// the occasional store a collection took from the pool.
func TestCallCycleAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats allocation accounting")
	}
	const (
		warm        = 2000
		cycles      = 20000
		budget      = 11.0
		bytesBudget = 1024.0
	)
	rig := newCallCycleRig(t, warm, warm+cycles)
	m0, b0 := rig.mark(t, warm)
	m1, b1 := rig.mark(t, warm+cycles)
	perCycle, bytesPerCycle := float64(m1-m0)/cycles, float64(b1-b0)/cycles
	t.Logf("call cycle: %.2f allocs (budget %.0f), %.0f B (budget %.0f) with %d standing calls",
		perCycle, budget, bytesPerCycle, bytesBudget, standingCalls)
	if perCycle > budget {
		t.Errorf("a dial-flow-teardown cycle allocates %.2f times, budget %.0f", perCycle, budget)
	}
	if bytesPerCycle > bytesBudget {
		t.Errorf("a dial-flow-teardown cycle allocates %.0f B, budget %.0f", bytesPerCycle, bytesBudget)
	}

	// The relay held 600 calls and served 22 000 more: its tables are
	// sized by the former.
	await(t, rig.relay, "the last call's legs torn down", func(ctx *Ctx) bool { return ctx.Box().live == 2*standingCalls })
	boundedRecords(t, rig.relay, 2*(standingCalls+1))
	boundedRecords(t, rig.dev, standingCalls+1)
	boundedRecords(t, rig.cli, 1)
	noErrs(t, rig.dev, rig.relay, rig.parker, rig.cli)
}

// BenchmarkCallCycle times TestCallCycleAllocBudget's call cycle — the
// channel churn path: dial, ring pipes, splice, flow, teardown — with
// b.N counting calls. It is what make profile-runtime profiles.
func BenchmarkCallCycle(b *testing.B) {
	const warm = 2000
	rig := newCallCycleRig(b, warm, warm+b.N)
	rig.mark(b, warm)
	b.ReportAllocs()
	b.ResetTimer()
	rig.mark(b, warm+b.N)
}

// TestAcceptNameReuse: with the default naming a listener gives an
// accepted channel the name of one that is destroyed and whose port is
// gone, and what the old channel left in flight cannot hurt the new
// one: a readiness notification naming it drains the new port (and
// finds it empty), and the old port's loss report is recognised as not
// the new port's.
func TestAcceptNameReuse(t *testing.T) {
	c := NewCluster(transport.NewRingMemNetwork(), 1)
	defer c.Stop()
	sb := New("S", deviceProfile("S", 5004))
	log := newAcceptLog(sb)
	srv := c.Runner(sb)
	cli := c.Runner(New("C", deviceProfile("C", 5006)))
	if err := srv.Listen("S", nil); err != nil {
		t.Fatal(err)
	}
	if err := cli.Connect("c1", "S"); err != nil {
		t.Fatal(err)
	}
	first := log.await(t, "c1")
	var oldPort transport.Port
	srv.Do(func(*Ctx) { oldPort = srv.port(first) })
	if oldPort == nil {
		t.Fatalf("accepted channel %s has no port", first)
	}

	cli.Do(func(ctx *Ctx) { ctx.Teardown("c1") })
	await(t, srv, "the first channel destroyed, its port gone and its name free", func(ctx *Ctx) bool {
		b := ctx.Box()
		return !b.HasChannel(first) && srv.port(first) == nil && b.parked.n == 1
	})

	if err := cli.Connect("c2", "S"); err != nil {
		t.Fatal(err)
	}
	if second := log.await(t, "c2"); second != first {
		t.Fatalf("the second channel was accepted as %s, want the freed name %s", second, first)
	}

	// What the first incarnation may still have in flight, delivered now.
	srv.sh.inbox.push(inboxItem{kind: itemRing, r: srv, ev: Event{Kind: EvEnvelope, Channel: first}})
	srv.sh.inbox.push(inboxItem{kind: itemPortLost, r: srv, ev: Event{Channel: first}, port: oldPort})
	survived := false
	srv.Do(func(ctx *Ctx) {
		survived = ctx.Box().HasChannel(first) && srv.port(first) != nil && srv.port(first) != oldPort
	})
	if !survived {
		t.Fatalf("the re-accepted channel %s did not survive the old one's stragglers", first)
	}

	// The new channel works: a call over it reaches flowing at both ends.
	cli.Do(func(ctx *Ctx) {
		ctx.SetGoal(core.NewOpenSlot(TunnelSlot("c2", 0), sig.Audio, ctx.Box().Profile()))
	})
	await(t, srv, "the re-accepted channel flowing", func(ctx *Ctx) bool { return ctx.IsFlowing(TunnelSlot(first, 0)) })
	if srv.acceptN != 1 {
		t.Errorf("the listener minted %d names for two channels that never coexisted, want 1", srv.acceptN)
	}
	noErrs(t, srv, cli)

	// A listener with its own naming keeps numbering: names are never reused.
	nb := New("N", deviceProfile("N", 5008))
	nlog := newAcceptLog(nb)
	named := c.Runner(nb)
	if err := named.Listen("N", func(n int) string { return "call" + strconv.Itoa(n) }); err != nil {
		t.Fatal(err)
	}
	for i, dialed := range []string{"n1", "n2"} {
		if err := cli.Connect(dialed, "N"); err != nil {
			t.Fatal(err)
		}
		if got, want := nlog.await(t, dialed), "call"+strconv.Itoa(i); got != want {
			t.Fatalf("channel %d of a naming listener was accepted as %s, want %s", i, got, want)
		}
		cli.Do(func(ctx *Ctx) { ctx.Teardown(dialed) })
		await(t, named, "the named channel torn down", func(ctx *Ctx) bool { return len(ctx.Box().Channels()) == 0 })
	}
}

// TestChannelRecordsBounded: 10 000 accept-and-teardown cycles against
// a listener leave it the records of the few channels it held at once,
// and a dialer that never repeats a channel name keeps no more.
func TestChannelRecordsBounded(t *testing.T) {
	const (
		cycles = 10000
		unique = 300 // dial names never repeated (each is interned for good, so not 10 000 of them)
	)
	c := NewCluster(transport.NewRingMemNetwork(), 1)
	defer c.Stop()
	srv := c.Runner(New("S", core.ServerProfile{Name: "S"}))
	cli := c.Runner(New("C", core.ServerProfile{Name: "C"}))
	if err := srv.Listen("S", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // a little standing population
		if err := cli.Connect("stay"+strconv.Itoa(i), "S"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < cycles; i++ {
		ch := "again"
		if i < unique {
			ch = "u" + strconv.Itoa(i)
		}
		if err := cli.Connect(ch, "S"); err != nil {
			t.Fatal(err)
		}
		cli.Do(func(ctx *Ctx) { ctx.Teardown(ch) })
	}
	await(t, srv, "every cycled channel torn down", func(ctx *Ctx) bool { return ctx.Box().live == 3 })
	// The listener goroutine can lag the dialer by a few accepts, so a
	// handful of channels may coexist; thousands may not.
	boundedRecords(t, srv, 64)
	boundedRecords(t, cli, 4)
	noErrs(t, srv, cli)
}

// TestGoalActionsSurviveReentry: goal objects return their actions in
// the box's one lent buffer, so every goal call overwrites the last
// one's. The box must have turned each call's actions into outputs
// before the next call — including the calls it makes while it is still
// inside an event: a Handle re-entered from a hook, and the closeSlot
// that destroyChannel installs on a widowed flowlink partner when a
// program tears a channel down mid-transition.
func TestGoalActionsSurviveReentry(t *testing.T) {
	sends := func(outs []Output) []string {
		var got []string
		for _, o := range outs {
			if o.Kind == OutSend && !o.Env.IsMeta() {
				got = append(got, o.Channel+"."+strconv.Itoa(o.Env.Tunnel)+":"+o.Env.Sig.Kind.String())
			}
		}
		return got
	}
	equal := func(what string, got []string, want ...string) {
		t.Helper()
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: sent %v, want %v", what, got, want)
		}
	}
	open := func(ch string, tunnel int) Event {
		return Event{Kind: EvEnvelope, Channel: ch, Env: sig.Envelope{Tunnel: tunnel,
			Sig: sig.Open(sig.Audio, deviceProfile("far", 5010).Describe())}}
	}

	// A hook that re-enters Handle with an event for another channel.
	b := New("B", deviceProfile("B", 5004))
	b.AddChannel("x", false)
	b.AddChannel("y", false)
	var inner []string
	b.Hook = func(_ *Ctx, ev *Event) {
		if ev.Kind == EvEnvelope && ev.Channel == "x" && !ev.Env.IsMeta() {
			outs, err := b.Handle(open("y", 3))
			if err != nil {
				t.Fatal(err)
			}
			inner = sends(outs)
			b.Recycle(outs)
		}
	}
	outs, err := b.Handle(open("x", 0))
	if err != nil {
		t.Fatal(err)
	}
	equal("the outer event", sends(outs), "x.0:oack", "x.0:select")
	equal("the re-entered event", inner, "y.3:oack", "y.3:select")

	// A program that answers an open on x and, in the same event, tears
	// down y, whose flowlink partner z.t0 is flowing: the event's outputs
	// are the holdSlot's answer, then the widow's close.
	b = New("B", deviceProfile("B", 5004))
	for _, ch := range []string{"x", "y", "z"} {
		b.AddChannel(ch, false)
	}
	handle(t, b, open("z", 0)) // z.t0 flowing under the default holdSlot
	handle(t, b, Event{Kind: EvCall, Call: func(ctx *Ctx) {
		ctx.SetGoal(core.NewFlowLink(TunnelSlot("y", 0), TunnelSlot("z", 0)))
	}})
	if _, err := b.SetProgram(&Program{Initial: "wait", States: []*State{
		{Name: "wait", Trans: []Trans{
			{When: func(ctx *Ctx) bool { return ctx.IsFlowing(TunnelSlot("x", 0)) }, To: "gone",
				Do: func(ctx *Ctx) { ctx.Teardown("y") }},
		}},
		{Name: "gone"},
	}}); err != nil {
		t.Fatal(err)
	}
	outs, err = b.Handle(open("x", 0))
	if err != nil {
		t.Fatal(err)
	}
	equal("answer, then widow cleanup", sends(outs), "x.0:oack", "x.0:select", "z.0:close")
	if g := b.GoalFor(TunnelSlot("z", 0)); g == nil || g.Kind() != "closeSlot" {
		t.Errorf("the widowed slot is controlled by %v, want a closeSlot", g)
	}
}

// lingerPort is a pumped port whose reader outlives Close, like a
// transport still handing over what it read before the close: the test
// feeds its receive side by hand and ends it when it chooses.
type lingerPort struct{ recv chan sig.Envelope }

func (p *lingerPort) Send(sig.Envelope) error { return nil }
func (p *lingerPort) Close() error            { return nil }
func (p *lingerPort) Peer() string            { return "linger" }

// RecvBatch implements transport.BatchPort, one envelope at a time.
func (p *lingerPort) RecvBatch(buf []sig.Envelope) (int, bool) {
	e, ok := <-p.recv
	if !ok {
		return 0, false
	}
	buf[0] = e
	return 1, true
}

// TestPumpStragglersMissTheNextChannel: a pump's envelopes are
// dispatched only while its port is the channel name's registered one.
// What the pump of a locally torn-down channel still delivers reaches
// neither the box nor — once the name has been accepted again — the
// stranger that now holds it.
func TestPumpStragglersMissTheNextChannel(t *testing.T) {
	b := New("S", deviceProfile("S", 5004))
	var seen []string // "channel:app" of every app meta the box is shown
	b.Hook = func(_ *Ctx, ev *Event) {
		if ev.Kind == EvEnvelope && ev.Env.IsMeta() && ev.Env.Meta.Kind == sig.MetaApp {
			seen = append(seen, ev.Channel+":"+ev.Env.Meta.App)
		}
	}
	r := NewRunner(b, transport.NewMemNetwork())
	defer r.Stop()
	app := func(name string) sig.Envelope {
		return sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaApp, App: name}}
	}
	accept := func(p transport.Port) {
		r.sh.inbox.push(inboxItem{kind: itemAccept, r: r, port: p})
	}
	barrier := func() { r.Do(func(*Ctx) {}) }

	old := &lingerPort{recv: make(chan sig.Envelope)}
	accept(old)
	old.recv <- app("first") // handed to the pump; the inbox push follows
	await(t, r, "the first channel's traffic", func(*Ctx) bool { return len(seen) == 1 })

	// Tear in0 down locally, then accept a second caller: it is given the
	// freed name while the first caller's pump is still running.
	r.Do(func(ctx *Ctx) { ctx.Teardown("in0") })
	next := &lingerPort{recv: make(chan sig.Envelope)}
	accept(next)
	barrier()
	accepted, minted := false, 0
	r.Do(func(ctx *Ctx) {
		accepted = ctx.Box().HasChannel("in0") && r.port("in0") == transport.Port(next)
		minted = r.acceptN
	})
	if !accepted || minted != 1 {
		t.Fatalf("the second caller was not accepted as in0 (minted %d)", minted)
	}

	// The pump is sequential, so once it takes the second straggler it has
	// posted the first, and a barrier later the loop has executed it.
	old.recv <- app("straggler")
	old.recv <- app("straggler-2")
	barrier()
	next.recv <- app("second")
	await(t, r, "the second channel's traffic", func(*Ctx) bool { return len(seen) == 2 })
	r.Do(func(*Ctx) {
		if got := strings.Join(seen, " "); got != "in0:first in0:second" {
			t.Errorf("the box was shown %q, want the two callers' own traffic only", got)
		}
	})
	close(old.recv)
	close(next.recv)
	noErrs(t, r)
}

// cycleChannel opens the named channel on a box driven without a runner
// and destroys it again; with no port to wait for, the record parks at
// once.
func cycleChannel(t *testing.T, b *Box, name string) {
	t.Helper()
	b.AddChannel(name, true)
	if _, err := b.Handle(Event{Kind: EvEnvelope, Channel: name, Env: sig.Envelope{Meta: teardownMeta}}); err != nil {
		t.Fatal(err)
	}
}

// TestParkedRecordsFollowThePopulation: the records a box parks are
// those of the names it has in use. A name that keeps coming back keeps
// its record through any churn of names that never do, and the records a
// one-off burst parked are forgotten within two windows of channel
// opens, not pinned by the burst's high-water mark for good.
func TestParkedRecordsFollowThePopulation(t *testing.T) {
	b := New("B", core.ServerProfile{Name: "B"})
	cycleChannel(t, b, "again")
	again := b.record("again")
	for i := 0; i < 500; i++ {
		cycleChannel(t, b, "once"+strconv.Itoa(i))
		cycleChannel(t, b, "again")
		if b.record("again") != again {
			t.Fatalf("after %d never-repeated names the repeated one lost its record", i+1)
		}
	}
	if n := len(b.chans); n > 1+parkSlack {
		t.Fatalf("a box that held one channel at a time keeps %d records, want at most %d", n, 1+parkSlack)
	}

	const burst = 300
	for i := 0; i < burst; i++ {
		b.AddChannel("burst"+strconv.Itoa(i), true)
	}
	for i := 0; i < burst; i++ {
		b.Handle(Event{Kind: EvEnvelope, Channel: "burst" + strconv.Itoa(i), Env: sig.Envelope{Meta: teardownMeta}})
	}
	if n := len(b.chans); n < burst {
		t.Fatalf("right after a burst of %d channels the box keeps %d records: a population that size would not recycle", burst, n)
	}
	for i := 0; i < 2*peakWindow; i++ {
		cycleChannel(t, b, "again")
	}
	if n := len(b.chans); n > 1+parkSlack {
		t.Fatalf("%d opens after the burst the box still keeps %d records, want at most %d", 2*peakWindow, n, 1+parkSlack)
	}
	if b.record("again") == nil || b.parked.n != len(b.chans) {
		t.Fatalf("parked list counts %d of %d records", b.parked.n, len(b.chans))
	}
}

// TestFiredTimersBounded: a churn of timer names that are armed once
// and fire leaves the runner no more wheel timers (and fire closures)
// than runnerCacheCap, the same bound cancelled timers have.
func TestFiredTimersBounded(t *testing.T) {
	r := NewRunner(New("T", core.ServerProfile{Name: "T"}), transport.NewMemNetwork())
	defer r.Stop()
	const names = 4 * runnerCacheCap
	r.Do(func(ctx *Ctx) {
		for i := 0; i < names; i++ {
			ctx.SetTimer("once"+strconv.Itoa(i), time.Millisecond)
		}
	})
	await(t, r, "every timer fired", func(ctx *Ctx) bool { return len(ctx.Box().pendingT) == 0 })
	r.Do(func(*Ctx) {
		if n := len(r.timers); n > runnerCacheCap {
			t.Errorf("after %d one-shot timers fired the runner keeps %d, want at most %d", names, n, runnerCacheCap)
		}
	})
	// A timer re-armed from its own fire keeps its one wheel timer.
	fires := 0
	r.Box().Hook = func(ctx *Ctx, ev *Event) {
		if ev.Kind == EvTimer && ev.Timer == "tick" {
			if fires++; fires < 5 {
				ctx.SetTimer("tick", time.Millisecond)
			}
		}
	}
	var tick *timerwheel.Timer
	r.Do(func(ctx *Ctx) { ctx.SetTimer("tick", time.Millisecond) })
	r.Do(func(*Ctx) { tick = r.timers["tick"] })
	await(t, r, "the self-re-arming timer fired five times", func(*Ctx) bool { return fires == 5 })
	r.Do(func(*Ctx) {
		if got := r.timers["tick"]; got != nil && got != tick {
			t.Errorf("a timer re-armed from its own fire was given a second wheel timer")
		}
	})
	noErrs(t, r)
}
