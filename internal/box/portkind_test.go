package box

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipmedia/internal/core"
	"ipmedia/internal/sig"
	"ipmedia/internal/transport"
)

// barePort is a Port with neither receive contract: it can be sent on
// and closed, and there is no way to receive from it.
type barePort struct{ closed atomic.Bool }

func (p *barePort) Send(sig.Envelope) error { return nil }
func (p *barePort) Close() error            { p.closed.Store(true); return nil }
func (p *barePort) Peer() string            { return "bare" }

// bareNet dials barePorts and accepts the ones pushed into incoming.
type bareNet struct {
	dialed   []*barePort
	incoming chan transport.Port
}

func (n *bareNet) Dial(string) (transport.Port, error) {
	p := &barePort{}
	n.dialed = append(n.dialed, p)
	return p, nil
}

func (n *bareNet) Listen(addr string) (transport.Listener, error) {
	return &bareListener{net: n, addr: addr, done: make(chan struct{})}, nil
}

type bareListener struct {
	net  *bareNet
	addr string
	once sync.Once
	done chan struct{}
}

func (l *bareListener) Accept() (transport.Port, error) {
	select {
	case p := <-l.net.incoming:
		return p, nil
	case <-l.done:
		return nil, transport.ErrClosed
	}
}

func (l *bareListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *bareListener) Addr() string { return l.addr }

// TestUnreceivablePortRefused: a port that is neither an InlinePort nor
// a BatchPort is closed and reported where it would have been
// registered — Connect, a program's dial, accept — and gets neither a
// channel nor a goroutine.
func TestUnreceivablePortRefused(t *testing.T) {
	soloWheel() // the package-wide wheel's goroutine outlives every runner
	before := runtime.NumGoroutine()
	net := &bareNet{incoming: make(chan transport.Port)}
	b := New("U", core.ServerProfile{Name: "U"})
	unavailable := 0
	b.Hook = func(_ *Ctx, ev *Event) {
		if ev.Kind == EvEnvelope && ev.Env.IsMeta() && ev.Env.Meta.Kind == sig.MetaUnavailable {
			unavailable++
		}
	}
	r := NewRunner(b, net)

	if err := r.Connect("out", "anywhere"); err == nil {
		t.Error("Connect registered a port it cannot receive from")
	}
	r.Do(func(ctx *Ctx) { ctx.Dial("prog", "anywhere") })
	await(t, r, "the program's dial to be refused", func(*Ctx) bool { return unavailable == 1 })

	if err := r.Listen("here", nil); err != nil {
		t.Fatal(err)
	}
	accepted := &barePort{}
	net.incoming <- accepted
	await(t, r, "the accepted port to be refused", func(*Ctx) bool { return accepted.closed.Load() })

	r.Do(func(ctx *Ctx) {
		for _, name := range []string{"out", "in0"} {
			if ctx.Box().HasChannel(name) {
				t.Errorf("channel %q exists over a refused port", name)
			}
		}
		if p := r.port("prog"); p != nil {
			t.Errorf("the program's channel holds refused port %T", p)
		}
	})
	for i, p := range net.dialed {
		if !p.closed.Load() {
			t.Errorf("dialed port %d was refused but left open", i)
		}
	}
	if got := len(r.Errs()); got != 3 {
		t.Errorf("%d errors surfaced, want one per refused port (3): %v", got, r.Errs())
	}
	r.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before, %d after Stop: a refused port leaked one", before, after)
	}
}

// muxNet is a Network of mux channels over in-memory carriers, one Mux
// dialing its own carrier listener: its ports are queue-backed, fed by
// the carrier's reader goroutine, and InlinePorts as well as
// BatchPorts, so a runner drains them on its loop.
type muxNet struct {
	m       *transport.Mux
	carrier string
	pipes   int
}

func newMuxNet(t testing.TB) *muxNet {
	m := transport.NewMux(transport.NewMemNetwork())
	addr, err := m.ListenCarrier("carrier")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return &muxNet{m: m, carrier: addr}
}

func (n *muxNet) Listen(addr string) (transport.Listener, error) { return n.m.Listen(addr) }
func (n *muxNet) Dial(addr string) (transport.Port, error)       { return n.m.Dial(n.carrier, addr) }

// muxAcceptWave is how many channels a test opens toward one mux
// listener before it waits for them to be answered: a mux refuses an
// open that finds the listener's accept backlog (256) full.
const muxAcceptWave = 100

// pipe returns the two ends of a new mux channel: near was accepted,
// far dialed.
func (n *muxNet) pipe(t testing.TB) (near, far transport.Port) {
	n.pipes++
	l, err := n.Listen("pipe" + strconv.Itoa(n.pipes))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if far, err = n.Dial(l.Addr()); err != nil {
		t.Fatal(err)
	}
	if near, err = l.Accept(); err != nil {
		t.Fatal(err)
	}
	return near, far
}

// TestQueueChannelStartsNoGoroutine: a runner drains a queue-backed
// port with a readiness edge on its shard loop, as it drains rings, so
// 500 mux channels between two standalone runners, each with an
// envelope across it both ways, start no goroutine: pumped, they would
// start 1 000.
func TestQueueChannelStartsNoGoroutine(t *testing.T) {
	const n, slack = 500, 4
	net := newMuxNet(t)
	var replies atomic.Int64
	srv := New("gS", core.ServerProfile{Name: "gS"})
	srv.Hook = func(ctx *Ctx, ev *Event) {
		if ev.Kind == EvEnvelope && ev.Env.IsMeta() && ev.Env.Meta.Kind == sig.MetaSetup {
			ctx.SendMeta(ev.Channel, sig.Meta{Kind: sig.MetaApp, App: "hi"})
		}
	}
	cli := New("gC", core.ServerProfile{Name: "gC"})
	cli.Hook = func(_ *Ctx, ev *Event) {
		if ev.Kind == EvEnvelope && ev.Env.IsMeta() && ev.Env.Meta.App == "hi" {
			replies.Add(1)
		}
	}
	rs, rc := NewRunner(srv, net), NewRunner(cli, net)
	defer rs.Stop()
	defer rc.Stop()
	if err := rs.Listen("gS", nil); err != nil {
		t.Fatal(err)
	}
	// The carrier, with its reader goroutines, is up before the count.
	if err := rc.Connect("c0", "gS"); err != nil {
		t.Fatal(err)
	}
	await(t, rc, "a reply on the first channel", func(*Ctx) bool { return replies.Load() == 1 })
	before := runtime.NumGoroutine()
	for i := 1; i < n; i++ {
		if err := rc.Connect("c"+strconv.Itoa(i), "gS"); err != nil {
			t.Fatal(err)
		}
		if (i+1)%muxAcceptWave == 0 {
			await(t, rc, "a wave of replies", func(*Ctx) bool { return replies.Load() == int64(i+1) })
		}
	}
	await(t, rc, "a reply on every channel", func(*Ctx) bool { return replies.Load() == n })
	after := runtime.NumGoroutine()
	t.Logf("%d channels: %d goroutines before, %d after", n, before, after)
	if after > before+slack {
		t.Fatalf("%d channels started %d goroutines", n, after-before)
	}
	noErrs(t, rs, rc)
}

// TestCallOverFaultNetwork: a fault network hands on the receive
// contracts of the port it wraps, so runners sit on one directly — over
// an in-memory network, whose ports they pump, and over mux channels,
// whose readiness edge the fault port hands on — and a call completes
// and tears down over it.
func TestCallOverFaultNetwork(t *testing.T) {
	for _, c := range []struct {
		name  string
		under transport.Network
	}{
		{"mem", transport.NewMemNetwork()},
		{"mux", newMuxNet(t)},
	} {
		t.Run(c.name, func(t *testing.T) { callOverFaults(t, c.under) })
	}
}

func callOverFaults(t *testing.T, under transport.Network) {
	net := transport.NewFaultNetwork(under, transport.FaultProfile{Seed: 1})
	caller := NewRunner(New("A", deviceProfile("A", 5004)), net)
	callee := NewRunner(New("B", deviceProfile("B", 5006)), net)
	defer caller.Stop()
	defer callee.Stop()
	if err := callee.Listen("B", nil); err != nil {
		t.Fatal(err)
	}
	if err := caller.Connect("c1", "B"); err != nil {
		t.Fatal(err)
	}
	caller.Do(func(ctx *Ctx) {
		ctx.SetGoal(core.NewOpenSlot(TunnelSlot("c1", 0), sig.Audio, caller.Box().Profile()))
	})
	flowing := func(slot string) func(*Ctx) bool {
		return func(ctx *Ctx) bool {
			s := ctx.Box().Slot(slot)
			return s != nil && s.IsFlowing() && s.Enabled()
		}
	}
	await(t, caller, "caller flowing", flowing(TunnelSlot("c1", 0)))
	await(t, callee, "callee flowing", flowing(TunnelSlot("in0", 0)))
	caller.Do(func(ctx *Ctx) { ctx.Teardown("c1") })
	await(t, caller, "caller's channel gone", func(ctx *Ctx) bool { return !ctx.Box().HasChannel("c1") })
	await(t, callee, "callee's channel gone", func(ctx *Ctx) bool {
		return !ctx.Box().HasChannel("in0") && callee.port("in0") == nil
	})
	noErrs(t, caller, callee)
}
