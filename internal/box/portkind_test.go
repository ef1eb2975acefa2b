package box

import (
	"runtime"
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
