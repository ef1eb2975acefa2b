package box

import (
	"net"
	"testing"
	"time"

	"ipmedia/internal/core"
	"ipmedia/internal/sig"
	"ipmedia/internal/transport"
)

func deviceProfile(name string, port int) *core.EndpointProfile {
	return core.NewEndpointProfile(name, "10.0.0."+name, port,
		[]sig.Codec{sig.G711, sig.G726}, []sig.Codec{sig.G711, sig.G726})
}

// await polls a box-state predicate until it holds or the deadline
// passes.
func await(t testing.TB, r *Runner, what string, pred func(ctx *Ctx) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ok := false
		r.Do(func(ctx *Ctx) { ok = pred(ctx) })
		if ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func noErrs(t *testing.T, rs ...*Runner) {
	t.Helper()
	for _, r := range rs {
		for _, err := range r.Errs() {
			t.Errorf("box %s: %v", r.Box().Name(), err)
		}
	}
}

// TestTwoBoxCall: a device box opens an audio channel to another
// device box over the in-memory network; the callee's default holdslot
// accepts; both reach flowing with media enabled.
func TestTwoBoxCall(t *testing.T) {
	net := transport.NewMemNetwork()
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
	await(t, caller, "caller flowing", func(ctx *Ctx) bool {
		s := ctx.Box().Slot(TunnelSlot("c1", 0))
		return s != nil && s.IsFlowing() && s.Enabled()
	})
	await(t, callee, "callee flowing", func(ctx *Ctx) bool {
		s := ctx.Box().Slot(TunnelSlot("in0", 0))
		return s != nil && s.IsFlowing() && s.Enabled()
	})
	noErrs(t, caller, callee)
}

// TestTCPTwoBoxCall: the same call, over real TCP sockets on loopback.
func TestTCPTwoBoxCall(t *testing.T) {
	var net transport.TCPNetwork
	caller := NewRunner(New("A", deviceProfile("A", 5004)), net)
	callee := NewRunner(New("B", deviceProfile("B", 5006)), net)
	defer caller.Stop()
	defer callee.Stop()
	l, err := net.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr()
	l.Close()
	if err := callee.Listen(addr, nil); err != nil {
		t.Fatal(err)
	}
	if err := caller.Connect("c1", addr); err != nil {
		t.Fatal(err)
	}
	caller.Do(func(ctx *Ctx) {
		ctx.SetGoal(core.NewOpenSlot(TunnelSlot("c1", 0), sig.Audio, caller.Box().Profile()))
	})
	await(t, caller, "caller flowing over TCP", func(ctx *Ctx) bool {
		s := ctx.Box().Slot(TunnelSlot("c1", 0))
		return s != nil && s.IsFlowing() && s.Enabled()
	})
	noErrs(t, caller, callee)
}

// TestThreeBoxFlowLink: a middle box with a program flowlinks two
// device boxes; descriptors splice end to end.
func TestThreeBoxFlowLink(t *testing.T) {
	net := transport.NewMemNetwork()
	a := NewRunner(New("A", deviceProfile("A", 5004)), net)
	b := NewRunner(New("B", deviceProfile("B", 5006)), net)
	mid := NewRunner(New("M", core.ServerProfile{Name: "M"}), net)
	defer a.Stop()
	defer b.Stop()
	defer mid.Stop()
	if err := a.Listen("A", nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Listen("B", nil); err != nil {
		t.Fatal(err)
	}
	// Device A calls: channel toward the middle box? No — in this test
	// the middle box originates channels to both devices and links
	// them, like the Click-to-Dial box after both legs answer.
	if err := mid.Connect("ca", "A"); err != nil {
		t.Fatal(err)
	}
	if err := mid.Connect("cb", "B"); err != nil {
		t.Fatal(err)
	}
	mid.SetProgram(&Program{
		Initial: "linking",
		States: []*State{{
			Name: "linking",
			Annots: []Annot{
				FlowLinkAnn(TunnelSlot("ca", 0), TunnelSlot("cb", 0)),
			},
		}},
	})
	// Device A opens toward the middle box; the flowlink forwards the
	// open to B, whose default holdslot accepts. Wait for A to accept
	// the incoming channel first.
	await(t, a, "A's incoming channel", func(ctx *Ctx) bool { return ctx.Box().HasChannel("in0") })
	a.Do(func(ctx *Ctx) {
		ctx.SetGoal(core.NewOpenSlot(TunnelSlot("in0", 0), sig.Audio, a.Box().Profile()))
	})
	await(t, a, "A flowing", func(ctx *Ctx) bool {
		s := ctx.Box().Slot(TunnelSlot("in0", 0))
		if s == nil || !s.IsFlowing() || !s.Enabled() {
			return false
		}
		d, ok := s.Desc()
		return ok && d.ID.Origin == "B" // spliced: A sees B's descriptor
	})
	await(t, b, "B flowing", func(ctx *Ctx) bool {
		s := ctx.Box().Slot(TunnelSlot("in0", 0))
		if s == nil || !s.IsFlowing() || !s.Enabled() {
			return false
		}
		d, ok := s.Desc()
		return ok && d.ID.Origin == "A"
	})
	noErrs(t, a, b, mid)
}

// TestProgramTransitions: guards, timers, and teardown, in the shape
// of the Click-to-Dial program's timeout branch.
func TestProgramTransitions(t *testing.T) {
	net := transport.NewMemNetwork()
	phone := NewRunner(New("P", deviceProfile("P", 5004)), net)
	ctd := NewRunner(New("CTD", core.ServerProfile{Name: "CTD"}), net)
	defer phone.Stop()
	defer ctd.Stop()
	if err := phone.Listen("P", nil); err != nil {
		t.Fatal(err)
	}
	// The phone does not answer: override its default goal to do
	// nothing (ringing forever).
	phone.Do(func(ctx *Ctx) {
		ctx.Box().DefaultGoal = func(slotName string) core.Goal {
			return core.NewCloseSlot(slotName) // actively rejects, even
		}
	})

	terminated := make(chan struct{})
	ctd.SetProgram(&Program{
		Initial: "oneCall",
		States: []*State{
			{
				Name:   "oneCall",
				Annots: []Annot{OpenSlotAnn(TunnelSlot("1", 0), sig.Audio)},
				OnEnter: func(ctx *Ctx) {
					ctx.Dial("1", "P")
					ctx.SetTimer("giveup", 50*time.Millisecond)
				},
				Trans: []Trans{
					{When: func(ctx *Ctx) bool { return ctx.IsFlowing(TunnelSlot("1", 0)) }, To: "talking"},
					{When: func(ctx *Ctx) bool { return ctx.OnTimer("giveup") }, To: "done",
						Do: func(ctx *Ctx) { ctx.Teardown("1") }},
				},
			},
			{Name: "talking"},
			{Name: "done", OnEnter: func(ctx *Ctx) { close(terminated) }},
		},
	})
	select {
	case <-terminated:
	case <-time.After(5 * time.Second):
		t.Fatal("program did not take the timeout branch")
	}
	ctd.Do(func(ctx *Ctx) {
		if ctx.Box().HasChannel("1") {
			t.Error("teardown must remove the channel")
		}
		if ctx.Box().Slot(TunnelSlot("1", 0)) != nil {
			t.Error("teardown must remove the channel's slots")
		}
	})
	// The phone's side must also have been torn down by the meta.
	await(t, phone, "phone cleanup", func(ctx *Ctx) bool {
		return !ctx.Box().HasChannel("in0")
	})
	noErrs(t, ctd, phone)
}

// TestAnnotationReuse: the same annotation across states must keep the
// same goal object (paper Section IV-B).
func TestAnnotationReuse(t *testing.T) {
	net := transport.NewMemNetwork()
	dev := NewRunner(New("D", deviceProfile("D", 5004)), net)
	srv := NewRunner(New("S", core.ServerProfile{Name: "S"}), net)
	defer dev.Stop()
	defer srv.Stop()
	if err := dev.Listen("D", nil); err != nil {
		t.Fatal(err)
	}

	moved := make(chan struct{})
	srv.SetProgram(&Program{
		Initial: "s1",
		States: []*State{
			{
				Name:    "s1",
				Annots:  []Annot{OpenSlotAnn(TunnelSlot("1", 0), sig.Audio)},
				OnEnter: func(ctx *Ctx) { ctx.Dial("1", "D"); ctx.SetTimer("hop", 10*time.Millisecond) },
				Trans: []Trans{
					{When: func(ctx *Ctx) bool { return ctx.OnTimer("hop") }, To: "s2"},
				},
			},
			{
				Name:    "s2",
				Annots:  []Annot{OpenSlotAnn(TunnelSlot("1", 0), sig.Audio)},
				OnEnter: func(ctx *Ctx) { close(moved) },
			},
		},
	})
	var g1 core.Goal
	srv.Do(func(ctx *Ctx) { g1 = ctx.Box().GoalFor(TunnelSlot("1", 0)) })
	select {
	case <-moved:
	case <-time.After(5 * time.Second):
		t.Fatal("program did not reach s2")
	}
	srv.Do(func(ctx *Ctx) {
		if g2 := ctx.Box().GoalFor(TunnelSlot("1", 0)); g2 != g1 {
			t.Error("identical annotation must keep the same goal object")
		}
	})
	noErrs(t, srv, dev)
}

// TestOpenSlotAnnotationPrecondition: annotating openSlot over a
// non-closed slot is a program error (paper Section IV-A).
func TestOpenSlotAnnotationPrecondition(t *testing.T) {
	net := transport.NewMemNetwork()
	dev := NewRunner(New("D", deviceProfile("D", 5004)), net)
	srv := NewRunner(New("S", core.ServerProfile{Name: "S"}), net)
	defer dev.Stop()
	defer srv.Stop()
	if err := dev.Listen("D", nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.Connect("1", "D"); err != nil {
		t.Fatal(err)
	}
	srv.Do(func(ctx *Ctx) {
		ctx.SetGoal(core.NewOpenSlot(TunnelSlot("1", 0), sig.Audio, core.ServerProfile{Name: "S"}))
	})
	await(t, srv, "opening", func(ctx *Ctx) bool { return !ctx.IsClosed(TunnelSlot("1", 0)) })
	srv.Do(func(ctx *Ctx) {
		outs, err := ctx.Box().SetProgram(&Program{
			Initial: "bad",
			States: []*State{{
				Name:   "bad",
				Annots: []Annot{OpenSlotAnn(TunnelSlot("1", 0), sig.Audio)},
			}},
		})
		_ = outs
		if err == nil {
			t.Error("openSlot annotation over a live slot must fail")
		}
	})
}

// TestDialUnknownAddressSynthesizesUnavailable: a failed dial must
// surface as the unavailable meta-signal, the event the Click-to-Dial
// program's busyTone branch waits for.
func TestDialUnknownAddressSynthesizesUnavailable(t *testing.T) {
	net := transport.NewMemNetwork()
	srv := NewRunner(New("S", core.ServerProfile{Name: "S"}), net)
	defer srv.Stop()
	unreached := make(chan struct{})
	srv.SetProgram(&Program{
		Initial: "trying",
		States: []*State{
			{
				Name:    "trying",
				OnEnter: func(ctx *Ctx) { ctx.Dial("2", "no-such-device") },
				Trans: []Trans{
					{When: func(ctx *Ctx) bool { return ctx.OnMeta("2", sig.MetaUnavailable) }, To: "busy"},
				},
			},
			{Name: "busy", OnEnter: func(ctx *Ctx) { close(unreached) }},
		},
	})
	select {
	case <-unreached:
	case <-time.After(5 * time.Second):
		t.Fatal("unavailable meta not synthesized")
	}
	noErrs(t, srv)
}

// TestForwarderIsTransparentToSignals: a raw forwarder box passes
// signals through untouched in both directions, without acting as a
// protocol endpoint.
func TestForwarderIsTransparentToSignals(t *testing.T) {
	net := transport.NewMemNetwork()
	a := NewRunner(New("A", deviceProfile("A", 5004)), net)
	b := NewRunner(New("B", deviceProfile("B", 5006)), net)
	fwd := NewRunner(New("F", core.ServerProfile{Name: "F"}), net)
	defer a.Stop()
	defer b.Stop()
	defer fwd.Stop()
	if err := b.Listen("B", nil); err != nil {
		t.Fatal(err)
	}
	if err := fwd.Listen("F", nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Connect("c", "F"); err != nil {
		t.Fatal(err)
	}
	fwd.Do(func(ctx *Ctx) {
		ctx.Box().DefaultGoal = func(string) core.Goal { return nil } // replaced below
	})
	// The forwarder box dials onward to B and raw-links the two
	// channels.
	await(t, fwd, "incoming channel", func(ctx *Ctx) bool { return ctx.Box().HasChannel("in0") })
	fwd.Do(func(ctx *Ctx) {
		ctx.Box().DefaultGoal = func(slotName string) core.Goal {
			return core.NewHoldSlot(slotName, ctx.Box().Profile())
		}
		ctx.Dial("out", "B")
		ctx.SetGoal(core.NewForwarder(TunnelSlot("in0", 0), TunnelSlot("out", 0)))
	})
	a.Do(func(ctx *Ctx) {
		ctx.SetGoal(core.NewOpenSlot(TunnelSlot("c", 0), sig.Audio, a.Box().Profile()))
	})
	// End-to-end: A and B reach flowing with each other's descriptors,
	// as if directly connected.
	await(t, a, "A flowing via forwarder", func(ctx *Ctx) bool {
		s := ctx.Box().Slot(TunnelSlot("c", 0))
		if s == nil || !s.IsFlowing() {
			return false
		}
		d, ok := s.Desc()
		return ok && d.ID.Origin == "B"
	})
	noErrs(t, a, b, fwd)
}

// TestGarbageOnTheWire: a box whose TCP peer sends arbitrary bytes
// must shed the connection and clean up, never crash.
func TestGarbageOnTheWire(t *testing.T) {
	var tnet transport.TCPNetwork
	srv := NewRunner(New("S", core.ServerProfile{Name: "S"}), tnet)
	defer srv.Stop()
	l, err := tnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr()
	l.Close()
	if err := srv.Listen(addr, nil); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible-length frame full of garbage, then random noise.
	conn.Write([]byte{0, 0, 0, 5, 0xde, 0xad, 0xbe, 0xef, 0x42})
	conn.Write([]byte("not a frame at all, definitely"))
	conn.Close()
	await(t, srv, "box shed the connection", func(ctx *Ctx) bool {
		return !ctx.Box().HasChannel("in0")
	})
	// The box is still alive and usable.
	srv.Do(func(ctx *Ctx) { ctx.Note("alive") })
	found := false
	for _, n := range srv.Notes() {
		if n == "alive" {
			found = true
		}
	}
	if !found {
		t.Fatal("box did not respond after garbage")
	}
}
