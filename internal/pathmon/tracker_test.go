package pathmon

import (
	"sync"
	"testing"
	"time"

	"ipmedia/internal/box"
	"ipmedia/internal/core"
	"ipmedia/internal/ltl"
	"ipmedia/internal/sig"
	"ipmedia/internal/telemetry"
	"ipmedia/internal/transport"
)

// holdNet is a mem network whose dialed ports can be told to hold what
// is sent on them: envelopes queue up, and go out in order on release.
// In threeBoxPath M dials both devices, so holding stalls every signal
// M originates or forwards, in both directions.
type holdNet struct {
	transport.Network
	mu      sync.Mutex
	holding bool
	held    []func()
}

func newHoldNet() *holdNet { return &holdNet{Network: transport.NewMemNetwork()} }

func (n *holdNet) Dial(addr string) (transport.Port, error) {
	p, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &holdPort{Port: p, BatchPort: p.(transport.BatchPort), net: n}, nil
}

func (n *holdNet) hold() {
	n.mu.Lock()
	n.holding = true
	n.mu.Unlock()
}

func (n *holdNet) release() {
	n.mu.Lock()
	for _, send := range n.held {
		send()
	}
	n.held, n.holding = nil, false
	n.mu.Unlock()
}

type holdPort struct {
	transport.Port
	transport.BatchPort
	net *holdNet
}

func (p *holdPort) Send(e sig.Envelope) error {
	n := p.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.holding {
		n.held = append(n.held, func() { p.Port.Send(e) })
		return nil
	}
	return p.Port.Send(e)
}

// threeBoxPath builds the L -- M -- R topology of the monitor tests
// over net: a flowlink at M joining one tunnel to each device, and a
// monitor wired with both tunnels. lCodecs/rCodecs control media
// agreement.
func threeBoxPath(t *testing.T, net transport.Network, lCodecs, rCodecs []sig.Codec) (*Monitor, *box.Runner) {
	t.Helper()
	l := box.NewRunner(box.New("L", core.NewEndpointProfile("L", "hL", 1, lCodecs, lCodecs)), net)
	r := box.NewRunner(box.New("R", core.NewEndpointProfile("R", "hR", 2, rCodecs, rCodecs)), net)
	mid := box.NewRunner(box.New("M", core.ServerProfile{Name: "M"}), net)
	t.Cleanup(func() { l.Stop(); r.Stop(); mid.Stop() })
	for _, step := range []func() error{
		func() error { return l.Listen("L", nil) },
		func() error { return r.Listen("R", nil) },
		func() error { return mid.Connect("cl", "L") },
		func() error { return mid.Connect("cr", "R") },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	mid.Do(func(ctx *box.Ctx) {
		ctx.SetGoal(core.NewFlowLink(box.TunnelSlot("cl", 0), box.TunnelSlot("cr", 0)))
	})
	await(t, "L's channel", func() bool {
		ok := false
		l.Do(func(ctx *box.Ctx) { ok = ctx.Box().HasChannel("in0") })
		return ok
	})
	m := New()
	m.AddBox(l)
	m.AddBox(r)
	m.AddBox(mid)
	m.Tunnel("M", box.TunnelSlot("cl", 0), "L", box.TunnelSlot("in0", 0))
	m.Tunnel("M", box.TunnelSlot("cr", 0), "R", box.TunnelSlot("in0", 0))
	return m, l
}

// TestTrackerRecoveryAndQuiescence: a recurrence path that is knocked
// down and repaired contributes a recovery latency observation and no
// violation; after a clean close, Drain reports nothing wedged.
func TestTrackerRecoveryAndQuiescence(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)
	g711 := []sig.Codec{sig.G711}
	net := newHoldNet()
	m, l := threeBoxPath(t, net, g711, g711)
	tk := NewTracker(m, 5*time.Second)

	open := func() {
		l.Do(func(ctx *box.Ctx) {
			ctx.SetGoal(core.NewOpenSlot(box.TunnelSlot("in0", 0), sig.Audio, l.Box().Profile()))
		})
	}
	closeGoal := func() {
		l.Do(func(ctx *box.Ctx) {
			ctx.SetGoal(core.NewCloseSlot(box.TunnelSlot("in0", 0)))
		})
	}
	pollUntil := func(what string, pred func([]PathReport) bool) {
		t.Helper()
		await(t, what, func() bool {
			reports, err := tk.Poll()
			if err != nil {
				t.Fatal(err)
			}
			return pred(reports)
		})
	}
	flowing := func(reports []PathReport) bool {
		rep, ok := Find(reports, "L", "R")
		return ok && rep.Obs.BothFlowing
	}

	closed := func(reports []PathReport) bool {
		rep, ok := Find(reports, "L", "R")
		return ok && rep.Obs.BothClosed
	}

	open()
	pollUntil("path flowing", flowing)
	// Perturb and repair: close, then reopen over a wire that holds the
	// open back until a poll has seen the path down under its recurrence
	// formula — an outage no poll observes is no outage to the tracker.
	closeGoal()
	pollUntil("path closed", closed)
	net.hold()
	open()
	pollUntil("the outage, held to the recurrence formula", func(reports []PathReport) bool {
		rep, ok := Find(reports, "L", "R")
		return ok && rep.Spec == ltl.RecFlowing && !rep.Obs.BothFlowing
	})
	net.release()
	pollUntil("path flowing again", flowing)

	st := tk.Stats()
	if len(st.Violations) != 0 {
		t.Fatalf("repaired path produced violations: %v", st.Violations)
	}
	if len(st.Recoveries) == 0 {
		t.Fatal("repaired outage produced no recovery observation")
	}
	if reg.Histogram(MetricRecoveryLatency).Snapshot().Count == 0 {
		t.Fatal("recovery latency histogram empty")
	}

	// Quiesce and drain: nothing may be wedged.
	closeGoal()
	pollUntil("path closed", closed)
	wedged, err := tk.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(wedged) != 0 {
		t.Fatalf("clean shutdown left wedged paths: %v", wedged)
	}
}

// rep builds a synthetic specified report for white-box advance tests.
func rep(spec ltl.PathProp, closed, flowing bool) PathReport {
	return PathReport{Spec: spec, Specified: true,
		Obs: ltl.Obs{BothClosed: closed, BothFlowing: flowing}}
}

// TestTrackerBoundViolation drives the per-path temporal state machine
// directly: an outage on a recurrence path is flagged exactly once per
// outage when the bound expires, and a new outage after recovery is
// flagged again.
func TestTrackerBoundViolation(t *testing.T) {
	tk := NewTracker(New(), 50*time.Millisecond)
	tr := &pathTrace{}
	t0 := time.Now()
	at := func(d time.Duration) time.Time { return t0.Add(d) }

	// Flow, then go down: no violation until the bound expires.
	tk.advance("p", rep(ltl.RecFlowing, false, true), tr, at(0))
	tk.advance("p", rep(ltl.RecFlowing, false, false), tr, at(10*time.Millisecond))
	tk.advance("p", rep(ltl.RecFlowing, false, false), tr, at(40*time.Millisecond))
	if n := len(tk.Stats().Violations); n != 0 {
		t.Fatalf("violation before bound expired: %v", tk.Stats().Violations)
	}
	tk.advance("p", rep(ltl.RecFlowing, false, false), tr, at(70*time.Millisecond))
	tk.advance("p", rep(ltl.RecFlowing, false, false), tr, at(90*time.Millisecond))
	if n := len(tk.Stats().Violations); n != 1 {
		t.Fatalf("outage past bound flagged %d times, want 1", n)
	}
	// Recovery: latency recorded from the start of the outage.
	tk.advance("p", rep(ltl.RecFlowing, false, true), tr, at(100*time.Millisecond))
	st := tk.Stats()
	if len(st.Recoveries) != 1 || st.Recoveries[0] != 90*time.Millisecond {
		t.Fatalf("recoveries = %v, want [90ms]", st.Recoveries)
	}
	// A second outage is a fresh violation.
	tk.advance("p", rep(ltl.RecFlowing, false, false), tr, at(110*time.Millisecond))
	tk.advance("p", rep(ltl.RecFlowing, false, false), tr, at(200*time.Millisecond))
	if n := len(tk.Stats().Violations); n != 2 {
		t.Fatalf("second outage flagged %d times total, want 2", n)
	}

	// Stability spec: transient flowing tolerated, sustained flagged once.
	trS := &pathTrace{}
	tk2 := NewTracker(New(), 50*time.Millisecond)
	tk2.advance("s", rep(ltl.StabClosed, false, true), trS, at(0))
	tk2.advance("s", rep(ltl.StabClosed, true, false), trS, at(10*time.Millisecond))
	if n := len(tk2.Stats().Violations); n != 0 {
		t.Fatalf("transient flowing flagged: %v", tk2.Stats().Violations)
	}
	tk2.advance("s", rep(ltl.StabClosed, false, true), trS, at(20*time.Millisecond))
	tk2.advance("s", rep(ltl.StabClosed, false, true), trS, at(100*time.Millisecond))
	tk2.advance("s", rep(ltl.StabClosed, false, true), trS, at(150*time.Millisecond))
	if n := len(tk2.Stats().Violations); n != 1 {
		t.Fatalf("sustained flowing on stability path flagged %d times, want 1", n)
	}

	// hold/hold: before ever flowing it is held to stability; once it
	// flows, to recurrence.
	trH := &pathTrace{}
	tk3 := NewTracker(New(), 50*time.Millisecond)
	tk3.advance("h", rep(ltl.ClosedOrFlowing, true, false), trH, at(0))
	tk3.advance("h", rep(ltl.ClosedOrFlowing, true, false), trH, at(100*time.Millisecond))
	if n := len(tk3.Stats().Violations); n != 0 {
		t.Fatalf("closed hold/hold path flagged: %v", tk3.Stats().Violations)
	}
	tk3.advance("h", rep(ltl.ClosedOrFlowing, false, true), trH, at(110*time.Millisecond))
	tk3.advance("h", rep(ltl.ClosedOrFlowing, false, false), trH, at(120*time.Millisecond))
	tk3.advance("h", rep(ltl.ClosedOrFlowing, false, false), trH, at(200*time.Millisecond))
	if n := len(tk3.Stats().Violations); n != 1 {
		t.Fatalf("committed hold/hold outage flagged %d times, want 1", n)
	}
}

// TestWedgedClassification: the quiescent reading per spec, including
// the half-open state no spec accepts.
func TestWedgedClassification(t *testing.T) {
	cases := []struct {
		rep    PathReport
		wedged bool
	}{
		{rep(ltl.StabClosed, true, false), false},
		{rep(ltl.StabClosed, false, false), true}, // half-open
		{rep(ltl.StabClosed, false, true), true},
		{rep(ltl.StabNotFlowing, false, false), false},
		{rep(ltl.StabNotFlowing, false, true), true},
		{rep(ltl.RecFlowing, false, true), false},
		{rep(ltl.RecFlowing, false, false), true},
		{rep(ltl.ClosedOrFlowing, true, false), false},
		{rep(ltl.ClosedOrFlowing, false, true), false},
		{rep(ltl.ClosedOrFlowing, false, false), true}, // half-open
		{PathReport{Specified: false}, false},
	}
	for i, c := range cases {
		got := wedgedIn([]PathReport{c.rep})
		if (len(got) > 0) != c.wedged {
			t.Fatalf("case %d (%v): wedged=%v, want %v", i, c.rep, got, c.wedged)
		}
	}
}
