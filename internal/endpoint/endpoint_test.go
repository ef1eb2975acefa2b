package endpoint

import (
	"testing"
	"time"

	"ipmedia/internal/box"
	"ipmedia/internal/media"
	"ipmedia/internal/sig"
	"ipmedia/internal/transport"
)

type fixture struct {
	t     *testing.T
	net   *transport.MemNetwork
	plane *media.Plane
	stops []func()
}

func newFixture(t *testing.T) *fixture {
	return &fixture{t: t, net: transport.NewMemNetwork(), plane: media.NewPlane()}
}

func (f *fixture) device(name string, port int, auto bool) *Device {
	d, err := NewDevice(Config{
		Name: name, Net: f.net, Plane: f.plane,
		MediaPort: port, AutoAccept: auto,
	})
	if err != nil {
		f.t.Fatal(err)
	}
	f.stops = append(f.stops, d.Stop)
	return d
}

func (f *fixture) cleanup() {
	for _, s := range f.stops {
		s()
	}
}

func (f *fixture) eventually(what string, pred func() bool) {
	f.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	f.t.Fatalf("timeout waiting for %s", what)
}

// TestDeviceCallAnswerMediaFlows: the full Figure 5 lifecycle between
// two real devices over the in-memory network, with packets observed
// on the media plane.
func TestDeviceCallAnswerMediaFlows(t *testing.T) {
	f := newFixture(t)
	defer f.cleanup()
	a := f.device("A", 5004, false)
	b := f.device("B", 5006, false)

	if err := a.Call("c", "B", sig.Audio); err != nil {
		t.Fatal(err)
	}
	f.eventually("B ringing", func() bool { return len(b.Ringing()) == 1 })
	ring := b.Ringing()[0]
	b.Answer(ring)

	f.eventually("media both ways", func() bool {
		return f.plane.HasFlow("A", "B") && f.plane.HasFlow("B", "A")
	})
	// The accept window on each side opens asynchronously with the
	// transmit flow, so keep ticking until packets land both ways.
	f.eventually("packets accepted both ways", func() bool {
		f.plane.Tick(1)
		return a.Agent().Stats().Accepted > 0 && b.Agent().Stats().Accepted > 0
	})

	// Hang up: media stops, channels are destroyed on both sides.
	a.HangUp("c")
	f.eventually("media stopped", func() bool {
		return len(f.plane.Flows()) == 0
	})
}

// TestDeviceReject: the callee rejects; the caller's openslot will
// retry (its goal persists), so the callee keeps rejecting — the
// openslot-vs-closeslot path. The caller then gives up by hanging up.
func TestDeviceReject(t *testing.T) {
	f := newFixture(t)
	defer f.cleanup()
	a := f.device("A", 5004, false)
	b := f.device("B", 5006, false)
	if err := a.Call("c", "B", sig.Audio); err != nil {
		t.Fatal(err)
	}
	f.eventually("B ringing", func() bool { return len(b.Ringing()) == 1 })
	b.Reject(b.Ringing()[0])
	// Media must never flow.
	for i := 0; i < 50; i++ {
		if f.plane.HasFlow("A", "B") || f.plane.HasFlow("B", "A") {
			t.Fatal("media must not flow on a rejected call")
		}
		time.Sleep(time.Millisecond)
	}
	a.HangUp("c")
}

// TestDeviceMuteMidCall: modify events while flowing (paper Figure 5).
func TestDeviceMuteMidCall(t *testing.T) {
	f := newFixture(t)
	defer f.cleanup()
	a := f.device("A", 5004, false)
	f.device("B", 5006, true) // auto-accepts

	if err := a.Call("c", "B", sig.Audio); err != nil {
		t.Fatal(err)
	}
	f.eventually("media both ways", func() bool {
		return f.plane.HasFlow("A", "B") && f.plane.HasFlow("B", "A")
	})

	// A mutes its microphone: A->B stops, B->A continues.
	a.SetMute(false, true)
	f.eventually("A->B muted", func() bool {
		return !f.plane.HasFlow("A", "B") && f.plane.HasFlow("B", "A")
	})

	// A also mutes its speaker: B must stop sending (it answers A's
	// noMedia descriptor with a noMedia selector).
	a.SetMute(true, true)
	f.eventually("B->A muted", func() bool {
		return !f.plane.HasFlow("B", "A")
	})

	// Unmute: both directions recover (the recurrence property).
	a.SetMute(false, false)
	f.eventually("both directions restored", func() bool {
		return f.plane.HasFlow("A", "B") && f.plane.HasFlow("B", "A")
	})
}

// TestUnavailableDevice: a device configured unavailable answers setup
// with the unavailable meta-signal.
func TestUnavailableDevice(t *testing.T) {
	f := newFixture(t)
	defer f.cleanup()
	d, err := NewDevice(Config{Name: "gone", Net: f.net, Plane: f.plane, Unavailable: true})
	if err != nil {
		t.Fatal(err)
	}
	f.stops = append(f.stops, d.Stop)

	got := make(chan sig.MetaKind, 1)
	probe := box.New("probe", DefaultCodecsProfile("probe"))
	probe.Hook = func(ctx *box.Ctx, ev *box.Event) {
		if ev.Kind == box.EvEnvelope && ev.Env.IsMeta() {
			k := ev.Env.Meta.Kind
			if k == sig.MetaAvailable || k == sig.MetaUnavailable {
				select {
				case got <- k:
				default:
				}
			}
		}
	}
	r := box.NewRunner(probe, f.net)
	f.stops = append(f.stops, r.Stop)
	if err := r.Connect("c", "gone"); err != nil {
		t.Fatal(err)
	}
	select {
	case k := <-got:
		if k != sig.MetaUnavailable {
			t.Fatalf("got %s, want unavailable", k)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no availability meta received")
	}
}

// TestToneGeneratorPlaysIntoChannel: a tone generator accepts an audio
// channel and transmits into it.
func TestToneGeneratorPlaysIntoChannel(t *testing.T) {
	f := newFixture(t)
	defer f.cleanup()
	tone, err := NewToneGenerator("tone", f.net, f.plane)
	if err != nil {
		t.Fatal(err)
	}
	f.stops = append(f.stops, tone.Stop)
	a := f.device("A", 5004, false)
	if err := a.Call("t", "tone", sig.Audio); err != nil {
		t.Fatal(err)
	}
	f.eventually("tone flowing to A", func() bool { return f.plane.HasFlow("tone", "A") })
}

// TestBridgeConference: three devices connected to a bridge (paper
// Figure 7): each user's media goes to its own bridge leg, and the
// bridge transmits the mix back on each leg.
func TestBridgeConference(t *testing.T) {
	f := newFixture(t)
	defer f.cleanup()
	br, err := NewBridge("bridge", f.net, f.plane)
	if err != nil {
		t.Fatal(err)
	}
	f.stops = append(f.stops, br.Stop)

	devices := []*Device{
		f.device("A", 5004, false),
		f.device("B", 5006, false),
		f.device("C", 5008, false),
	}
	for _, d := range devices {
		if err := d.Call("conf", "bridge", sig.Audio); err != nil {
			t.Fatal(err)
		}
	}
	// Each device sends to its leg, and each leg mixes the other two
	// back out.
	f.eventually("full conference media", func() bool {
		for i, d := range devices {
			leg := "in" + string(rune('0'+i))
			if !f.plane.HasFlow(d.Name(), "bridge/"+leg) {
				return false
			}
			if !f.plane.HasFlow("bridge/"+leg, d.Name()) {
				return false
			}
		}
		return true
	})

	// Emergency-services muting (paper Section IV-B): B (the caller)
	// must not hear what the emergency personnel say: B's output mix is
	// empty, so the bridge stops transmitting toward B; media from B
	// into the bridge continues.
	br.Runner().Do(func(ctx *box.Ctx) {})
	devices[0].SendApp("conf", "mix", sig.NewAttrs("out", "in1", "in", ""))
	// The mix signal travels on A's channel? No: applications signal
	// the bridge on their own channels; here we post it via B's channel
	// owner for simplicity — any channel reaches the same bridge box.
	f.eventually("B's mix silenced", func() bool {
		return !f.plane.HasFlow("bridge/in1", "B") && f.plane.HasFlow("B", "bridge/in1")
	})
	if h := br.Hears("in1"); len(h) != 0 {
		t.Fatalf("B must hear nobody, hears %v", h)
	}
	// Whisper coaching: A hears B and C; B hears only A... configure
	// and verify the mix matrix.
	devices[0].SendApp("conf", "mix", sig.NewAttrs("out", "in1", "in", "in0"))
	f.eventually("whisper mix applied", func() bool {
		h := br.Hears("in1")
		return len(h) == 1 && h[0] == "in0"
	})
}

// TestBridgeLegNamesAreNotReused: a leg that joins after another has
// left is a new leg under a new name. What the bridge keeps under the
// departed leg's name — the mix row an application silenced it with, its
// place in the other legs' rows, its profile and media agent — is not
// inherited by the newcomer, as it would be if the bridge's listener
// handed accept names out again (the Runner.Listen default).
func TestBridgeLegNamesAreNotReused(t *testing.T) {
	f := newFixture(t)
	defer f.cleanup()
	br, err := NewBridge("bridge", f.net, f.plane)
	if err != nil {
		t.Fatal(err)
	}
	f.stops = append(f.stops, br.Stop)
	legs := func() int {
		n := 0
		br.Runner().Do(func(ctx *box.Ctx) { n = len(ctx.Box().Channels()) })
		return n
	}

	a := f.device("A", 5004, false)
	b := f.device("B", 5006, false)
	for _, d := range []*Device{a, b} {
		if err := d.Call("conf", "bridge", sig.Audio); err != nil {
			t.Fatal(err)
		}
	}
	f.eventually("A and B in conference", func() bool {
		return f.plane.HasFlow("bridge/in0", "A") && f.plane.HasFlow("bridge/in1", "B")
	})
	// B is silenced, A is told to hear only B, and B hangs up.
	a.SendApp("conf", "mix", sig.NewAttrs("out", "in1", "in", ""))
	a.SendApp("conf", "mix", sig.NewAttrs("out", "in0", "in", "in1"))
	f.eventually("mix applied", func() bool {
		h := br.Hears("in0")
		return len(br.Hears("in1")) == 0 && len(h) == 1 && h[0] == "in1"
	})
	b.HangUp("conf")
	f.eventually("B's leg gone", func() bool { return legs() == 1 })

	c := f.device("C", 5008, false)
	if err := c.Call("conf", "bridge", sig.Audio); err != nil {
		t.Fatal(err)
	}
	f.eventually("C joined", func() bool { return legs() == 2 })
	br.Runner().Do(func(ctx *box.Ctx) {
		if ctx.Box().HasChannel("in1") || !ctx.Box().HasChannel("in2") {
			t.Errorf("C's leg is one of %v, want in2", ctx.Box().Channels())
		}
	})
	// C hears everyone (the default mix), on an agent of its own; A's
	// row still names B's leg, so A does not hear C until told to.
	f.eventually("the bridge mixes toward C", func() bool {
		return f.plane.HasFlow("C", "bridge/in2") && f.plane.HasFlow("bridge/in2", "C")
	})
	if h := br.Hears("in2"); len(h) != 2 || h[0] != "in0" || h[1] != "in1" {
		t.Errorf("C hears %v, want the default mix of every other leg [in0 in1]", h)
	}
	if h := br.Hears("in0"); len(h) != 1 || h[0] != "in1" {
		t.Errorf("A hears %v, want only the leg it asked for [in1]", h)
	}
	if f.plane.HasFlow("bridge/in1", "C") {
		t.Error("the departed leg's agent transmits to C")
	}
}

// TestMovieServerCollaborativeSession: one channel, several tunnels,
// one time pointer (paper Figure 8).
func TestMovieServerCollaborativeSession(t *testing.T) {
	f := newFixture(t)
	defer f.cleanup()
	ms, err := NewMovieServer("movies", f.net, f.plane)
	if err != nil {
		t.Fatal(err)
	}
	f.stops = append(f.stops, ms.Stop)

	// A collaborative-control box dials the server; we drive a plain
	// box directly as the control box for the test.
	ctl := box.New("ctl", DefaultCodecsProfile("ctl"))
	r := box.NewRunner(ctl, f.net)
	f.stops = append(f.stops, r.Stop)
	if err := r.Connect("m", "movies"); err != nil {
		t.Fatal(err)
	}
	r.Do(func(ctx *box.Ctx) {
		ctx.SendMeta("m", sig.Meta{Kind: sig.MetaSetup, Attrs: sig.NewAttrs("movie", "casablanca", "pos", "100")})
	})
	f.eventually("session created", func() bool {
		s, ok := ms.Session("in0")
		return ok && s.Movie == "casablanca" && s.Pos == 100 && !s.Playing
	})
	r.Do(func(ctx *box.Ctx) {
		ctx.SendMeta("m", sig.Meta{Kind: sig.MetaApp, App: "play"})
	})
	f.eventually("playing", func() bool {
		s, _ := ms.Session("in0")
		return s.Playing
	})
	r.Do(func(ctx *box.Ctx) {
		ctx.SendMeta("m", sig.Meta{Kind: sig.MetaApp, App: "seek", Attrs: sig.NewAttrs("pos", "0")})
		ctx.SendMeta("m", sig.Meta{Kind: sig.MetaApp, App: "pause"})
	})
	f.eventually("paused at 0", func() bool {
		s, _ := ms.Session("in0")
		return !s.Playing && s.Pos == 0
	})
	if ms.SessionCount() != 1 {
		t.Fatalf("want 1 session, have %d", ms.SessionCount())
	}
	r.Do(func(ctx *box.Ctx) { ctx.Teardown("m") })
	f.eventually("session gone", func() bool { return ms.SessionCount() == 0 })
}
