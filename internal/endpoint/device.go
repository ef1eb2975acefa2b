// Package endpoint implements media endpoints: user devices presenting
// the user interface of paper Figure 5 over a slot, and the
// media-processing resources the paper's services rely on — tone
// generators, audio-signaling IVRs, conference bridges, and movie
// servers (paper Sections I, II, and IV-B).
//
// Endpoints are boxes like any other: they run the same goal
// primitives, with the one difference that users at media endpoints
// have full freedom to choose the mute flags (paper Section V).
package endpoint

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ipmedia/internal/box"
	"ipmedia/internal/core"
	"ipmedia/internal/media"
	"ipmedia/internal/sig"
	"ipmedia/internal/slot"
	"ipmedia/internal/transport"
)

// DefaultCodecs is the codec menu devices offer unless configured
// otherwise, in descending priority (paper Section VI-A).
var DefaultCodecs = []sig.Codec{sig.G711, sig.G726}

// DefaultCodecsProfile builds an endpoint profile at name:5004 with
// the default codec menus, a convenience for tests and examples that
// drive a bare box as an endpoint.
func DefaultCodecsProfile(name string) *core.EndpointProfile {
	return core.NewEndpointProfile(name, name, 5004, DefaultCodecs, DefaultCodecs)
}

// Config configures a Device.
type Config struct {
	Name string
	Net  transport.Network
	// Plane receives the device's media agent; nil disables media
	// simulation.
	Plane media.Registry
	// Addr is the signaling listen address; defaults to Name.
	Addr string
	// MediaAddr/MediaPort is the RTP receiving socket; defaults to
	// Name:5004.
	MediaAddr string
	MediaPort int
	// RecvCodecs and SendCodecs default to DefaultCodecs.
	RecvCodecs []sig.Codec
	SendCodecs []sig.Codec
	// AutoAccept makes the device accept any incoming open immediately
	// (media resources behave this way); interactive devices ring
	// instead and accept on Answer.
	AutoAccept bool
	// Unavailable makes the device decline setup meta-signals.
	Unavailable bool
	// OnRing, if set, is called when an open arrives on a channel of a
	// non-auto-accept device. Called from the box goroutine: do not
	// call device methods from it synchronously.
	OnRing func(channel string)
	// OnApp, if set, observes application meta-signals. The attrs
	// slice is only valid for the duration of the call (its backing
	// frame is recycled afterwards); the strings read from it are
	// safe to retain.
	OnApp func(channel, app string, attrs []sig.Attr)
	// MediaPace, if nonzero on a plane that supports paced streaming
	// (the UDP plane), runs a continuous transmitter for the device's
	// agent: every MediaPace it sends up to MediaPaceBatch packets
	// (default 1) while the agent is transmitting, so media flows
	// without external Tick driving.
	MediaPace      time.Duration
	MediaPaceBatch int
}

// Device is a media endpoint with the Figure 5 user interface: it can
// place calls (open), ring and answer or reject (accept/close), hang
// up (close), and modify its mute flags mid-channel.
type Device struct {
	name  string
	r     *box.Runner
	prof  *core.EndpointProfile
	agent *media.Agent
	cfg   Config

	mu      sync.Mutex
	ringing map[string]bool
	pacer   *media.Pacer // continuous media transmitter (UDP plane only)
}

// NewDevice creates, registers, and starts a device.
func NewDevice(cfg Config) (*Device, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("endpoint: device needs a name")
	}
	if cfg.Addr == "" {
		cfg.Addr = cfg.Name
	}
	if cfg.MediaAddr == "" {
		cfg.MediaAddr = cfg.Name
	}
	if cfg.MediaPort == 0 {
		cfg.MediaPort = 5004
	}
	if cfg.RecvCodecs == nil {
		cfg.RecvCodecs = DefaultCodecs
	}
	if cfg.SendCodecs == nil {
		cfg.SendCodecs = DefaultCodecs
	}
	prof := core.NewEndpointProfile(cfg.Name, cfg.MediaAddr, cfg.MediaPort, cfg.RecvCodecs, cfg.SendCodecs)
	b := box.New(cfg.Name, prof)
	d := &Device{name: cfg.Name, prof: prof, cfg: cfg, ringing: map[string]bool{}}
	if cfg.Plane != nil {
		d.agent = cfg.Plane.Agent(cfg.Name, media.AddrPort{Addr: cfg.MediaAddr, Port: cfg.MediaPort})
		d.startPacer(d.agent)
	}
	if cfg.AutoAccept {
		b.DefaultGoal = func(slotName string) core.Goal { return core.NewHoldSlot(slotName, prof) }
	} else {
		b.DefaultGoal = func(slotName string) core.Goal { return &ringGoal{names: [1]string{slotName}} }
	}
	b.Hook = d.hook
	d.r = box.NewRunner(b, cfg.Net)
	if err := d.r.Listen(cfg.Addr, nil); err != nil {
		d.r.Stop()
		return nil, err
	}
	return d, nil
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Runner exposes the underlying box runner, mainly for tests.
func (d *Device) Runner() *box.Runner { return d.r }

// Agent returns the device's media agent (nil without a plane).
func (d *Device) Agent() *media.Agent {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.agent
}

// startPacer attaches a continuous media transmitter to agent when the
// device is configured for paced streaming and the plane supports it.
// The pacer self-gates on the agent's transmission state, so it simply
// runs for the device's lifetime.
func (d *Device) startPacer(agent *media.Agent) {
	if d.cfg.MediaPace <= 0 {
		return
	}
	paced, ok := d.cfg.Plane.(media.PacedPlane)
	if !ok {
		return
	}
	d.mu.Lock()
	old := d.pacer
	d.pacer = paced.StartPacer(agent, d.cfg.MediaPace, d.cfg.MediaPaceBatch)
	d.mu.Unlock()
	if old != nil {
		old.Stop()
	}
}

// Stop shuts the device down.
func (d *Device) Stop() {
	d.mu.Lock()
	pc := d.pacer
	d.pacer = nil
	d.mu.Unlock()
	if pc != nil {
		pc.Stop()
	}
	d.r.Stop()
}

// hook runs inside the box goroutine after every event: autonomous
// device behavior plus media-agent refresh.
func (d *Device) hook(ctx *box.Ctx, ev *box.Event) {
	if ev.Kind == box.EvEnvelope && ev.Env.IsMeta() {
		m := ev.Env.Meta
		switch m.Kind {
		case sig.MetaSetup:
			// Announce availability: the meta-signals that "indicate
			// that the intended far endpoint is currently available or
			// unavailable" (paper Section III-A).
			kind := sig.MetaAvailable
			if d.cfg.Unavailable {
				kind = sig.MetaUnavailable
			}
			ctx.SendMeta(ev.Channel, sig.Meta{Kind: kind})
		case sig.MetaApp:
			if d.cfg.OnApp != nil {
				d.cfg.OnApp(ev.Channel, m.App, m.Attrs)
			}
		}
	}
	if ev.Kind == box.EvEnvelope && !ev.Env.IsMeta() && ev.Env.Sig.Kind == sig.KindOpen && !d.cfg.AutoAccept {
		d.mu.Lock()
		d.ringing[ev.Channel] = true
		d.mu.Unlock()
		if d.cfg.OnRing != nil {
			d.cfg.OnRing(ev.Channel)
		}
	}
	// The caller withdrew (close) or the channel is gone: stop ringing.
	if ev.Kind == box.EvEnvelope &&
		((ev.Env.IsMeta() && ev.Env.Meta.Kind == sig.MetaTeardown) ||
			(!ev.Env.IsMeta() && ev.Env.Sig.Kind == sig.KindClose)) {
		d.clearRing(ev.Channel)
	}
	d.refreshAgent(ctx.Box())
}

// refreshAgent recomputes the media agent's sending/expecting state
// from the device's slots. A device has one media socket; if several
// slots are flowing (a transient during switches), the first in slot
// order wins.
func (d *Device) refreshAgent(b *box.Box) {
	agent := d.Agent()
	if agent == nil {
		return
	}
	var sendTo media.AddrPort
	var sendCodec sig.Codec
	var expFrom media.AddrPort
	var expCodec sig.Codec
	listening := false
	for _, name := range b.SlotNames() {
		s := b.Slot(name)
		if s == nil || s.State() != slot.Flowing {
			continue
		}
		h := s.Hist()
		if h.HasDescSent && !h.DescSent.NoMedia() {
			listening = true
		}
		if sendTo.IsZero() && s.Enabled() {
			if dsc, ok := s.Desc(); ok && !dsc.NoMedia() {
				sendTo = media.AddrPort{Addr: dsc.Addr, Port: dsc.Port}
				sendCodec = h.SelSent.Codec
			}
		}
		// A selector always responds to a descriptor (paper Section
		// VI-B): honor it only if it answers our current descriptor.
		if expFrom.IsZero() && h.HasSelRcvd && !h.SelRcvd.NoMedia() &&
			h.HasDescSent && h.SelRcvd.Answers == h.DescSent.ID {
			expFrom = media.AddrPort{Addr: h.SelRcvd.Addr, Port: h.SelRcvd.Port}
			expCodec = h.SelRcvd.Codec
		}
	}
	agent.SetSending(sendTo, sendCodec)
	agent.SetExpecting(expFrom, expCodec, listening)
}

// Call opens a media channel of medium m toward addr, over a new
// signaling channel with the given name (the !open of Figure 5).
func (d *Device) Call(channel, addr string, m sig.Medium) error {
	if err := d.r.Connect(channel, addr); err != nil {
		return err
	}
	d.r.Do(func(ctx *box.Ctx) {
		ctx.SetGoal(core.NewOpenSlot(box.TunnelSlot(channel, 0), m, d.prof))
		d.refreshAgent(ctx.Box())
	})
	return nil
}

// OpenOn opens a media channel of medium m on an existing signaling
// channel (e.g. a device with a permanent channel to its PBX). It
// waits briefly for the channel if it was accepted asynchronously.
func (d *Device) OpenOn(channel string, m sig.Medium) {
	d.r.AwaitChannel(channel, 5*time.Second)
	d.r.Do(func(ctx *box.Ctx) {
		ctx.SetGoal(core.NewOpenSlot(box.TunnelSlot(channel, 0), m, d.prof))
		d.refreshAgent(ctx.Box())
	})
}

// HoldOn switches the device's end of a channel to a holdslot with the
// device's own profile (the normal in-call goal).
func (d *Device) HoldOn(channel string) {
	d.clearRing(channel)
	d.r.Do(func(ctx *box.Ctx) {
		ctx.SetGoal(core.NewHoldSlot(box.TunnelSlot(channel, 0), d.prof))
		d.refreshAgent(ctx.Box())
	})
}

// Ringing returns the channels with unanswered incoming opens.
func (d *Device) Ringing() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.ringing))
	for ch := range d.ringing {
		out = append(out, ch)
	}
	sort.Strings(out)
	return out
}

func (d *Device) clearRing(channel string) {
	d.mu.Lock()
	delete(d.ringing, channel)
	d.mu.Unlock()
}

// Answer accepts the pending open on a channel (the !accept of
// Figure 5).
func (d *Device) Answer(channel string) {
	d.clearRing(channel)
	d.r.Do(func(ctx *box.Ctx) {
		ctx.SetGoal(core.NewHoldSlot(box.TunnelSlot(channel, 0), d.prof))
		d.refreshAgent(ctx.Box())
	})
}

// Reject declines the pending open on a channel (the !reject of
// Figure 5, realized as a close).
func (d *Device) Reject(channel string) {
	d.clearRing(channel)
	d.r.Do(func(ctx *box.Ctx) {
		ctx.SetGoal(core.NewCloseSlot(box.TunnelSlot(channel, 0)))
		d.refreshAgent(ctx.Box())
	})
}

// HangUp destroys the signaling channel entirely, the typical
// single-medium behavior (paper Section IV-B).
func (d *Device) HangUp(channel string) {
	d.clearRing(channel)
	d.r.Do(func(ctx *box.Ctx) {
		ctx.Teardown(channel)
		d.refreshAgent(ctx.Box())
	})
}

// SetMute changes the device's mute flags (the !modify of Figure 5)
// and pushes the change to every goal.
func (d *Device) SetMute(muteIn, muteOut bool) {
	d.r.Do(func(ctx *box.Ctx) {
		inCh := d.prof.SetMuteIn(muteIn)
		outCh := d.prof.SetMuteOut(muteOut)
		if !inCh && !outCh {
			return
		}
		for _, name := range ctx.Box().SlotNames() {
			ctx.Refresh(name, inCh, outCh)
		}
		d.refreshAgent(ctx.Box())
	})
}

// Rehome moves the device's media socket to a new address and port —
// an endpoint changing "its IP address, port number, or codec choice
// without changing its muting" (paper Section VI, footnote 4), the
// mechanism paper Section X-F proposes for mobility. A fresh
// descriptor propagates along every signaling path; far ends answer
// with new selectors and media retargets without re-opening anything.
func (d *Device) Rehome(addr string, port int) {
	d.r.Do(func(ctx *box.Ctx) {
		d.prof.Addr = addr
		d.prof.Port = port
		if d.cfg.Plane != nil {
			fresh := d.cfg.Plane.Agent(d.name, media.AddrPort{Addr: addr, Port: port})
			d.mu.Lock()
			d.agent = fresh
			d.mu.Unlock()
			d.startPacer(fresh)
		}
		for _, name := range ctx.Box().SlotNames() {
			ctx.Refresh(name, true, false)
		}
		d.refreshAgent(ctx.Box())
	})
}

// SendApp emits an application meta-signal on a channel, e.g. the
// "paid" event the IVR resource sends to the prepaid-card server.
func (d *Device) SendApp(channel, app string, attrs []sig.Attr) {
	d.r.Do(func(ctx *box.Ctx) {
		ctx.SendMeta(channel, sig.Meta{Kind: sig.MetaApp, App: app, Attrs: attrs})
	})
}

// SlotState reports the protocol state of the device's slot on a
// channel, for tests and monitoring.
func (d *Device) SlotState(channel string) (st slot.State, enabled bool, ok bool) {
	d.r.Do(func(ctx *box.Ctx) {
		s := ctx.Box().Slot(box.TunnelSlot(channel, 0))
		if s != nil {
			st, enabled, ok = s.State(), s.Enabled(), true
		}
	})
	return st, enabled, ok
}

// ringGoal is the pre-answer goal of an interactive device: it leaves
// an incoming open pending (the user interface is "ringing") and only
// acknowledges protocol obligations. Answer or Reject replace it.
type ringGoal struct {
	names [1]string // the one slot controlled
}

func (g *ringGoal) Kind() string        { return "ringing" }
func (g *ringGoal) SlotNames() []string { return g.names[:] }

func (g *ringGoal) Attach(ss core.Slots) ([]core.Action, error) { return nil, nil }

func (g *ringGoal) OnEvent(ss core.Slots, name string, ev slot.Event, in sig.Signal) ([]core.Action, error) {
	em := core.NewEmitter(ss)
	switch ev {
	case slot.EvClose:
		// Caller gave up before the user answered.
		em.Emit(name, sig.CloseAck())
	default:
		// EvOpen: keep ringing. Everything else cannot occur before an
		// oack is sent.
	}
	acts, err := em.Done()
	return acts, err
}

func (g *ringGoal) Refresh(core.Slots, bool, bool) ([]core.Action, error) { return nil, nil }

func (g *ringGoal) Clone() core.Goal { c := *g; return &c }

func (g *ringGoal) AppendEncode(dst []byte) []byte {
	dst = append(dst, "ring:"...)
	return append(dst, g.names[0]...)
}
