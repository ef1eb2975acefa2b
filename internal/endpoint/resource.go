// Media-processing resources (paper Sections I and IV-B): endpoints
// that perform functions such as playing tones, audio signaling,
// mixing, and media serving. At the signaling level they are ordinary
// endpoints that accept whatever channels are opened toward them.
package endpoint

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ipmedia/internal/box"
	"ipmedia/internal/core"
	"ipmedia/internal/media"
	"ipmedia/internal/sig"
	"ipmedia/internal/slot"
	"ipmedia/internal/transport"
)

// NewToneGenerator creates a tone-generator resource: it accepts any
// audio channel and plays a tone into it (busy tone, ringback) — the
// resource the Click-to-Dial program flowlinks to user 1 in states
// busyTone and ringback (paper Figure 6). "Tone generation in the
// device is often not feasible, because the device will not generate
// tones when it believes it is playing the role of the called party"
// (paper Section IV-B, footnote).
func NewToneGenerator(name string, net transport.Network, plane media.Registry) (*Device, error) {
	return NewDevice(Config{Name: name, Net: net, Plane: plane, AutoAccept: true})
}

// NewIVR creates an audio-signaling resource: announcements, tones,
// touchtone detection (paper Section I). It accepts any audio channel;
// the application drives it with SendApp/OnApp meta-signals, like the
// resource V that verifies prepaid funds in paper Figure 3.
func NewIVR(name string, net transport.Network, plane media.Registry, onApp func(channel, app string, attrs []sig.Attr)) (*Device, error) {
	return NewDevice(Config{Name: name, Net: net, Plane: plane, AutoAccept: true, OnApp: onApp})
}

// Bridge is a conference bridge: a media resource that performs audio
// mixing (paper Figure 7). Each accepted channel is a leg with its own
// media socket; in the direction toward the bridge an audio channel
// carries the voice of a single user, and away from the bridge the
// mixed voices of all the users except the one the channel goes to.
//
// Partial muting — business muting, emergency-services muting, whisper
// coaching — is achieved by the bridge's mix matrix, configured by the
// application server through standardized meta-signals (paper Section
// IV-B): a MetaApp "mix" signal with attrs out=<leg> in=<legs,comma>.
type Bridge struct {
	name string
	r    *box.Runner

	mu     sync.Mutex
	legs   map[string]*core.EndpointProfile // channel -> leg profile
	agents map[string]*media.Agent
	mix    map[string]map[string]bool // out leg -> audible input legs
	nport  int
}

// NewBridge creates and starts a conference bridge listening at its
// name.
func NewBridge(name string, net transport.Network, plane media.Registry) (*Bridge, error) {
	br := &Bridge{
		name:   name,
		legs:   map[string]*core.EndpointProfile{},
		agents: map[string]*media.Agent{},
		mix:    map[string]map[string]bool{},
	}
	b := box.New(name, core.ServerProfile{Name: name})
	b.DefaultGoal = func(slotName string) core.Goal {
		return core.NewHoldSlot(slotName, br.legProfile(slotName, plane))
	}
	b.Hook = func(ctx *box.Ctx, ev *box.Event) {
		if ev.Kind == box.EvEnvelope && ev.Env.IsMeta() {
			m := ev.Env.Meta
			if m.Kind == sig.MetaSetup {
				ctx.SendMeta(ev.Channel, sig.Meta{Kind: sig.MetaAvailable})
			}
			if m.Kind == sig.MetaApp && m.App == "mix" {
				br.applyMix(m)
			}
		}
		br.refreshAgents(ctx.Box())
	}
	br.r = box.NewRunner(b, net)
	// A leg's name is its address in mix requests and the key of its
	// profile, agent and mix row, which outlive the leg: legs are numbered
	// in joining order and a name is never given to a later leg.
	if err := br.r.Listen(name, box.SeqName); err != nil {
		br.r.Stop()
		return nil, err
	}
	return br, nil
}

// legProfile builds (once) the per-leg media profile and agent. Called
// from the box goroutine.
func (br *Bridge) legProfile(slotName string, plane media.Registry) *core.EndpointProfile {
	ch := slotChan(slotName)
	br.mu.Lock()
	defer br.mu.Unlock()
	if p := br.legs[ch]; p != nil {
		return p
	}
	br.nport++
	port := 6000 + br.nport
	p := core.NewEndpointProfile(fmt.Sprintf("%s/%s", br.name, ch), br.name, port, DefaultCodecs, DefaultCodecs)
	br.legs[ch] = p
	if plane != nil {
		br.agents[ch] = plane.Agent(fmt.Sprintf("%s/%s", br.name, ch), media.AddrPort{Addr: br.name, Port: port})
	}
	// Default mix: everyone hears everyone else.
	br.mix[ch] = nil // nil means "all other legs"
	return p
}

// slotChan recovers the channel name from a slot name in the
// box.TunnelSlot convention.
func slotChan(slotName string) string {
	if i := strings.LastIndex(slotName, ".t"); i >= 0 {
		return slotName[:i]
	}
	return slotName
}

// applyMix configures the mix matrix from a "mix" meta-signal.
func (br *Bridge) applyMix(m *sig.Meta) {
	out := m.Get("out")
	if out == "" {
		return
	}
	br.mu.Lock()
	defer br.mu.Unlock()
	set := map[string]bool{}
	if ins := m.Get("in"); ins != "" {
		start := 0
		for i := 0; i <= len(ins); i++ {
			if i == len(ins) || ins[i] == ',' {
				if i > start {
					set[ins[start:i]] = true
				}
				start = i + 1
			}
		}
	}
	br.mix[out] = set
}

// refreshAgents mirrors slot state into the per-leg media agents.
func (br *Bridge) refreshAgents(b *box.Box) {
	br.mu.Lock()
	defer br.mu.Unlock()
	for ch, agent := range br.agents {
		s := b.Slot(box.TunnelSlot(ch, 0))
		var sendTo media.AddrPort
		var sendCodec sig.Codec
		var expFrom media.AddrPort
		var expCodec sig.Codec
		listening := false
		if s != nil && s.State() == slot.Flowing {
			h := s.Hist()
			if h.HasDescSent && !h.DescSent.NoMedia() {
				listening = true
			}
			// The bridge transmits on a leg whenever the leg is enabled
			// AND at least one other leg is audible to it.
			if s.Enabled() && br.audibleInputsLocked(ch, b) > 0 {
				if d, ok := s.Desc(); ok && !d.NoMedia() {
					sendTo = media.AddrPort{Addr: d.Addr, Port: d.Port}
					sendCodec = h.SelSent.Codec
				}
			}
			if h.HasSelRcvd && !h.SelRcvd.NoMedia() {
				expFrom = media.AddrPort{Addr: h.SelRcvd.Addr, Port: h.SelRcvd.Port}
				expCodec = h.SelRcvd.Codec
			}
		}
		agent.SetSending(sendTo, sendCodec)
		agent.SetExpecting(expFrom, expCodec, listening)
	}
}

// audibleInputsLocked counts legs currently feeding audio into the mix
// heard by leg out. br.mu must be held.
func (br *Bridge) audibleInputsLocked(out string, b *box.Box) int {
	allowed := br.mix[out]
	n := 0
	for ch := range br.legs {
		if ch == out {
			continue
		}
		if allowed != nil && !allowed[ch] {
			continue
		}
		s := b.Slot(box.TunnelSlot(ch, 0))
		if s == nil || s.State() != slot.Flowing {
			continue
		}
		if h := s.Hist(); h.HasSelRcvd && !h.SelRcvd.NoMedia() {
			n++ // this leg's user is sending into the bridge
		}
	}
	return n
}

// Hears reports which legs are audible in the mix sent to leg out,
// under the current mix matrix (ignoring signaling state), sorted.
func (br *Bridge) Hears(out string) []string {
	br.mu.Lock()
	defer br.mu.Unlock()
	var in []string
	allowed := br.mix[out]
	for ch := range br.legs {
		if ch == out {
			continue
		}
		if allowed == nil || allowed[ch] {
			in = append(in, ch)
		}
	}
	sort.Strings(in)
	return in
}

// Runner exposes the bridge's box runner.
func (br *Bridge) Runner() *box.Runner { return br.r }

// Stop shuts the bridge down.
func (br *Bridge) Stop() { br.r.Stop() }
