// Transcoder: the media resource of paper Section III-A that is "the
// endpoint of two separate media channels... Internally, the resource
// reads media packets from one channel, performs some signal
// processing such as transcoding on them, and writes the resulting
// packets to the other channel. From a user viewpoint, this resource
// is an application server in the middle of the system, performing
// some almost-transparent operation on one media stream for the
// benefit of two user devices at the periphery. From our viewpoint the
// two streams are distinguishable because they use different data
// encodings."
//
// A transcoder therefore does NOT flowlink its two slots — splicing
// descriptors end to end would force the endpoints to agree on a
// codec, which is exactly what they cannot do. Each side terminates on
// the transcoder's own media socket with that side's codec menu, and
// the resource relays between them.
package endpoint

import (
	"sync"

	"ipmedia/internal/box"
	"ipmedia/internal/core"
	"ipmedia/internal/media"
	"ipmedia/internal/sig"
	"ipmedia/internal/slot"
	"ipmedia/internal/transport"
)

// TranscoderConfig configures a transcoder between two codec worlds.
type TranscoderConfig struct {
	Name  string
	Net   transport.Network
	Plane media.Registry
	// Target is the onward address (side B) dialed when a caller
	// reaches side A.
	Target string
	// ACodecs and BCodecs are the codec menus of the two sides.
	ACodecs []sig.Codec
	BCodecs []sig.Codec
	// MediaAddr/BasePort locate the two media sockets (BasePort for
	// side A, BasePort+2 for side B).
	MediaAddr string
	BasePort  int
}

// Transcoder relays media between two channels with different codecs.
type Transcoder struct {
	name string
	r    *box.Runner
	cfg  TranscoderConfig

	mu     sync.Mutex
	agentA *media.Agent
	agentB *media.Agent
	profA  *core.EndpointProfile
	profB  *core.EndpointProfile
}

// NewTranscoder creates and starts a transcoder listening at its name.
func NewTranscoder(cfg TranscoderConfig) (*Transcoder, error) {
	if cfg.MediaAddr == "" {
		cfg.MediaAddr = cfg.Name
	}
	if cfg.BasePort == 0 {
		cfg.BasePort = 8000
	}
	tc := &Transcoder{name: cfg.Name, cfg: cfg}
	tc.profA = core.NewEndpointProfile(cfg.Name+"/a", cfg.MediaAddr, cfg.BasePort, cfg.ACodecs, cfg.ACodecs)
	tc.profB = core.NewEndpointProfile(cfg.Name+"/b", cfg.MediaAddr, cfg.BasePort+2, cfg.BCodecs, cfg.BCodecs)
	if cfg.Plane != nil {
		tc.agentA = cfg.Plane.Agent(cfg.Name+"/a", media.AddrPort{Addr: cfg.MediaAddr, Port: cfg.BasePort})
		tc.agentB = cfg.Plane.Agent(cfg.Name+"/b", media.AddrPort{Addr: cfg.MediaAddr, Port: cfg.BasePort + 2})
	}

	b := box.New(cfg.Name, tc.profA)
	b.Hook = func(ctx *box.Ctx, ev *box.Event) { tc.refreshAgents(ctx.Box()) }
	prog := &box.Program{
		Initial: "waiting",
		States: []*box.State{
			{
				// An incoming open on side A triggers the onward leg.
				Name: "waiting",
				Trans: []box.Trans{
					{When: func(ctx *box.Ctx) bool {
						return ctx.IsOpened(box.TunnelSlot("in0", 0)) || ctx.IsFlowing(box.TunnelSlot("in0", 0))
					}, To: "bridging",
						Do: func(ctx *box.Ctx) { ctx.Dial("out", cfg.Target) }},
				},
			},
			{
				// Terminate media on both sides with side-local codecs.
				Name: "bridging",
				Annots: []box.Annot{
					{Kind: box.AnnHold, Slot1: box.TunnelSlot("in0", 0), Profile: tc.profA},
					{Kind: box.AnnOpen, Slot1: box.TunnelSlot("out", 0), Medium: sig.Audio, Profile: tc.profB},
				},
				Trans: []box.Trans{
					{When: func(ctx *box.Ctx) bool { return ctx.OnMeta("in0", sig.MetaTeardown) }, To: "done",
						Do: func(ctx *box.Ctx) { ctx.Teardown("out") }},
					{When: func(ctx *box.Ctx) bool { return ctx.OnMeta("out", sig.MetaTeardown) }, To: "done",
						Do: func(ctx *box.Ctx) { ctx.Teardown("in0") }},
				},
			},
			{Name: "done"},
		},
	}
	tc.r = box.NewRunner(b, cfg.Net)
	tc.r.SetProgram(prog)
	// in0 is the first caller, the one this transcoder serves; a later
	// one must not take the name over.
	if err := tc.r.Listen(cfg.Name, box.SeqName); err != nil {
		tc.r.Stop()
		return nil, err
	}
	return tc, nil
}

// refreshAgents mirrors the two slots into the two agents. A side
// transmits whenever the opposite side has live input — the relay.
func (tc *Transcoder) refreshAgents(b *box.Box) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.agentA == nil {
		return
	}
	type side struct {
		s     *slot.Slot
		agent *media.Agent
	}
	sides := [2]side{
		{b.Slot(box.TunnelSlot("in0", 0)), tc.agentA},
		{b.Slot(box.TunnelSlot("out", 0)), tc.agentB},
	}
	// First pass: reception expectations per side.
	var hasInput [2]bool
	for i, sd := range sides {
		var expFrom media.AddrPort
		var expCodec sig.Codec
		listening := false
		if sd.s != nil && sd.s.State() == slot.Flowing {
			h := sd.s.Hist()
			if h.HasDescSent && !h.DescSent.NoMedia() {
				listening = true
			}
			if h.HasSelRcvd && !h.SelRcvd.NoMedia() && h.HasDescSent && h.SelRcvd.Answers == h.DescSent.ID {
				expFrom = media.AddrPort{Addr: h.SelRcvd.Addr, Port: h.SelRcvd.Port}
				expCodec = h.SelRcvd.Codec
				hasInput[i] = true
			}
		}
		sd.agent.SetExpecting(expFrom, expCodec, listening)
	}
	// Second pass: a side transmits iff it is enabled and the OTHER
	// side is feeding it input to transcode.
	for i, sd := range sides {
		var sendTo media.AddrPort
		var sendCodec sig.Codec
		if sd.s != nil && sd.s.State() == slot.Flowing && sd.s.Enabled() && hasInput[1-i] {
			if d, ok := sd.s.Desc(); ok && !d.NoMedia() {
				sendTo = media.AddrPort{Addr: d.Addr, Port: d.Port}
				sendCodec = sd.s.Hist().SelSent.Codec
			}
		}
		sd.agent.SetSending(sendTo, sendCodec)
	}
}

// Runner exposes the transcoder's box runner.
func (tc *Transcoder) Runner() *box.Runner { return tc.r }

// Stop shuts the transcoder down.
func (tc *Transcoder) Stop() { tc.r.Stop() }
