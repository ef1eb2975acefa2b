// Call screening: a second DFC-style feature box, composable in a
// pipeline with others. The paper's development model is exactly this
// — "often adding new functions to a system means adding new servers,
// because adding a new server is far easier than adding functions to
// an existing server" (Section I). A screening box admits or rejects
// callers by identity; admitted calls are flowlinked onward and the
// box becomes transparent, so downstream features (voicemail, the
// PBX, ...) compose without knowing it exists.
package scenario

import (
	"ipmedia/internal/box"
	"ipmedia/internal/core"
	"ipmedia/internal/sig"
	"ipmedia/internal/transport"
)

// ScreenConfig parameterizes a screening box.
type ScreenConfig struct {
	// Addr is the box's listen address.
	Addr string
	// Next is the next hop in the subscriber's feature pipeline.
	Next string
	// Blocked lists caller identities to reject (matched against the
	// "from" attribute of the setup meta-signal).
	Blocked []string
}

// NewScreen starts a screening feature box. The done channel reports
// "screened" when a blocked caller was turned away, or "admitted" when
// a caller was passed through.
func NewScreen(net transport.Network, cfg ScreenConfig) (*box.Runner, <-chan string, error) {
	blocked := map[string]bool{}
	for _, b := range cfg.Blocked {
		blocked[b] = true
	}
	b := box.New("SCR", core.ServerProfile{Name: "SCR"})
	r := box.NewRunner(b, net)
	done := make(chan string, 1)
	report := func(how string) {
		select {
		case done <- how:
		default:
		}
	}

	setupFrom := func(ctx *box.Ctx) (string, bool) {
		ev := ctx.Event()
		if ev == nil || !ctx.OnMeta("in0", sig.MetaSetup) {
			return "", false
		}
		return ev.Env.Meta.Get("from"), true
	}

	prog := &box.Program{
		Initial: "idle",
		States: []*box.State{
			{
				Name: "idle",
				Trans: []box.Trans{
					{When: func(ctx *box.Ctx) bool {
						from, ok := setupFrom(ctx)
						return ok && blocked[from]
					}, To: "screened", Do: func(ctx *box.Ctx) {
						// Slam the door: destroy the caller's channel.
						ctx.Teardown("in0")
						report("screened")
					}},
					{When: func(ctx *box.Ctx) bool {
						from, ok := setupFrom(ctx)
						return ok && !blocked[from]
					}, To: "admitted", Do: func(ctx *box.Ctx) {
						ctx.Dial("next", cfg.Next)
						report("admitted")
					}},
				},
			},
			{
				// Transparent from here on: whatever happens between the
				// caller and the rest of the pipeline is none of this
				// box's business.
				Name:   "admitted",
				Annots: []box.Annot{box.FlowLinkAnn(box.TunnelSlot("in0", 0), box.TunnelSlot("next", 0))},
				Trans: []box.Trans{
					{When: func(ctx *box.Ctx) bool { return ctx.OnMeta("in0", sig.MetaTeardown) }, To: "screened",
						Do: func(ctx *box.Ctx) { ctx.Teardown("next") }},
					{When: func(ctx *box.Ctx) bool { return ctx.OnMeta("next", sig.MetaTeardown) }, To: "screened",
						Do: func(ctx *box.Ctx) { ctx.Teardown("in0") }},
				},
			},
			{Name: "screened"},
		},
	}
	r.SetProgram(prog)
	// in0 is the first caller, the one this feature instance serves; a
	// later one must not take the name over.
	if err := r.Listen(cfg.Addr, box.SeqName); err != nil {
		r.Stop()
		return nil, nil, err
	}
	return r, done, nil
}
