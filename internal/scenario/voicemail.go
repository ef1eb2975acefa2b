// Voicemail: a DFC-style feature box built from the four primitives.
// The paper motivates application servers with exactly this service:
// "an application server can provide a persistent network presence,
// such as voicemail, for handheld devices" (Section I). The box sits
// in the caller's signaling path toward the subscriber; if the
// subscriber does not answer in time, the box redirects the caller's
// media channel to a recorder resource — a flowlink retarget, the same
// move the prepaid-card server makes toward its IVR.
package scenario

import (
	"time"

	"ipmedia/internal/box"
	"ipmedia/internal/core"
	"ipmedia/internal/sig"
	"ipmedia/internal/transport"
)

// VoicemailConfig parameterizes the feature box.
type VoicemailConfig struct {
	// Addr is the box's own listen address (callers dial it).
	Addr string
	// SubscriberAddr is the protected device.
	SubscriberAddr string
	// RecorderAddr is the recording resource.
	RecorderAddr string
	// NoAnswer is how long to ring before diverting to the recorder.
	NoAnswer time.Duration
}

// Voicemail slot names: the caller's accepted channel is in0; the
// subscriber leg is "sub"; the recorder leg is "rec".
const (
	vmIn  = "in0.t0"
	vmSub = "sub.t0"
	vmRec = "rec.t0"
)

// NewVoicemail starts a voicemail feature box. The returned channel
// reports the terminal state name ("connected" call completed, or
// "recorded" a message was taken) when the feature instance ends.
func NewVoicemail(net transport.Network, cfg VoicemailConfig) (*box.Runner, <-chan string, error) {
	if cfg.NoAnswer == 0 {
		cfg.NoAnswer = time.Hour
	}
	b := box.New("VM", core.ServerProfile{Name: "VM"})
	r := box.NewRunner(b, net)
	done := make(chan string, 1)

	flowing := func(s string) box.Guard {
		return func(ctx *box.Ctx) bool { return ctx.IsFlowing(s) }
	}
	torn := func(ch string) box.Guard {
		return func(ctx *box.Ctx) bool { return ctx.OnMeta(ch, sig.MetaTeardown) }
	}
	finish := func(how string) func(*box.Ctx) {
		return func(*box.Ctx) {
			select {
			case done <- how:
			default:
			}
		}
	}

	prog := &box.Program{
		Initial: "idle",
		States: []*box.State{
			{
				// Waiting for a caller. The first incoming channel is
				// in0; its first signal (the caller's open) is guarded by
				// the opening predicate.
				Name: "idle",
				Trans: []box.Trans{
					{When: func(ctx *box.Ctx) bool { return ctx.IsOpened(vmIn) || ctx.IsFlowing(vmIn) }, To: "trying",
						Do: func(ctx *box.Ctx) {
							ctx.Dial("sub", cfg.SubscriberAddr)
							ctx.SetTimer("noanswer", cfg.NoAnswer)
						}},
				},
			},
			{
				// Ring the subscriber, splicing the caller through.
				Name:   "trying",
				Annots: []box.Annot{box.FlowLinkAnn(vmIn, vmSub)},
				Trans: []box.Trans{
					{When: flowing(vmSub), To: "connected",
						Do: func(ctx *box.Ctx) { ctx.CancelTimer("noanswer") }},
					{When: func(ctx *box.Ctx) bool { return ctx.OnTimer("noanswer") }, To: "recording",
						Do: func(ctx *box.Ctx) { ctx.Dial("rec", cfg.RecorderAddr) }},
					{When: torn("in0"), To: "terminate",
						Do: func(ctx *box.Ctx) { ctx.Teardown("sub"); finish("abandoned")(ctx) }},
				},
			},
			{
				// The subscriber answered: stay out of the way.
				Name:   "connected",
				Annots: []box.Annot{box.FlowLinkAnn(vmIn, vmSub)},
				Trans: []box.Trans{
					{When: torn("in0"), To: "terminate",
						Do: func(ctx *box.Ctx) { ctx.Teardown("sub"); finish("connected")(ctx) }},
					{When: torn("sub"), To: "terminate",
						Do: func(ctx *box.Ctx) { ctx.Teardown("in0"); finish("connected")(ctx) }},
				},
			},
			{
				// No answer: close the subscriber leg and divert the
				// caller to the recorder. The explicit closeSlot on the
				// abandoned leg is the program saying what happens to it.
				Name: "recording",
				Annots: []box.Annot{
					box.FlowLinkAnn(vmIn, vmRec),
					box.CloseSlotAnn(vmSub),
				},
				Trans: []box.Trans{
					{When: torn("in0"), To: "terminate", Do: func(ctx *box.Ctx) {
						ctx.Teardown("sub")
						ctx.Teardown("rec")
						finish("recorded")(ctx)
					}},
				},
			},
			{Name: "terminate"},
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
