// Package scenario builds the example services of the paper as
// reusable fixtures shared by the integration tests, the runnable
// examples, and cmd/mediasim: the prepaid-card story of Figures 2 and
// 3 (in both the compositional and the uncoordinated regime) and the
// Click-to-Dial program of Figure 6.
package scenario

import (
	"fmt"
	"time"

	"ipmedia/internal/box"
	"ipmedia/internal/core"
	"ipmedia/internal/endpoint"
	"ipmedia/internal/media"
	"ipmedia/internal/sig"
	"ipmedia/internal/transport"
)

// Prepaid is the running prepaid-card configuration of paper Figures 2
// and 3: telephones A, B, and C, the IP PBX serving A, the prepaid-card
// server PC serving C, and the audio-signaling resource V that PC uses
// to collect additional funds.
//
//	A ── PBX ── B          C ── PC ── V
//	      └────── PC ───────┘
type Prepaid struct {
	Net   *transport.MemNetwork
	Plane *media.Plane
	A     *endpoint.Device
	B     *endpoint.Device
	C     *endpoint.Device
	V     *endpoint.Device
	PBX   *box.Runner
	PC    *box.Runner

	// Billing, when BindStore has been called, routes the scenario's
	// money events through the durable store.
	Billing *Billing

	// descA is the descriptor of A as recorded by PC when it passed
	// through in earlier signals (paper Section VI-C) — the naive
	// regime replays it in Snapshot 4.
	descA *sig.Descriptor
	descC *sig.Descriptor

	pbxN *NaiveServer
	pcN  *NaiveServer
}

// Slot names at the two servers.
const (
	pbxA  = "a.t0"   // PBX's slot toward telephone A
	pbxB  = "b.t0"   // PBX's slot toward telephone B
	pbxPC = "pc.t0"  // PBX's slot toward the PC server
	pcPBX = "pbx.t0" // PC's slot toward the PBX
	pcC   = "c.t0"   // PC's slot toward telephone C
	pcV   = "v.t0"   // PC's slot toward the resource V
)

// NewPrepaid wires the topology and programs both servers with the
// compositional primitives, exactly as in paper Section IV-B: "In
// Snapshots 1 and 4, the program is in a state annotated
// flowLink(c,a), holdSlot(v) ... A timeout event causes a transition
// to the PC state of Snapshots 2 and 3, which is annotated
// flowLink(c,v), holdSlot(a)."
func NewPrepaid() (*Prepaid, error) {
	p := &Prepaid{Net: transport.NewMemNetwork(), Plane: media.NewPlane()}
	var err error
	mk := func(name string, port int, auto bool) *endpoint.Device {
		if err != nil {
			return nil
		}
		var d *endpoint.Device
		d, err = endpoint.NewDevice(endpoint.Config{
			Name: name, Net: p.Net, Plane: p.Plane, MediaPort: port, AutoAccept: auto,
		})
		return d
	}
	p.A = mk("A", 5004, false)
	p.B = mk("B", 5006, false)
	p.C = mk("C", 5008, false)
	p.V = mk("V", 5010, true) // the IVR accepts whatever PC opens
	if err != nil {
		return nil, err
	}

	p.PBX = box.NewRunner(box.New("PBX", core.ServerProfile{Name: "PBX"}), p.Net)
	p.PC = box.NewRunner(box.New("PC", core.ServerProfile{Name: "PC"}), p.Net)
	if err := p.PBX.Listen("pbx", func(int) string { return "pc" }); err != nil {
		return nil, err
	}

	// Signaling channels (paper Figure 3): the PBX has channels to A
	// and B; PC has channels to C, to V, and to the PBX.
	for _, dial := range []struct {
		r             *box.Runner
		channel, addr string
	}{
		{p.PBX, "a", "A"}, {p.PBX, "b", "B"},
		{p.PC, "c", "C"}, {p.PC, "v", "V"}, {p.PC, "pbx", "pbx"},
	} {
		if err := dial.r.Connect(dial.channel, dial.addr); err != nil {
			return nil, err
		}
	}

	// The PBX's channel from PC is accepted asynchronously; its program
	// annotates slots on that channel, so wait for it.
	if err := p.await("PBX accepts PC's channel", func() bool {
		has := false
		p.PBX.Do(func(ctx *box.Ctx) { has = ctx.Box().HasChannel("pc") })
		return has
	}); err != nil {
		return nil, err
	}

	appOn := func(channel, name string) box.Guard {
		return func(ctx *box.Ctx) bool { return ctx.OnApp(channel, name) }
	}

	// The PBX allows A to switch between its calls: proximity confers
	// priority, and the PBX is closest to A.
	p.PBX.SetProgram(&box.Program{
		Initial: "onB",
		States: []*box.State{
			{
				Name:   "onB",
				Annots: []box.Annot{box.FlowLinkAnn(pbxA, pbxB), box.HoldSlotAnn(pbxPC)},
				Trans:  []box.Trans{{When: appOn("a", "switch"), To: "onC"}},
			},
			{
				Name:   "onC",
				Annots: []box.Annot{box.FlowLinkAnn(pbxA, pbxPC), box.HoldSlotAnn(pbxB)},
				Trans:  []box.Trans{{When: appOn("a", "switch"), To: "onB"}},
			},
		},
	})

	// The prepaid-card server: linked while funds remain, verifying
	// after the timer expires, linked again when V reports payment.
	p.PC.SetProgram(&box.Program{
		Initial: "linked",
		States: []*box.State{
			{
				Name:    "linked",
				Annots:  []box.Annot{box.FlowLinkAnn(pcC, pcPBX), box.HoldSlotAnn(pcV)},
				OnEnter: func(ctx *box.Ctx) { ctx.SetTimer("funds", time.Hour) },
				Trans:   []box.Trans{{When: func(ctx *box.Ctx) bool { return ctx.OnTimer("funds") }, To: "verify"}},
			},
			{
				Name:   "verify",
				Annots: []box.Annot{box.FlowLinkAnn(pcC, pcV), box.HoldSlotAnn(pcPBX)},
				Trans:  []box.Trans{{When: appOn("v", "paid"), To: "linked"}},
			},
		},
	})
	return p, nil
}

// Errs collects box errors from both servers.
func (p *Prepaid) Errs() []error {
	return append(p.PBX.Errs(), p.PC.Errs()...)
}

// Stop shuts everything down.
func (p *Prepaid) Stop() {
	for _, d := range []*endpoint.Device{p.A, p.B, p.C, p.V} {
		d.Stop()
	}
	p.PBX.Stop()
	p.PC.Stop()
}

// await polls pred until it holds or five seconds pass.
func (p *Prepaid) await(what string, pred func() bool) error {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if pred() {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("scenario: timeout waiting for %s (flows: %v)", what, p.Plane.Flows())
}

// flowsExactly reports whether the current flow graph is exactly the
// given set of from->to pairs.
func (p *Prepaid) flowsExactly(pairs ...[2]string) bool {
	flows := p.Plane.Flows()
	if len(flows) != len(pairs) {
		return false
	}
	for _, want := range pairs {
		found := false
		for _, f := range flows {
			if f.From == want[0] && f.To == want[1] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Establish drives the story to Snapshot 1 of Figures 2/3: A was
// talking to B, C called A through PC, and A switched to C. Both
// regimes share this state.
func (p *Prepaid) Establish() error {
	// A talks to B.
	p.A.OpenOn("in0", sig.Audio)
	if err := p.await("B ringing", func() bool { return len(p.B.Ringing()) == 1 }); err != nil {
		return err
	}
	p.B.Answer("in0")
	if err := p.await("A<->B media", func() bool {
		return p.flowsExactly([2]string{"A", "B"}, [2]string{"B", "A"})
	}); err != nil {
		return err
	}
	// C calls A through the prepaid-card server. The PBX holds the
	// incoming leg until A switches.
	p.C.OpenOn("in0", sig.Audio)
	if err := p.await("C connected (held)", func() bool {
		st, _, ok := p.C.SlotState("in0")
		return ok && st.String() == "flowing"
	}); err != nil {
		return err
	}
	// A switches to C: Snapshot 1.
	p.A.SendApp("in0", "switch", nil)
	if err := p.await("Snapshot 1: A<->C media only", func() bool {
		return p.flowsExactly([2]string{"A", "C"}, [2]string{"C", "A"})
	}); err != nil {
		return err
	}
	// Record the descriptors the PC server has seen pass through, for
	// the naive regime's scripted commands.
	p.PC.Do(func(ctx *box.Ctx) {
		if d, ok := ctx.Box().Slot(pcPBX).Desc(); ok {
			p.descA = d
		}
		if d, ok := ctx.Box().Slot(pcC).Desc(); ok {
			p.descC = d
		}
	})
	return nil
}

// FundsExhausted fires the prepaid timer (Snapshot 2 trigger). With a
// store bound, the exhausted cycle is debited from the card first.
func (p *Prepaid) FundsExhausted() {
	if p.Billing != nil {
		p.Billing.DebitCycle()
	}
	p.PC.Inject(box.Event{Kind: box.EvTimer, Timer: "funds"})
}

// SwitchA toggles the PBX between A's two calls (Snapshots 1<->3).
func (p *Prepaid) SwitchA() { p.A.SendApp("in0", "switch", nil) }

// Paid reports the payment from V to PC (Snapshot 4 trigger). With a
// store bound, the collected funds are credited to the card first.
func (p *Prepaid) Paid() {
	if p.Billing != nil {
		p.Billing.CreditPayment(p.Billing.unit)
	}
	p.V.SendApp("in0", "paid", nil)
}

// RunCorrect drives Snapshots 2, 3, and 4 in the compositional regime
// and verifies the media flows of paper Figure 3 at each snapshot.
// Returns a transcript of the verified snapshots.
func (p *Prepaid) RunCorrect() ([]string, error) {
	var log []string
	// Snapshot 2: funds run out; C talks to V; A silent but not stolen.
	p.FundsExhausted()
	if err := p.await("Snapshot 2: C<->V media only", func() bool {
		return p.flowsExactly([2]string{"C", "V"}, [2]string{"V", "C"})
	}); err != nil {
		return log, err
	}
	log = append(log, "snapshot2: C<->V only; A silent; B held")

	// Snapshot 3: A switches back to B. C and V must be undisturbed —
	// the error of Figure 2 was the one-way C->V loss here.
	p.SwitchA()
	if err := p.await("Snapshot 3: A<->B and C<->V", func() bool {
		return p.flowsExactly([2]string{"A", "B"}, [2]string{"B", "A"}, [2]string{"C", "V"}, [2]string{"V", "C"})
	}); err != nil {
		return log, err
	}
	log = append(log, "snapshot3: A<->B restored; C<->V fully intact")

	// Snapshot 4: V verifies payment; PC relinks C toward A. Because
	// the PBX holds that path (proximity confers priority), A stays
	// with B: no hijack, no deaf transmission.
	p.Paid()
	if err := p.await("Snapshot 4: A<->B only", func() bool {
		return p.flowsExactly([2]string{"A", "B"}, [2]string{"B", "A"})
	}); err != nil {
		return log, err
	}
	log = append(log, "snapshot4: A<->B preserved; A not switched without permission")

	// A now chooses to switch back to C: the path through PBX and PC
	// opens end to end (the concurrent relink of paper Figure 13).
	p.SwitchA()
	if err := p.await("final: A<->C media", func() bool {
		return p.flowsExactly([2]string{"A", "C"}, [2]string{"C", "A"})
	}); err != nil {
		return log, err
	}
	log = append(log, "final: A<->C reconnected by A's own action")
	return log, nil
}

// GoNaive switches both servers from the compositional primitives to
// the uncoordinated Figure 2 regime: blind forwarding plus scripted
// media commands.
func (p *Prepaid) GoNaive() {
	p.pbxN = NewNaiveServer("PBX")
	p.pcN = NewNaiveServer("PC")
	p.PBX.Do(func(ctx *box.Ctx) {
		ctx.Box().ClearProgram()
		for _, s := range []string{pbxA, pbxB, pbxPC} {
			ctx.SetGoal(p.pbxN.Leg(s))
		}
	})
	// Snapshot 1 routing: A is on the C call.
	p.pbxN.SetRoute(pbxB, pbxA)
	p.pbxN.SetRoute(pbxPC, pbxA)
	p.pbxN.SetRoute(pbxA, pbxPC)
	p.PC.Do(func(ctx *box.Ctx) {
		ctx.Box().ClearProgram()
		for _, s := range []string{pcC, pcV, pcPBX} {
			ctx.SetGoal(p.pcN.Leg(s))
		}
	})
	p.pcN.SetRoute(pcPBX, pcC)
	p.pcN.SetRoute(pcV, pcC)
	p.pcN.SetRoute(pcC, pcPBX)
}

// RunNaive drives Snapshots 2, 3, and 4 in the uncoordinated regime
// and verifies that the three pathologies of paper Figure 2 occur.
func (p *Prepaid) RunNaive() ([]string, error) {
	var log []string
	// Snapshot 2: PC's timer goes off. It opens the V leg with C's
	// descriptor, and tells A to stop sending. This still works.
	p.PC.Do(func(ctx *box.Ctx) {
		p.pcN.SetRoute(pcC, pcV)
		p.pcN.OpenLeg(ctx, pcV, sig.Audio, p.descC)
		p.pcN.Describe(ctx, pcPBX, p.pcN.HoldDesc())
	})
	if err := p.await("naive Snapshot 2: C<->V media only", func() bool {
		return p.flowsExactly([2]string{"C", "V"}, [2]string{"V", "C"})
	}); err != nil {
		return log, err
	}
	log = append(log, "snapshot2: C<->V only (still correct)")

	// Snapshot 3: the PBX switches A back to B and tells "C" to stop
	// sending; the signal passes through PC, which forwards it
	// untouched to C. Pathology: V is left without audio input from C.
	p.PBX.Do(func(ctx *box.Ctx) {
		p.pbxN.SetRoute(pbxA, pbxB)
		var descA, descB *sig.Descriptor
		if d, ok := ctx.Box().Slot(pbxA).Desc(); ok {
			descA = d
		}
		if d, ok := ctx.Box().Slot(pbxB).Desc(); ok {
			descB = d
		}
		p.pbxN.Describe(ctx, pbxA, descB)
		p.pbxN.Describe(ctx, pbxB, descA)
		p.pbxN.Describe(ctx, pbxPC, p.pbxN.HoldDesc())
	})
	if err := p.await("naive Snapshot 3: C->V lost, V->C orphaned", func() bool {
		return p.flowsExactly([2]string{"A", "B"}, [2]string{"B", "A"}, [2]string{"V", "C"})
	}); err != nil {
		return log, err
	}
	log = append(log, "snapshot3: PATHOLOGY - C->V audio lost; V->C one-way")

	// Snapshot 4: V has verified the funds; PC reconnects C with A.
	// The PBX forwards PC's command blindly: A is switched away from B
	// without A's permission, and B keeps transmitting to an endpoint
	// that throws its packets away.
	p.PC.Do(func(ctx *box.Ctx) {
		p.pcN.SetRoute(pcC, pcPBX)
		p.pcN.Describe(ctx, pcPBX, p.descC)        // toward A: send to C
		p.pcN.Describe(ctx, pcC, p.descA)          // to C: send to A
		p.pcN.Describe(ctx, pcV, p.pcN.HoldDesc()) // V: stop
	})
	if err := p.await("naive Snapshot 4: A hijacked, B deaf-transmitting", func() bool {
		return p.flowsExactly([2]string{"A", "C"}, [2]string{"C", "A"}, [2]string{"B", "A"})
	}); err != nil {
		return log, err
	}
	before := p.A.Agent().Stats().Unexpected
	p.Plane.Tick(10)
	after := p.A.Agent().Stats().Unexpected
	if after <= before {
		return log, fmt.Errorf("scenario: expected B's packets to be discarded at A (unexpected %d -> %d)", before, after)
	}
	log = append(log, "snapshot4: PATHOLOGY - A switched without permission; B's packets discarded at A")
	return log, nil
}
