// FlowLink: the fourth and most complex goal primitive (paper Sections
// IV-A and VII). A flowlink controls two slots, attempts to match
// their states as if the slots had always been connected transparently,
// and keeps them matched, with a bias toward media flow (Figure 12).
//
// Its code design follows the paper's two key concepts exactly:
//
//   - a slot is *described* if a current descriptor has been received
//     for it (slots in the opened and flowing states are described);
//   - each slot has a Boolean *up-to-date* (utd) variable that is true
//     iff the other slot is described and this slot has been sent the
//     other slot's most recent descriptor.
//
// In any live state the flowlink works to make the utd variables true.
// Selector handling needs no history at all: a selector received on
// one slot is forwarded iff it answers the other slot's current
// descriptor, and is discarded as obsolete otherwise.
package core

import (
	"fmt"

	"ipmedia/internal/sig"
	"ipmedia/internal/slot"
)

// FlowLink coordinates the signals of its two slots so that the
// signaling paths through them behave as one transparent path.
type FlowLink struct {
	A, B string
	// UtdA (UtdB) is true iff slot A (B) has been sent slot B's (A's)
	// most recent descriptor. Both are initialized false at attach, so
	// a new flowlink always re-describes both sides — the behavior
	// visible in paper Figure 13, including the apparently redundant
	// describe(noMedia).
	UtdA, UtdB bool

	names [2]string // SlotNames, built by the constructor
}

// NewFlowLink builds a flowlink over slots a and b.
func NewFlowLink(a, b string) *FlowLink {
	return &FlowLink{A: a, B: b, names: [2]string{a, b}}
}

// Kind implements Goal.
func (g *FlowLink) Kind() string { return "flowLink" }

// SlotNames implements Goal.
func (g *FlowLink) SlotNames() []string { return g.names[:] }

// utd returns a pointer to the utd variable of the named slot.
func (g *FlowLink) utd(name string) *bool {
	if name == g.A {
		return &g.UtdA
	}
	return &g.UtdB
}

// Attach implements Goal. Initially the flowlink's slots can be in any
// states; it is a precondition that if both slots have their medium
// defined, the media are the same (paper Section IV-A).
func (g *FlowLink) Attach(ss Slots) ([]Action, error) {
	sa, sb := ss.Slot(g.A), ss.Slot(g.B)
	if sa == nil || sb == nil {
		return nil, fmt.Errorf("core: flowLink(%s,%s): unknown slot", g.A, g.B)
	}
	if sa.State() != slot.Closed && sb.State() != slot.Closed && sa.Medium() != sb.Medium() {
		return nil, fmt.Errorf("core: flowLink(%s,%s): medium mismatch %q vs %q", g.A, g.B, sa.Medium(), sb.Medium())
	}
	g.UtdA, g.UtdB = false, false
	em := NewEmitter(ss)
	em.ackIfOwed(sa, g.A)
	em.ackIfOwed(sb, g.B)
	g.reconcile(em, sa, sb)
	return em.Done()
}

// reconcile performs the state matching of paper Figure 12: from
// whichever superstate the pair of slot states is in, it pushes toward
// the goal substate (both flowing if either side is live, both closed
// otherwise), and in live states it works to make the utd variables
// true. It loops to a fixpoint because one emission can enable
// another (e.g. oacking one slot makes it flowing, enabling a
// describe). sa and sb are slots A and B, resolved once by the caller.
func (g *FlowLink) reconcile(em *Emitter, sa, sb *slot.Slot) {
	for progress := true; progress && em.err == nil; {
		toB := push(em, sa, sb, g.B, &g.UtdB)
		toA := push(em, sb, sa, g.A, &g.UtdA)
		progress = toB || toA
	}
}

// push forwards from's descriptor, if it is described (opened or
// flowing), toward the slot to (named toName, with up-to-date variable
// utd), in whatever form to's state requires. It reports whether it
// emitted anything.
func push(em *Emitter, from, to *slot.Slot, toName string, utd *bool) bool {
	d, described := from.Desc()
	if !described {
		return false
	}
	switch to.State() {
	case slot.Closed:
		if !to.OwesCloseAck() {
			em.emitOn(to, toName, sig.Open(from.Medium(), d))
			*utd = true
			return true
		}
	case slot.Opened:
		em.emitOn(to, toName, sig.Oack(d))
		*utd = true
		return true
	case slot.Flowing:
		if !*utd {
			em.emitOn(to, toName, sig.Describe(d))
			*utd = true
			return true
		}
	case slot.Opening, slot.Closing:
		// Wait for the far end's oack/close or the closeack.
	}
	return false
}

// OnEvent implements Goal.
func (g *FlowLink) OnEvent(ss Slots, name string, ev slot.Event, in sig.Signal) ([]Action, error) {
	em := NewEmitter(ss)
	sa, sb := ss.Slot(g.A), ss.Slot(g.B)
	s, other, so := sa, g.B, sb
	if name != g.A {
		s, other, so = sb, g.A, sa
	}
	switch ev {
	case slot.EvOpen, slot.EvOpenRace, slot.EvOack, slot.EvDescribe:
		// This slot has a fresh descriptor: the other slot is no longer
		// up to date. Reconciliation forwards it in the right form.
		*g.utd(other) = false
		g.reconcile(em, sa, sb)
	case slot.EvClose:
		// One side of the path is closing the channel. Acknowledge, and
		// propagate the closure to the other side (Figure 12: the
		// environment chose the one-live or both-dead superstate).
		em.ackIfOwed(s, name)
		*g.utd(name) = false
		*g.utd(other) = false
		if so.State().Live() {
			em.emitOn(so, other, sig.Close())
		}
	case slot.EvCloseAck:
		// A closure completed; the far end may have reopened the other
		// side in the meantime.
		g.reconcile(em, sa, sb)
	case slot.EvSelect:
		// Forward iff the selector answers the other slot's current
		// descriptor; otherwise it is obsolete and is discarded (paper
		// Section VII). Only fresh selectors matter, so no history of
		// selectors is kept.
		if d, ok := so.Desc(); ok && d.ID == in.Sel.Answers && so.State() == slot.Flowing {
			em.emitOn(so, other, sig.Select(in.Sel))
		}
	case slot.EvStale:
		// Already discarded by the slot.
	}
	return em.Done()
}

// Refresh implements Goal: a flowlink has no media profile of its own.
func (g *FlowLink) Refresh(Slots, bool, bool) ([]Action, error) { return nil, nil }

// Clone implements Goal.
func (g *FlowLink) Clone() Goal {
	c := *g
	return &c
}

// AppendEncode implements Goal.
func (g *FlowLink) AppendEncode(dst []byte) []byte {
	dst = append(dst, "link:"...)
	dst = append(dst, g.A...)
	dst = append(dst, ',')
	dst = append(dst, g.B...)
	return append(dst, boolByte(g.UtdA), boolByte(g.UtdB))
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// Forwarder is NOT one of the paper's primitives: it is the baseline
// that reproduces the erroneous behavior of paper Figure 2. A
// forwarder models a server that is not coordinated with other
// servers: "it is standard behavior for a server receiving a signal
// that does not concern itself to forward the signal untouched"
// (Section II-A). It performs no state matching, no descriptor
// caching, and no selector filtering; its box does not act as a
// protocol endpoint at all.
type Forwarder struct {
	A, B string

	names [2]string // SlotNames, built by the constructor
}

// NewForwarder builds an uncoordinated forwarding link over slots a
// and b.
func NewForwarder(a, b string) *Forwarder {
	return &Forwarder{A: a, B: b, names: [2]string{a, b}}
}

// Kind implements Goal.
func (g *Forwarder) Kind() string { return "forwarder" }

// SlotNames implements Goal.
func (g *Forwarder) SlotNames() []string { return g.names[:] }

// Attach implements Goal: a forwarder does nothing on attach.
func (g *Forwarder) Attach(Slots) ([]Action, error) { return nil, nil }

// OnEvent is never called for a Forwarder; the box runtime detects raw
// goals and calls OnRaw instead.
func (g *Forwarder) OnEvent(Slots, string, slot.Event, sig.Signal) ([]Action, error) {
	return nil, fmt.Errorf("core: Forwarder.OnEvent must not be called; use OnRaw")
}

// OnRaw forwards the incoming signal untouched to the other slot.
func (g *Forwarder) OnRaw(name string, in sig.Signal) []Action {
	to := g.A
	if name == g.A {
		to = g.B
	}
	return []Action{{Slot: to, Sig: in, Raw: true}}
}

// Refresh implements Goal.
func (g *Forwarder) Refresh(Slots, bool, bool) ([]Action, error) { return nil, nil }

// Clone implements Goal.
func (g *Forwarder) Clone() Goal {
	c := *g
	return &c
}

// AppendEncode implements Goal.
func (g *Forwarder) AppendEncode(dst []byte) []byte {
	dst = append(dst, "fwd:"...)
	dst = append(dst, g.A...)
	dst = append(dst, ',')
	return append(dst, g.B...)
}

// RawGoal marks goals whose slots are not protocol endpoints: the box
// runtime delivers raw signals to OnRaw without slot state tracking.
type RawGoal interface {
	Goal
	OnRaw(slotName string, in sig.Signal) []Action
}

var _ RawGoal = (*Forwarder)(nil)
