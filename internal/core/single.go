// The three single-slot goal primitives: openSlot, closeSlot, and
// holdSlot (paper Section IV-A). Each is "a refinement of Figure 5 in
// which the object always chooses certain actions", structured as a
// finite-state machine following Figure 9 (paper Section VII).
package core

import (
	"fmt"

	"ipmedia/internal/sig"
	"ipmedia/internal/slot"
)

// OpenSlot is the openSlot goal: open a media channel and get it to
// the flowing state, taking every possible opportunity to push toward
// flowing. If it sends open and receives reject, it sends open again.
type OpenSlot struct {
	Name   string     // slot controlled
	Medium sig.Medium // medium of the channel to open
	P      Profile

	names [1]string // SlotNames, built by the constructor
}

// NewOpenSlot builds an openSlot goal for the named slot.
func NewOpenSlot(name string, m sig.Medium, p Profile) *OpenSlot {
	return &OpenSlot{Name: name, Medium: m, P: p, names: [1]string{name}}
}

// Kind implements Goal.
func (g *OpenSlot) Kind() string { return "openSlot" }

// SlotNames implements Goal.
func (g *OpenSlot) SlotNames() []string { return g.names[:] }

// Attach implements Goal. Per the paper, openSlot(s,m) may annotate a
// *program state* only if s is closed when the state is entered; that
// precondition is enforced by the box runtime. The engine itself
// tolerates any initial state, which the model checker's
// nondeterministic initial phases require: it pushes toward flowing
// from wherever the slot is.
func (g *OpenSlot) Attach(ss Slots) ([]Action, error) {
	em := NewEmitter(ss)
	s := ss.Slot(g.Name)
	if s == nil {
		return nil, fmt.Errorf("core: no slot %q", g.Name)
	}
	em.ackIfOwed(s, g.Name)
	switch s.State() {
	case slot.Closed:
		em.emitOn(s, g.Name, sig.Open(g.Medium, g.P.Describe()))
	case slot.Opened:
		em.emitOn(s, g.Name, sig.Oack(g.P.Describe()))
		if d, ok := s.Desc(); ok {
			em.emitOn(s, g.Name, sig.Select(g.P.Answer(d)))
		}
	case slot.Flowing:
		g.redescribeIfStale(em, s, g.Name)
		// Re-send the selector unconditionally: a selector the previous
		// controller sent may have been discarded as obsolete by a
		// flowlink along the path, and every goal object must answer
		// the current descriptor to re-establish the path state.
		if d, ok := s.Desc(); ok {
			em.emitOn(s, g.Name, sig.Select(g.P.Answer(d)))
		}
	case slot.Opening, slot.Closing:
		// Wait for the far end or the in-flight closeack.
	}
	return em.Done()
}

// OnEvent implements Goal.
func (g *OpenSlot) OnEvent(ss Slots, name string, ev slot.Event, in sig.Signal) ([]Action, error) {
	em := NewEmitter(ss)
	s := ss.Slot(name)
	switch ev {
	case slot.EvOack:
		// Channel accepted: answer the acceptor's descriptor, and
		// refresh our own description if it changed while opening.
		em.emitOn(s, name, sig.Select(g.P.Answer(in.Desc)))
		g.redescribeIfStale(em, s, name)
	case slot.EvDescribe:
		em.emitOn(s, name, sig.Select(g.P.Answer(in.Desc)))
	case slot.EvOpen, slot.EvOpenRace:
		// Either the far end opened first (after a rejection cycle), or
		// we lost an open-open race and back off to be the acceptor
		// (paper Section VII footnote). Both push toward flowing.
		em.emitOn(s, name, sig.Oack(g.P.Describe()))
		em.emitOn(s, name, sig.Select(g.P.Answer(in.Desc)))
	case slot.EvClose:
		// Rejected (or closed from flowing): acknowledge and try again.
		// In a simultaneous close (a previous controller of the slot
		// sent a close that is still unacknowledged) the slot is still
		// closing; the retry then waits for the closeack.
		em.ackIfOwed(s, name)
		if s != nil && s.State() == slot.Closed {
			em.emitOn(s, name, sig.Open(g.Medium, g.P.Describe()))
		}
	case slot.EvCloseAck:
		// A close sent by a previous goal completed under our control:
		// the slot is closed, so pursue the goal and reopen.
		em.emitOn(s, name, sig.Open(g.Medium, g.P.Describe()))
	case slot.EvSelect, slot.EvStale:
		// Nothing to do: selects are recorded by the slot, stale
		// signals are already discarded.
	}
	return em.Done()
}

// redescribeIfStale sends a fresh describe if the profile's current
// descriptor differs from the one most recently sent on the slot.
func (g *OpenSlot) redescribeIfStale(em *Emitter, s *slot.Slot, name string) {
	if s == nil || s.State() != slot.Flowing {
		return
	}
	cur := g.P.Describe()
	if h := s.Hist(); !h.HasDescSent || h.DescSent.ID != cur.ID {
		em.emitOn(s, name, sig.Describe(cur))
	}
}

// Refresh implements Goal.
func (g *OpenSlot) Refresh(ss Slots, inChanged, outChanged bool) ([]Action, error) {
	return refreshSingle(ss, g.Name, g.P, inChanged, outChanged)
}

// Clone implements Goal.
func (g *OpenSlot) Clone() Goal {
	return NewOpenSlot(g.Name, g.Medium, g.P.Clone())
}

// AppendEncode implements Goal.
func (g *OpenSlot) AppendEncode(dst []byte) []byte {
	dst = append(dst, "open:"...)
	dst = append(dst, g.Name...)
	dst = append(dst, string(g.Medium)...)
	return g.P.AppendEncode(dst)
}

// refreshSingle implements the modify event for single-slot goals: a
// changed muteIn needs a fresh describe, a changed muteOut a fresh
// select, both only meaningful in the flowing state (earlier states
// pick up the new values when they reach flowing).
func refreshSingle(ss Slots, name string, p Profile, inChanged, outChanged bool) ([]Action, error) {
	em := NewEmitter(ss)
	s := ss.Slot(name)
	if s == nil || s.State() != slot.Flowing {
		return nil, nil
	}
	if inChanged {
		em.emitOn(s, name, sig.Describe(p.Describe()))
	}
	if outChanged {
		if d, ok := s.Desc(); ok {
			em.emitOn(s, name, sig.Select(p.Answer(d)))
		}
	}
	return em.Done()
}

// CloseSlot is the closeSlot goal: get the slot to the closed state
// and keep it there, rejecting any open immediately.
type CloseSlot struct {
	Name string

	names [1]string // SlotNames, built by the constructor
}

// NewCloseSlot builds a closeSlot goal for the named slot.
func NewCloseSlot(name string) *CloseSlot {
	g := new(CloseSlot)
	g.Reset(name)
	return g
}

// Reset makes g the goal NewCloseSlot(name) builds, in place, so an
// owner can hold a closeSlot in storage of its own. Nothing may still
// hold g as the goal of another slot.
func (g *CloseSlot) Reset(name string) {
	*g = CloseSlot{Name: name, names: [1]string{name}}
}

// Kind implements Goal.
func (g *CloseSlot) Kind() string { return "closeSlot" }

// SlotNames implements Goal.
func (g *CloseSlot) SlotNames() []string { return g.names[:] }

// Attach implements Goal. A closeSlot can gain control with the slot
// in any state and proceeds from that point (paper Section IV-A).
func (g *CloseSlot) Attach(ss Slots) ([]Action, error) {
	em := NewEmitter(ss)
	s := ss.Slot(g.Name)
	if s == nil {
		return nil, fmt.Errorf("core: no slot %q", g.Name)
	}
	em.ackIfOwed(s, g.Name)
	switch s.State() {
	case slot.Opening, slot.Opened, slot.Flowing:
		em.emitOn(s, g.Name, sig.Close())
	case slot.Closed, slot.Closing:
		// Already there, or waiting for a closeack.
	}
	return em.Done()
}

// OnEvent implements Goal.
func (g *CloseSlot) OnEvent(ss Slots, name string, ev slot.Event, in sig.Signal) ([]Action, error) {
	em := NewEmitter(ss)
	switch ev {
	case slot.EvOpen, slot.EvOpenRace:
		// Reject immediately.
		em.Emit(name, sig.Close())
	case slot.EvClose:
		em.ackIfOwed(ss.Slot(name), name)
	case slot.EvCloseAck, slot.EvSelect, slot.EvDescribe, slot.EvOack, slot.EvStale:
		// CloseAck completes our close. The others cannot occur while a
		// closeSlot is attached (the attach close races ahead of them
		// and the slot discards them as stale), so nothing to do.
	}
	return em.Done()
}

// Refresh implements Goal: a closeSlot has no media description.
func (g *CloseSlot) Refresh(Slots, bool, bool) ([]Action, error) { return nil, nil }

// Clone implements Goal.
func (g *CloseSlot) Clone() Goal { return NewCloseSlot(g.Name) }

// AppendEncode implements Goal.
func (g *CloseSlot) AppendEncode(dst []byte) []byte {
	dst = append(dst, "close:"...)
	return append(dst, g.Name...)
}

// HoldSlot is the holdSlot goal: accept a media channel and get it to
// the flowing state, but only if the channel is requested by the other
// end of the signaling path; never originate an open or a close.
type HoldSlot struct {
	Name string
	P    Profile

	names [1]string // SlotNames, built by the constructor
}

// NewHoldSlot builds a holdSlot goal for the named slot.
func NewHoldSlot(name string, p Profile) *HoldSlot {
	return &HoldSlot{Name: name, P: p, names: [1]string{name}}
}

// Kind implements Goal.
func (g *HoldSlot) Kind() string { return "holdSlot" }

// SlotNames implements Goal.
func (g *HoldSlot) SlotNames() []string { return g.names[:] }

// Attach implements Goal. A holdSlot can gain control with the slot in
// any state. On gaining control of an already-flowing slot it asserts
// its own description and answer — for a server profile this mutes the
// channel in both directions, which is exactly how the prepaid-card
// server puts telephone A on hold in paper Figure 3, Snapshot 2.
func (g *HoldSlot) Attach(ss Slots) ([]Action, error) {
	em := NewEmitter(ss)
	s := ss.Slot(g.Name)
	if s == nil {
		return nil, fmt.Errorf("core: no slot %q", g.Name)
	}
	em.ackIfOwed(s, g.Name)
	switch s.State() {
	case slot.Opened:
		em.emitOn(s, g.Name, sig.Oack(g.P.Describe()))
		if d, ok := s.Desc(); ok {
			em.emitOn(s, g.Name, sig.Select(g.P.Answer(d)))
		}
	case slot.Flowing:
		cur := g.P.Describe()
		if h := s.Hist(); !h.HasDescSent || h.DescSent.ID != cur.ID {
			em.emitOn(s, g.Name, sig.Describe(cur))
		}
		// Re-send the selector unconditionally (see OpenSlot.Attach): a
		// previous selector may have been discarded along the path.
		if d, ok := s.Desc(); ok {
			em.emitOn(s, g.Name, sig.Select(g.P.Answer(d)))
		}
	case slot.Closed, slot.Opening, slot.Closing:
		// Wait: holdSlot never originates anything.
	}
	return em.Done()
}

// OnEvent implements Goal.
func (g *HoldSlot) OnEvent(ss Slots, name string, ev slot.Event, in sig.Signal) ([]Action, error) {
	em := NewEmitter(ss)
	s := ss.Slot(name)
	switch ev {
	case slot.EvOpen, slot.EvOpenRace:
		em.emitOn(s, name, sig.Oack(g.P.Describe()))
		em.emitOn(s, name, sig.Select(g.P.Answer(in.Desc)))
	case slot.EvOack:
		// A previous goal's open completed under our control.
		em.emitOn(s, name, sig.Select(g.P.Answer(in.Desc)))
		cur := g.P.Describe()
		if s != nil {
			if h := s.Hist(); !h.HasDescSent || h.DescSent.ID != cur.ID {
				em.emitOn(s, name, sig.Describe(cur))
			}
		}
	case slot.EvDescribe:
		em.emitOn(s, name, sig.Select(g.P.Answer(in.Desc)))
	case slot.EvClose:
		// The far end closed: acknowledge and remain closed until the
		// far end asks to open again.
		em.ackIfOwed(s, name)
	case slot.EvCloseAck, slot.EvSelect, slot.EvStale:
		// CloseAck can complete a close sent by a previous goal.
	}
	return em.Done()
}

// Refresh implements Goal.
func (g *HoldSlot) Refresh(ss Slots, inChanged, outChanged bool) ([]Action, error) {
	return refreshSingle(ss, g.Name, g.P, inChanged, outChanged)
}

// Clone implements Goal.
func (g *HoldSlot) Clone() Goal { return NewHoldSlot(g.Name, g.P.Clone()) }

// AppendEncode implements Goal.
func (g *HoldSlot) AppendEncode(dst []byte) []byte {
	dst = append(dst, "hold:"...)
	dst = append(dst, g.Name...)
	return g.P.AppendEncode(dst)
}
