// Package core implements the paper's primary contribution: the four
// state-oriented goal primitives for compositional media control —
// openSlot, closeSlot, holdSlot, and flowLink (paper Section IV) — as
// the goal objects of the implementation design in Section VII, plus
// the uncoordinated Forwarder baseline that reproduces the erroneous
// behavior of paper Figure 2.
//
// Goal objects are pure reactive state machines: they receive slot
// events and emit signals, with no I/O, clocks, or goroutines of their
// own. The same goal code therefore runs unchanged under the in-process
// runtime, the TCP runtime, the discrete-event simulator, and the
// model checker.
package core

import (
	"fmt"

	"ipmedia/internal/sig"
	"ipmedia/internal/slot"
)

// Slots gives a goal object access to the slots it controls. The box
// runtime and the model checker both implement it.
type Slots interface {
	// Slot returns the named slot, or nil if unknown.
	Slot(name string) *slot.Slot
}

// Action is an instruction to the runtime to transmit a signal on the
// tunnel behind a slot. When a goal emits an action through an Emitter
// the slot's Send has already validated and applied it; the runtime
// only forwards the signal to the transport. Raw actions bypass slot
// validation entirely and exist only for the naive Forwarder baseline.
type Action struct {
	Slot string
	Sig  sig.Signal
	Raw  bool
}

func (a Action) String() string { return fmt.Sprintf("%s<-%s", a.Slot, a.Sig) }

// Goal is a goal object (paper Sections IV and VII): it reads all the
// signals received from the slots it controls and writes all the
// signals sent to them.
type Goal interface {
	// Kind names the primitive, e.g. "openSlot".
	Kind() string
	// SlotNames lists the slots this goal controls. The slice belongs
	// to the goal object (built once, not per call): read it, do not
	// modify it.
	SlotNames() []string
	// Attach initializes the goal object: it queries its slots' states
	// and descriptors and emits whatever signals push toward its goal
	// (the slotState/slotDesc initialization of paper Section VII).
	Attach(ss Slots) ([]Action, error)
	// OnEvent reacts to a classified incoming signal on one of the
	// goal's slots. The slot has already applied the signal's state
	// effects.
	OnEvent(ss Slots, slotName string, ev slot.Event, g sig.Signal) ([]Action, error)
	// Refresh reacts to a change in the box's media profile (a user
	// toggled muteIn and/or muteOut — the modify event of paper
	// Figure 5).
	Refresh(ss Slots, inChanged, outChanged bool) ([]Action, error)
	// Clone deep-copies the goal object, for the model checker.
	Clone() Goal
	// AppendEncode appends a deterministic state fingerprint to dst and
	// returns the extended slice. Append-style (rather than writing to
	// a bytes.Buffer) so the model checker can fingerprint millions of
	// states into one reused buffer without allocating.
	AppendEncode(dst []byte) []byte
}

// ActionLender is implemented by a Slots that lends its goal objects
// one reusable action buffer, so that a goal call allocates nothing
// for the actions it returns. The box runtime implements it; a Slots
// that does not (the model checker's) gets a fresh slice per call.
type ActionLender interface {
	// LendActions returns the address of the buffer. An Emitter fills
	// it from the start and stores it back, grown if need be, so what a
	// goal call returns aliases it: the actions are valid until the
	// next goal call on the same Slots, and the caller consumes them
	// before making one.
	LendActions() *[]Action
}

// Emitter validates and collects a goal's outgoing signals. Emit
// applies slot.Send immediately, so later logic in the same handler
// sees the post-send slot state. The actions Done returns sit in the
// buffer the Slots lent, if it lends one (see ActionLender).
type Emitter struct {
	ss   Slots
	lent *[]Action // the lender's buffer, handed back by Done; nil if nothing is lent
	acts []Action  // starts as the lent buffer emptied, or nil
	err  error
}

// NewEmitter returns an emitter over ss. It stays small enough to be
// inlined, so that an emitter a goal call uses and drops lives on that
// call's stack.
func NewEmitter(ss Slots) *Emitter {
	e := &Emitter{ss: ss}
	e.lent, e.acts = borrow(ss)
	return e
}

// borrow returns ss's action buffer and its emptied contents, or nils
// if ss lends none.
func borrow(ss Slots) (*[]Action, []Action) {
	if l, ok := ss.(ActionLender); ok {
		lent := l.LendActions()
		return lent, (*lent)[:0]
	}
	return nil, nil
}

// Emit validates g against the named slot and queues it for transport.
func (e *Emitter) Emit(name string, g sig.Signal) {
	if e.err != nil {
		return
	}
	e.emitOn(e.ss.Slot(name), name, g)
}

// emitOn is Emit on a slot the goal has already resolved by name (nil
// if the Slots had none), so a goal call resolves each of its slots
// once however many signals it sends.
func (e *Emitter) emitOn(s *slot.Slot, name string, g sig.Signal) {
	if e.err != nil {
		return
	}
	if s == nil {
		e.err = fmt.Errorf("core: no slot %q", name)
		return
	}
	if err := s.Send(g); err != nil {
		e.err = err
		return
	}
	e.acts = append(e.acts, Action{Slot: name, Sig: g})
}

// EmitRaw queues g without slot validation. Only the Forwarder uses
// this; it models servers that are not protocol endpoints.
func (e *Emitter) EmitRaw(name string, g sig.Signal) {
	if e.err != nil {
		return
	}
	e.acts = append(e.acts, Action{Slot: name, Sig: g, Raw: true})
}

// ackIfOwed emits the closeack for a previously received close, if one
// is still owed on the slot (resolved by name, nil if unknown).
func (e *Emitter) ackIfOwed(s *slot.Slot, name string) {
	if s != nil && s.OwesCloseAck() {
		e.emitOn(s, name, sig.CloseAck())
	}
}

// Done returns the collected actions and the first error encountered.
func (e *Emitter) Done() ([]Action, error) {
	if e.lent != nil {
		*e.lent = e.acts
	}
	return e.acts, e.err
}
