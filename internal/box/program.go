// The state-oriented programming model of paper Section IV-A: in each
// state of a box program, annotations give a static description of the
// programmer's goal for each slot; guarded transitions move between
// states. The runtime conceals the individual media signals from the
// programmer — programs respond mostly to meta-signals, timeouts, and
// the four slot predicates.
package box

import (
	"fmt"
	"time"

	"ipmedia/internal/core"
	"ipmedia/internal/sig"
	"ipmedia/internal/slot"
)

// AnnotKind enumerates goal annotations.
type AnnotKind uint8

// The annotation kinds: the four primitives plus the uncoordinated
// forwarder baseline.
const (
	AnnOpen AnnotKind = iota
	AnnClose
	AnnHold
	AnnLink
	AnnForward
)

// Annot is a goal annotation on a program state. Profile overrides the
// box profile for this goal when non-nil.
type Annot struct {
	Kind    AnnotKind
	Slot1   string
	Slot2   string // AnnLink / AnnForward only
	Medium  sig.Medium
	Profile core.Profile
}

// OpenSlotAnn annotates openSlot(slot, medium).
func OpenSlotAnn(slot string, m sig.Medium) Annot {
	return Annot{Kind: AnnOpen, Slot1: slot, Medium: m}
}

// CloseSlotAnn annotates closeSlot(slot).
func CloseSlotAnn(slot string) Annot { return Annot{Kind: AnnClose, Slot1: slot} }

// HoldSlotAnn annotates holdSlot(slot).
func HoldSlotAnn(slot string) Annot { return Annot{Kind: AnnHold, Slot1: slot} }

// FlowLinkAnn annotates flowLink(s1, s2).
func FlowLinkAnn(s1, s2 string) Annot { return Annot{Kind: AnnLink, Slot1: s1, Slot2: s2} }

// ForwardAnn annotates the naive forwarding baseline over two slots.
func ForwardAnn(s1, s2 string) Annot { return Annot{Kind: AnnForward, Slot1: s1, Slot2: s2} }

// equalAnnot reports whether two annotations denote the same goal, so
// the runtime can keep the same goal object across states (paper
// Section IV-B: "Because the annotation controlling slot 2a is the
// same in both states twoCalls and ringback, the openLink object
// controlling 2a is also the same").
func equalAnnot(a, b Annot) bool { return a == b }

// Guard is a transition predicate. Slot-state guards (IsFlowing and
// friends) are level-triggered: they fire as soon as the program
// enters the state if already true, or when they become true while the
// program remains in the state. Event guards (OnMeta, OnTimer, OnApp)
// are edge-triggered on the current event.
type Guard func(ctx *Ctx) bool

// Trans is one guarded transition.
type Trans struct {
	When Guard
	To   string
	Do   func(ctx *Ctx)
}

// State is one program state.
type State struct {
	Name    string
	Annots  []Annot
	OnEnter func(ctx *Ctx)
	Trans   []Trans
}

// Program is a box program: a finite-state machine over States.
// Terminate is the conventional name of a final state; entering it
// runs its OnEnter and stops.
type Program struct {
	Initial string
	States  []*State
}

// state returns the named state, nil if the program has none. A program
// has a handful of states, so a scan costs less than an index each
// program would keep.
func (p *Program) state(name string) *State {
	for _, s := range p.States {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// compile validates the program's state names and references.
func (p *Program) compile() error {
	for i, s := range p.States {
		for _, earlier := range p.States[:i] {
			if earlier.Name == s.Name {
				return fmt.Errorf("box: duplicate program state %q", s.Name)
			}
		}
	}
	if p.state(p.Initial) == nil {
		return fmt.Errorf("box: initial state %q not defined", p.Initial)
	}
	for _, s := range p.States {
		for _, tr := range s.Trans {
			if p.state(tr.To) == nil {
				return fmt.Errorf("box: state %q transitions to undefined state %q", s.Name, tr.To)
			}
		}
	}
	return nil
}

// ClearProgram detaches the box's program; existing goal objects stay
// in control of their slots until replaced.
func (b *Box) ClearProgram() {
	b.program = nil
	b.state = nil
}

// SetProgram installs and starts a program on the box. The initial
// state is entered immediately; its annotations attach goal objects.
func (b *Box) SetProgram(p *Program) ([]Output, error) {
	if err := p.compile(); err != nil {
		return nil, err
	}
	b.program = p
	b.outs = nil
	ctx := &Ctx{b: b}
	if err := b.enterState(ctx, p.Initial); err != nil {
		return b.outs, err
	}
	if err := b.step(ctx); err != nil {
		return b.outs, err
	}
	outs := b.outs
	b.outs = nil
	return outs, nil
}

// enterState makes the named state current: it runs OnEnter, then
// reconciles goal objects with the state's annotations.
func (b *Box) enterState(ctx *Ctx, name string) error {
	st := b.program.state(name)
	if st == nil {
		return fmt.Errorf("box %s: no program state %q", b.name, name)
	}
	b.state = st
	if st.OnEnter != nil {
		st.OnEnter(ctx)
		if ctx.err != nil {
			return ctx.err
		}
	}
	return b.reconcileGoals(st)
}

// annotOf returns the annotation that created a goal object, if the
// goal was annotation-created.
type annotated struct {
	core.Goal
	ann Annot
}

func (b *Box) reconcileGoals(st *State) error {
	for _, ann := range st.Annots {
		// Keep the existing goal object if the same annotation already
		// controls the slot(s).
		if cur, ok := b.GoalFor(ann.Slot1).(*annotated); ok && equalAnnot(cur.ann, ann) {
			continue
		}
		g, err := b.buildGoal(ann)
		if err != nil {
			return err
		}
		if err := b.install(&annotated{Goal: g, ann: ann}); err != nil {
			return fmt.Errorf("box %s state %s: %w", b.name, st.Name, err)
		}
	}
	// Safety net: if a new annotation took over one slot of a two-slot
	// goal (e.g. a flowlink redirected to a different partner), the
	// abandoned slot must not stay attached to the old goal object —
	// two controllers would fight over the shared slot. It falls back
	// to the box default.
	for _, ci := range b.chans {
		for _, s := range ci.owned {
			if err := b.unstale(s); err != nil {
				return fmt.Errorf("box %s state %s: reassigning %s: %w", b.name, st.Name, s.Name(), err)
			}
		}
	}
	return nil
}

// unstale hands s to the box default if its goal no longer controls
// all of that goal's slots.
func (b *Box) unstale(s *boxSlot) error {
	g := s.goal
	if g == nil {
		return nil
	}
	for _, other := range g.SlotNames() {
		if b.GoalFor(other) != g {
			b.setGoal(s, nil)
			_, err := b.ensureGoal(s)
			return err
		}
	}
	return nil
}

func (b *Box) buildGoal(ann Annot) (core.Goal, error) {
	prof := ann.Profile
	if prof == nil {
		prof = b.profile
	}
	switch ann.Kind {
	case AnnOpen:
		// Enforce the paper's precondition here: openSlot(s,m) can
		// annotate a state only if s is closed on entry.
		if s := b.slotOf(ann.Slot1); s != nil && (s.State() != slot.Closed || s.OwesCloseAck()) {
			return nil, fmt.Errorf("openSlot(%s) precondition: slot is %s", ann.Slot1, s.State())
		}
		return core.NewOpenSlot(ann.Slot1, ann.Medium, prof), nil
	case AnnClose:
		return core.NewCloseSlot(ann.Slot1), nil
	case AnnHold:
		return core.NewHoldSlot(ann.Slot1, prof), nil
	case AnnLink:
		return core.NewFlowLink(ann.Slot1, ann.Slot2), nil
	case AnnForward:
		return core.NewForwarder(ann.Slot1, ann.Slot2), nil
	default:
		return nil, fmt.Errorf("unknown annotation kind %d", ann.Kind)
	}
}

// step fires enabled transitions until none is enabled. A bound guards
// against programs that loop without consuming anything.
func (b *Box) step(ctx *Ctx) error {
	if b.program == nil {
		return nil
	}
	for rounds := 0; ; rounds++ {
		if rounds > 64 {
			return fmt.Errorf("box %s: program livelock in state %s", b.name, b.state.Name)
		}
		st := b.state
		if st == nil {
			return nil
		}
		fired := false
		for _, tr := range st.Trans {
			if tr.When(ctx) {
				if tr.Do != nil {
					tr.Do(ctx)
					if ctx.err != nil {
						return ctx.err
					}
				}
				if err := b.enterState(ctx, tr.To); err != nil {
					return err
				}
				fired = true
				break
			}
		}
		if !fired {
			return nil
		}
		// Event guards must not refire in subsequent states.
		ctx.ev = nil
	}
}

// Ctx is the programming interface available to program actions,
// hooks, and EvCall closures. It exposes the slot predicates of paper
// Section IV-A and the meta-actions programs need.
type Ctx struct {
	b   *Box
	ev  *Event
	err error
}

// Box returns the underlying box.
func (c *Ctx) Box() *Box { return c.b }

// Fail records an error that aborts the current event's processing.
func (c *Ctx) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// IsClosed reports the closed predicate for a slot; missing slots read
// as closed.
func (c *Ctx) IsClosed(name string) bool {
	s := c.b.slotOf(name)
	return s == nil || s.IsClosed()
}

// IsOpening reports the opening predicate for a slot.
func (c *Ctx) IsOpening(name string) bool {
	s := c.b.slotOf(name)
	return s != nil && s.IsOpening()
}

// IsOpened reports the opened predicate for a slot.
func (c *Ctx) IsOpened(name string) bool {
	s := c.b.slotOf(name)
	return s != nil && s.IsOpened()
}

// IsFlowing reports the flowing predicate for a slot.
func (c *Ctx) IsFlowing(name string) bool {
	s := c.b.slotOf(name)
	return s != nil && s.IsFlowing()
}

// OnMeta reports whether the current event is the given meta-signal on
// the given channel.
func (c *Ctx) OnMeta(channel string, kind sig.MetaKind) bool {
	return c.ev != nil && c.ev.Kind == EvEnvelope && c.ev.Channel == channel &&
		c.ev.Env.IsMeta() && c.ev.Env.Meta.Kind == kind
}

// OnApp reports whether the current event is the named application
// meta-signal on the given channel.
func (c *Ctx) OnApp(channel, app string) bool {
	return c.OnMeta(channel, sig.MetaApp) && c.ev.Env.Meta.App == app
}

// OnTimer reports whether the current event is the named timer firing.
func (c *Ctx) OnTimer(name string) bool {
	return c.ev != nil && c.ev.Kind == EvTimer && c.ev.Timer == name
}

// Event returns the current event, or nil in later transition rounds.
func (c *Ctx) Event() *Event { return c.ev }

// Dial creates a signaling channel named channel toward addr. The
// channel's slots exist immediately; the runtime completes the
// connection.
func (c *Ctx) Dial(channel, addr string) {
	if c.b.HasChannel(channel) {
		c.Fail(fmt.Errorf("box %s: channel %q already exists", c.b.name, channel))
		return
	}
	c.b.AddChannel(channel, true)
	c.b.outs = append(c.b.outs, Output{Kind: OutDial, Channel: channel, Addr: addr})
}

// Teardown destroys a signaling channel and all its tunnels and slots.
func (c *Ctx) Teardown(channel string) {
	ci := c.b.channel(channel)
	if ci == nil {
		return
	}
	c.b.destroyChannel(ci)
	c.b.outs = append(c.b.outs, Output{Kind: OutTeardown, Channel: channel, ci: ci})
}

// SendMeta emits a meta-signal on a channel.
func (c *Ctx) SendMeta(channel string, m sig.Meta) {
	c.b.outs = append(c.b.outs, Output{Kind: OutSend, Channel: channel, Env: sig.Envelope{Meta: &m}})
}

// SetTimer arms (or re-arms) a named timer.
func (c *Ctx) SetTimer(name string, d time.Duration) {
	c.b.addTimer(name).armed = true
	c.b.outs = append(c.b.outs, Output{Kind: OutTimerSet, Timer: name, Dur: d})
}

// CancelTimer disarms a named timer.
func (c *Ctx) CancelTimer(name string) {
	if i := c.b.timer(name); i >= 0 {
		c.b.disarm(i)
	}
	c.b.outs = append(c.b.outs, Output{Kind: OutTimerCancel, Timer: name})
}

// SetGoal installs a goal object directly, outside any program
// annotation. Devices and resources use this for autonomous behavior.
func (c *Ctx) SetGoal(g core.Goal) {
	if err := c.b.install(g); err != nil {
		c.Fail(err)
	}
}

// Refresh tells the goal controlling the named slot that the box's
// media profile changed (the modify event of paper Figure 5).
func (c *Ctx) Refresh(slotName string, inChanged, outChanged bool) {
	g := c.b.GoalFor(slotName)
	if g == nil {
		return
	}
	acts, err := g.Refresh(c.b, inChanged, outChanged)
	if err != nil {
		c.Fail(err)
		return
	}
	c.b.emitActions(acts)
}

// SendRaw emits a tunnel signal without slot bookkeeping or
// validation. It exists only for the uncoordinated-server baseline of
// paper Figure 2, whose boxes are not protocol endpoints.
func (c *Ctx) SendRaw(channel string, tunnel int, g sig.Signal) {
	c.b.outs = append(c.b.outs, Output{Kind: OutSend, Channel: channel, Env: sig.Envelope{Tunnel: tunnel, Sig: g}})
}

// Note emits a diagnostic output.
func (c *Ctx) Note(format string, args ...any) {
	c.b.outs = append(c.b.outs, Output{Kind: OutNote, Note: fmt.Sprintf(format, args...)})
}
