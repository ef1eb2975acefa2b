// Package box implements the box runtime of paper Section VII: Box
// objects contain the high-level code that calls on Goal and Slot
// objects, with a Maps association between slots and the goal objects
// controlling them, and the state-oriented programming model of
// Section IV (program states carrying goal annotations, with guarded
// transitions).
//
// The Box core is strictly synchronous and clock-free: events go in,
// outputs come out. Runtimes — the goroutine Runner in this package,
// the discrete-event simulator, and the model checker — own delivery,
// timing, and transports. This is what lets the same box code run over
// in-process queues, TCP, virtual time, and exhaustive exploration.
package box

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"ipmedia/internal/core"
	"ipmedia/internal/sig"
	"ipmedia/internal/slot"
	"ipmedia/internal/telemetry"
)

// TunnelSlot names the slot at this box for tunnel i of the named
// channel. All slots follow this convention, so programs can refer to
// slots of channels they create.
func TunnelSlot(channel string, i int) string {
	return channel + ".t" + strconv.Itoa(i)
}

// slotChannel recovers the channel name and tunnel index from a slot
// name.
func slotChannel(name string) (string, int, bool) {
	i := strings.LastIndex(name, ".t")
	if i < 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(name[i+2:])
	if err != nil {
		return "", 0, false
	}
	return name[:i], n, true
}

// EventKind classifies events delivered to a box.
type EventKind uint8

// The event kinds.
const (
	EvEnvelope EventKind = iota // a signal or meta-signal arrived on a channel
	EvTimer                     // a timer set by this box fired
	EvCall                      // run a closure inside the box (runtime-internal)
)

// Event is one stimulus for the box core.
type Event struct {
	Kind    EventKind
	Channel string       // EvEnvelope: channel the envelope arrived on
	Env     sig.Envelope // EvEnvelope payload
	Timer   string       // EvTimer: timer name
	Call    func(*Ctx)   // EvCall: closure to run
}

// OutputKind classifies box outputs for the runtime.
type OutputKind uint8

// The output kinds.
const (
	OutSend        OutputKind = iota // transmit Env on Channel
	OutDial                          // create a signaling channel Channel toward Addr
	OutTeardown                      // destroy channel Channel (MetaTeardown + close)
	OutTimerSet                      // arm timer Timer for Dur
	OutTimerCancel                   // disarm timer Timer
	OutNote                          // diagnostic for logs and tests
)

// Output is one instruction from the box core to its runtime.
type Output struct {
	Kind    OutputKind
	Channel string
	Env     sig.Envelope
	Addr    string
	Timer   string
	Dur     time.Duration
	Note    string
}

func (o Output) String() string {
	switch o.Kind {
	case OutSend:
		return fmt.Sprintf("send %s on %s", o.Env, o.Channel)
	case OutDial:
		return fmt.Sprintf("dial %s as %s", o.Addr, o.Channel)
	case OutTeardown:
		return fmt.Sprintf("teardown %s", o.Channel)
	case OutTimerSet:
		return fmt.Sprintf("timer %s in %s", o.Timer, o.Dur)
	case OutTimerCancel:
		return fmt.Sprintf("cancel timer %s", o.Timer)
	default:
		return "note: " + o.Note
	}
}

type chanInfo struct {
	name      string
	initiator bool
	slotNames []string  // cached TunnelSlot names, indexed by tunnel
	owned     []string  // names of the live slots of this channel (ensureSlot adds them)
	own1      [1]string // owned's first backing: most channels carry one tunnel
}

// tunnelSlot returns the slot name for tunnel i, cached so
// steady-state dispatch does no string building. Indexes outside a
// sane tunnel range fall back to direct construction rather than
// growing the cache on hostile input.
func (ci *chanInfo) tunnelSlot(i int) string {
	if i < 0 || i >= 1024 {
		return TunnelSlot(ci.name, i)
	}
	for len(ci.slotNames) <= i {
		ci.slotNames = append(ci.slotNames, TunnelSlot(ci.name, len(ci.slotNames)))
	}
	return ci.slotNames[i]
}

// frame holds the per-Handle working state (the event copy the Ctx
// points at). Frames are pooled per box so steady-state dispatch does
// not allocate; re-entrant Handle calls simply take a second frame.
type frame struct {
	ev  Event
	ctx Ctx
}

// Box is the synchronous core of one box (peer module involved in
// media control). It may be driven by the Runner in this package, by
// the discrete-event simulator, or directly by tests.
type Box struct {
	name    string
	profile core.Profile // profile for annotation-created goals

	slots map[string]*slot.Slot
	goals map[string]core.Goal // the Maps object: slot name -> goal
	chans map[string]*chanInfo

	program  *Program
	state    string
	pendingT map[string]bool // armed timers

	// DefaultGoal builds the goal object for a slot that receives
	// traffic before any annotation or explicit goal covers it. The
	// default default is a holdSlot with the box profile.
	DefaultGoal func(slotName string) core.Goal

	// Hook, if non-nil, observes every event before program transitions
	// run. Devices and resources use it for autonomous behavior.
	Hook func(ctx *Ctx, ev *Event)

	outs     []Output
	spare    []Output // recycled output buffer (see Recycle)
	frames   []*frame
	chanVer  uint64
	dirty    []string // channels mutated since ResetDirtyChannels
	track    bool     // record dirty channel names (runtime-driven boxes only)
	goalCtrs map[string]*telemetry.Counter

	// chanCache recycles chanInfo records by channel name: dial-heavy
	// workloads destroy and re-create the same channels constantly, and
	// a recycled record keeps its built-up tunnelSlot name cache, so a
	// redial does no slot-name string building at all. Bounded so
	// hostile channel-name churn cannot grow it without limit.
	chanCache map[string]*chanInfo

	widowScratch []string // reused by destroyChannel
}

// chanCacheCap bounds chanCache (matches the runner's name caches).
const chanCacheCap = 256

// New creates a box. The profile is used by all annotation-created
// goals; application servers pass core.ServerProfile, media endpoints
// their EndpointProfile.
func New(name string, profile core.Profile) *Box {
	b := &Box{
		name:     name,
		profile:  profile,
		slots:    map[string]*slot.Slot{},
		goals:    map[string]core.Goal{},
		chans:    map[string]*chanInfo{},
		pendingT: map[string]bool{},
	}
	b.DefaultGoal = func(slotName string) core.Goal {
		return core.NewHoldSlot(slotName, b.profile)
	}
	return b
}

// Name returns the box name.
func (b *Box) Name() string { return b.name }

// Profile returns the box's media profile.
func (b *Box) Profile() core.Profile { return b.profile }

// Slot implements core.Slots for this box's goal objects.
func (b *Box) Slot(name string) *slot.Slot { return b.slots[name] }

// GoalFor returns the goal object currently controlling the named
// slot, if any.
func (b *Box) GoalFor(name string) core.Goal { return b.goals[name] }

// State returns the current program state name, if a program is set.
func (b *Box) State() string { return b.state }

// SlotNames returns the box's slot names, sorted for deterministic
// iteration.
func (b *Box) SlotNames() []string {
	out := make([]string, 0, len(b.slots))
	for n := range b.slots {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Links returns the slot pairs currently joined by flowlinks (or raw
// forwarders), for signaling-path analysis.
func (b *Box) Links() [][2]string {
	var out [][2]string
	seen := map[string]bool{}
	for _, name := range b.SlotNames() {
		g := b.goals[name]
		if g == nil || seen[name] {
			continue
		}
		if a, ok := g.(*annotated); ok {
			g = a.Goal
		}
		ns := g.SlotNames()
		if len(ns) == 2 {
			out = append(out, [2]string{ns[0], ns[1]})
			seen[ns[0]], seen[ns[1]] = true, true
		}
	}
	return out
}

// Channels returns the names of the box's signaling channels.
func (b *Box) Channels() []string {
	out := make([]string, 0, len(b.chans))
	for n := range b.chans {
		out = append(out, n)
	}
	return out
}

// HasChannel reports whether the named channel exists.
func (b *Box) HasChannel(name string) bool { return b.chans[name] != nil }

// ChanVersion counts mutations of the channel table (additions and
// destructions). Runtimes use it to notify channel waiters only when
// the table actually changed.
func (b *Box) ChanVersion() uint64 { return b.chanVer }

// AddChannel registers a signaling channel. The runtime calls it when
// a channel is accepted; Dial registers the initiating side.
func (b *Box) AddChannel(name string, initiator bool) {
	ci := b.chans[name] // re-adding a live channel keeps the slots it owns
	if ci == nil {
		ci = b.chanCache[name]
	}
	if ci == nil {
		ci = &chanInfo{name: name}
		ci.owned = ci.own1[:0]
	}
	ci.initiator = initiator
	b.chans[name] = ci
	b.chanVer++
	b.markDirty(name)
}

// TrackDirtyChannels turns on dirty-channel recording: every channel
// add or destroy also records the channel name until the next
// ResetDirtyChannels. Runtimes use the names for keyed waiter wakeups.
// Tracking is opt-in so drivers that never reset (the simulator, the
// model checker) do not accumulate an unbounded list.
func (b *Box) TrackDirtyChannels() { b.track = true }

// DirtyChannels returns the channels mutated since the last reset. The
// slice is owned by the box: it is only valid until the next Handle,
// and callers must not retain it.
func (b *Box) DirtyChannels() []string { return b.dirty }

// ResetDirtyChannels clears the dirty list, keeping its backing array.
func (b *Box) ResetDirtyChannels() { b.dirty = b.dirty[:0] }

func (b *Box) markDirty(name string) {
	if b.track {
		b.dirty = append(b.dirty, name)
	}
}

// ensureSlot creates the slot (and its default goal) on first use.
func (b *Box) ensureSlot(name string) (*slot.Slot, error) {
	if s := b.slots[name]; s != nil {
		return s, nil
	}
	ch, _, ok := slotChannel(name)
	if !ok {
		return nil, fmt.Errorf("box %s: malformed slot name %q", b.name, name)
	}
	ci := b.chans[ch]
	if ci == nil {
		return nil, fmt.Errorf("box %s: slot %q references unknown channel %q", b.name, name, ch)
	}
	s := slot.New(name, ci.initiator)
	b.slots[name] = s
	ci.owned = append(ci.owned, name)
	return s, nil
}

// ensureGoal returns the goal for a slot, installing the default if
// none is set, and applying its attach actions.
func (b *Box) ensureGoal(name string) (core.Goal, error) {
	if g := b.goals[name]; g != nil {
		return g, nil
	}
	g := b.DefaultGoal(name)
	if err := b.install(g); err != nil {
		return nil, err
	}
	return g, nil
}

// install maps a goal over its slots and applies its attach actions.
func (b *Box) install(g core.Goal) error {
	for _, s := range g.SlotNames() {
		if _, err := b.ensureSlot(s); err != nil {
			return err
		}
		b.goals[s] = g
	}
	acts, err := g.Attach(b)
	if err != nil {
		return err
	}
	b.emitActions(acts)
	return nil
}

// emitActions converts goal actions into transport outputs.
func (b *Box) emitActions(acts []core.Action) {
	for _, a := range acts {
		ch, tunnel, ok := slotChannel(a.Slot)
		if !ok {
			continue
		}
		b.outs = append(b.outs, Output{
			Kind:    OutSend,
			Channel: ch,
			Env:     sig.Envelope{Tunnel: tunnel, Sig: a.Sig},
		})
	}
}

// asRaw reports whether a goal (possibly wrapped by an annotation) is
// a raw-forwarding goal.
func asRaw(g core.Goal) (core.RawGoal, bool) {
	if a, ok := g.(*annotated); ok {
		g = a.Goal
	}
	rg, ok := g.(core.RawGoal)
	return rg, ok
}

// destroyChannel removes a channel and all its tunnels, slots, and
// goal mappings ("destroying channel 1 is a meta-action that of course
// destroys all its tunnels and slots", paper Section IV-B). A slot
// that was flowlinked to a destroyed slot falls back to a closeSlot:
// its path is broken, so its half of the channel is shut down cleanly.
// The cost is that of the channel's own slots, whatever else the box
// holds.
func (b *Box) destroyChannel(name string) {
	ci := b.chans[name]
	if ci == nil {
		return // no channel, so no slot of it either (see ensureSlot)
	}
	delete(b.chans, name)
	b.chanVer++
	b.markDirty(name)
	// Every goal partner of an owned slot is a candidate widow; the ones
	// still standing once the channel's slots are gone belong to other
	// channels.
	widowed := b.widowScratch[:0]
	for _, sn := range ci.owned {
		if g := b.goals[sn]; g != nil {
			for _, partner := range g.SlotNames() {
				if partner != sn {
					widowed = append(widowed, partner)
				}
			}
		}
		delete(b.slots, sn)
		delete(b.goals, sn)
	}
	ci.owned = ci.owned[:0]
	if len(b.chanCache) < chanCacheCap { // a record already cached is this one: AddChannel reuses it
		if b.chanCache == nil {
			b.chanCache = make(map[string]*chanInfo, 8)
		}
		b.chanCache[name] = ci
	}
	for _, sn := range widowed {
		if b.slots[sn] == nil {
			continue
		}
		if err := b.install(core.NewCloseSlot(sn)); err != nil {
			b.outs = append(b.outs, Output{Kind: OutNote, Note: "widowed slot cleanup: " + err.Error()})
		}
	}
	b.widowScratch = widowed[:0]
}

// Handle processes one event and returns the outputs it produced. It
// must be called from a single goroutine. The returned slice is owned
// by the caller until passed back via Recycle.
func (b *Box) Handle(ev Event) ([]Output, error) {
	saved := b.outs // non-nil only if Handle re-enters mid-event
	b.outs = b.spare[:0]
	b.spare = nil

	f := b.getFrame()
	f.ev = ev
	f.ctx = Ctx{b: b, ev: &f.ev}
	err := b.handleFrame(f)
	b.putFrame(f)

	outs := b.outs
	b.outs = saved
	return outs, err
}

func (b *Box) handleFrame(f *frame) error {
	ctx := &f.ctx
	if err := b.dispatch(ctx, &f.ev); err != nil {
		return err
	}
	if b.Hook != nil && f.ev.Kind != EvCall {
		b.Hook(ctx, &f.ev)
	}
	return b.step(ctx)
}

// Recycle hands an output slice from Handle back to the box for
// reuse, so steady-state events dispatch without allocating. Only the
// slice most recently returned by Handle (or one with larger
// capacity) is worth returning; the box keeps the biggest buffer.
func (b *Box) Recycle(outs []Output) {
	if cap(outs) <= cap(b.spare) {
		return
	}
	outs = outs[:cap(outs)]
	for i := range outs {
		outs[i] = Output{} // drop envelope/string references
	}
	b.spare = outs[:0]
}

func (b *Box) getFrame() *frame {
	if n := len(b.frames); n > 0 {
		f := b.frames[n-1]
		b.frames = b.frames[:n-1]
		return f
	}
	return &frame{}
}

func (b *Box) putFrame(f *frame) {
	f.ev = Event{}
	f.ctx = Ctx{}
	b.frames = append(b.frames, f)
}

// goalCounter memoizes the per-goal-kind invocation counter, keyed by
// the goal kind, so dispatch does not rebuild the metric name per
// envelope.
func (b *Box) goalCounter(kind string) *telemetry.Counter {
	if c := b.goalCtrs[kind]; c != nil {
		return c
	}
	if b.goalCtrs == nil {
		b.goalCtrs = map[string]*telemetry.Counter{}
	}
	c := telemetry.C(MetricGoalInvocationsPrefix + kind)
	b.goalCtrs[kind] = c
	return c
}

func (b *Box) dispatch(ctx *Ctx, ev *Event) error {
	switch ev.Kind {
	case EvEnvelope:
		if ev.Env.IsMeta() {
			if ev.Env.Meta.Kind == sig.MetaTeardown {
				b.destroyChannel(ev.Channel)
			}
			return nil // metas are observed by hooks and guards
		}
		ci := b.chans[ev.Channel]
		if ci == nil {
			// Signal for a channel already destroyed locally; drop.
			return nil
		}
		name := ci.tunnelSlot(ev.Env.Tunnel)
		s, err := b.ensureSlot(name)
		if err != nil {
			return err
		}
		g, err := b.ensureGoal(name)
		if err != nil {
			return err
		}
		if rg, ok := asRaw(g); ok {
			// Uncoordinated forwarding: the slot is not a protocol
			// endpoint (Figure 2 baseline).
			b.emitActions(rg.OnRaw(name, ev.Env.Sig))
			return nil
		}
		sev, err := s.Receive(ev.Env.Sig)
		if err != nil {
			return fmt.Errorf("box %s: %w", b.name, err)
		}
		// Enabled() gates the counter resolution; the per-kind counter is
		// cached so the enabled path does no string work either.
		if telemetry.Enabled() {
			b.goalCounter(g.Kind()).Inc()
		}
		acts, err := g.OnEvent(b, name, sev, ev.Env.Sig)
		if err != nil {
			return fmt.Errorf("box %s: goal %s: %w", b.name, g.Kind(), err)
		}
		b.emitActions(acts)
		return nil
	case EvTimer:
		if !b.pendingT[ev.Timer] {
			ev.Timer = "" // stale fire: not guardable
			return nil
		}
		delete(b.pendingT, ev.Timer)
		return nil
	case EvCall:
		if ev.Call != nil {
			ev.Call(ctx)
		}
		return ctx.err
	default:
		return fmt.Errorf("box %s: unknown event kind %d", b.name, ev.Kind)
	}
}
