// Package box implements the box runtime of paper Section VII: Box
// objects contain the high-level code that calls on Goal and Slot
// objects, with a Maps association between slots and the goal objects
// controlling them (held on each slot), and the state-oriented
// programming model of Section IV (program states carrying goal
// annotations, with guarded transitions).
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
	"ipmedia/internal/timerwheel"
	"ipmedia/internal/transport"
)

// TunnelSlot names the slot at this box for tunnel i of the named
// channel. All slots follow this convention, so programs can refer to
// slots of channels they create.
func TunnelSlot(channel string, i int) string {
	return channel + ".t" + strconv.Itoa(i)
}

// slotChannel recovers the channel name and tunnel index from a slot
// name. Most slots are tunnel 0's, so that suffix is tried first.
func slotChannel(name string) (string, int, bool) {
	if strings.HasSuffix(name, ".t0") {
		return name[:len(name)-3], 0, true
	}
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

	ci *chanInfo // Channel's record if the runtime holds it; nil: resolve Channel by name
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

	ci *chanInfo // a goal's OutSend or an OutTeardown: the channel's record, so the runner need not look it up
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

// chanInfo is the one record a box and its runner keep per signaling
// channel. It outlives the channel: when the channel is destroyed and
// its port is gone the record is parked under its name, and the next
// channel of that name reopens it with everything it built up — the
// slot names, tunnel 0's slot storage, the runner's readiness callback
// and setup meta — so a redial or a re-accept builds none of it again.
// What a box keeps is bounded by the most channels it has held at once
// lately (see retire).
//
// A record is in one of three states: live (the box holds the channel),
// closing (the channel is destroyed, the runner's port is not yet gone)
// or parked. Box.channel sees live records only, Box.record all.
type chanInfo struct {
	name      string
	live      bool // the box holds the channel: between AddChannel and destroyChannel
	initiator bool
	minted    bool        // a default accept name (in<k>): any accepted channel may reopen the record
	parked    bool        // on the box's parked list
	slotNames []string    // cached TunnelSlot names, indexed by tunnel
	owned     []*boxSlot  // the live slots of this channel (newSlot adds them); the box finds a slot here
	own1      [1]*boxSlot // owned's first backing: most channels carry one tunnel
	s0        boxSlot     // storage for tunnel 0's slot, reset for each channel the record serves

	// Runner state, unused in a box driven without one. Loop goroutine
	// only.
	port  transport.Port // nil once closed or lost
	ready func()         // the inline port's readiness callback, built once
	setup *sig.Meta      // the setup meta announcing this box on the channel, built once
	lc    *lcState       // the lifecycle's view of the channel, made by its first setup

	parkPrev, parkNext *chanInfo // links on the box's parked list
}

// parkList is a box's parked records, oldest first. It is linked
// through the records so that reopening one by name unlinks it in O(1)
// and parking allocates nothing.
type parkList struct {
	head, tail *chanInfo
	n          int
}

func (l *parkList) push(ci *chanInfo) {
	ci.parked, ci.parkPrev, ci.parkNext = true, l.tail, nil
	if l.tail != nil {
		l.tail.parkNext = ci
	} else {
		l.head = ci
	}
	l.tail = ci
	l.n++
}

func (l *parkList) remove(ci *chanInfo) {
	if ci.parkPrev != nil {
		ci.parkPrev.parkNext = ci.parkNext
	} else {
		l.head = ci.parkNext
	}
	if ci.parkNext != nil {
		ci.parkNext.parkPrev = ci.parkPrev
	} else {
		l.tail = ci.parkPrev
	}
	ci.parked, ci.parkPrev, ci.parkNext = false, nil, nil
	l.n--
}

// lcState is what the runner's lifecycle keeps of a channel: the peer
// and when the channel was set up. A record keeps its lcState for the
// channels it serves next, so only a record's first setup allocates it.
type lcState struct {
	peer string
	at   int64 // Unix ns when the lifecycle saw the channel set up; 0: not set up, or torn down
}

// boxSlot is a slot together with its place in the box: the channel
// record that owns it and its tunnel index, so an action naming the
// slot resolves to (channel, tunnel) by one lookup, and its end of the
// Maps association: the goal object controlling it and that goal's
// invocation counter.
type boxSlot struct {
	slot.Slot
	ci     *chanInfo
	tunnel int
	goal   core.Goal          // nil until a goal is installed over the slot
	ctr    *telemetry.Counter // box.goal_invocations.<goal kind>, resolved by the goal's first dispatch
}

// widow is the closeSlot a slot falls back to when its flowlink
// partner's channel is destroyed (destroyChannel). Widows come from the
// scratch and go back to it when the slot takes another goal or goes,
// so a widowed slot costs no allocation and a slot that is never
// widowed holds no closeSlot.
type widow struct{ core.CloseSlot }

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
// points at). Frames are pooled in the scratch so steady-state dispatch
// does not allocate; re-entrant Handle calls simply take a second frame.
type frame struct {
	ev  Event
	ctx Ctx
}

// scratch is what a box uses only while it handles an event: the
// recycled output buffer, the frames its Ctx lives in, the action
// buffer it lends goal objects, destroyChannel's widow list and the
// goal-counter memo. None of it is state between events, so a box run
// by a Runner borrows its shard's — one loop goroutine handles every
// box of the shard, one event at a time, so sharing takes no lock; it
// is part of the shard's turn, which a parked standalone loop lends
// back — and a box driven directly builds its own on first use. The
// memo travels with the scratch. Nesting is safe:
// the output buffer, the frames and the widow list are taken and given
// back, so a nested event takes a fresh one and never aliases one in
// use, and a goal call's actions are turned into outputs before any
// other goal call is made.
type scratch struct {
	spare    []Output // recycled output buffer (see Recycle)
	frames   []*frame
	acts     []core.Action // lent to goal objects (core.ActionLender)
	widowed  []string      // reused by destroyChannel
	widows   []*widow      // closeSlots no widowed slot holds
	goalCtrs map[string]*telemetry.Counter
	ctrsOf   *telemetry.Registry // the registry goalCtrs' counters are from
}

// boxTimer is one named timer of a box: whether the program has it
// armed, and, under a Runner, the wheel timer the runner re-arms in
// place for the name.
type boxTimer struct {
	name  string
	armed bool              // set and not yet fired or cancelled; a fire of an unarmed timer is stale
	wheel *timerwheel.Timer // the runner's; nil in a box driven without one
}

// Box is the synchronous core of one box (peer module involved in
// media control). It may be driven by the Runner in this package, by
// the discrete-event simulator, or directly by tests.
//
// Between events a box holds its state: slots, goals, channel records,
// program state and timers. A slot lives in the record of its channel,
// whose name its own carries (TunnelSlot), and carries its goal: the
// Maps association is the records' slots, with no table of its own.
// What a box needs only during an event is its scratch, which belongs
// to whoever drives it: the shard of its Runner, or the box itself when
// it is driven directly.
type Box struct {
	name    string
	profile core.Profile // profile for annotation-created goals

	// chans holds every channel record by name — live, closing or parked
	// — live counts the live ones and parked lists the parked ones. peak
	// is the most channels held at once in the current window of
	// peakWindow opens, peakPrev in the window before: together, how many
	// names the box has had in use lately.
	chans          map[string]*chanInfo
	live           int
	parked         parkList
	peak, peakPrev int
	opens          int

	program *Program
	state   *State     // the program's current state
	timers  []boxTimer // a box holds one or two: searched by name

	// DefaultGoal builds the goal object for a slot that receives
	// traffic before any annotation or explicit goal covers it. Nil
	// builds a holdSlot with the box profile.
	DefaultGoal func(slotName string) core.Goal

	// Hook, if non-nil, observes every event before program transitions
	// run. Devices and resources use it for autonomous behavior.
	Hook func(ctx *Ctx, ev *Event)

	outs    []Output
	sc      *scratch // under a Runner, its shard's turn's (nil while a standalone loop is parked); otherwise nil until first use
	chanVer uint64
	dirty   []string // channels mutated since ResetDirtyChannels
	track   bool     // record dirty channel names (runtime-driven boxes only)
}

// parkSlack is how many channel records a box keeps beyond the most
// channels it has held at once lately; peakWindow is how many channel
// opens "lately" spans, twice over.
const (
	parkSlack  = 8
	peakWindow = 1024
)

// New creates a box. The profile is used by all annotation-created
// goals; application servers pass core.ServerProfile, media endpoints
// their EndpointProfile.
func New(name string, profile core.Profile) *Box {
	return &Box{
		name:    name,
		profile: profile,
		chans:   map[string]*chanInfo{},
	}
}

// Name returns the box name.
func (b *Box) Name() string { return b.name }

// Profile returns the box's media profile.
func (b *Box) Profile() core.Profile { return b.profile }

// Slot implements core.Slots for this box's goal objects.
func (b *Box) Slot(name string) *slot.Slot {
	if bs := b.slotOf(name); bs != nil {
		return &bs.Slot
	}
	return nil
}

// LendActions implements core.ActionLender: one buffer, the scratch's,
// serves every goal call, because a box turns a call's actions into
// outputs (emitActions) before it or a box sharing its scratch makes
// the next call.
func (b *Box) LendActions() *[]core.Action { return &b.scratch().acts }

// scratch returns the box's per-event scratch, building one for a box
// driven without a Runner.
func (b *Box) scratch() *scratch {
	if b.sc == nil {
		b.sc = new(scratch)
	}
	return b.sc
}

// GoalFor returns the goal object currently controlling the named
// slot, if any.
func (b *Box) GoalFor(name string) core.Goal {
	if s := b.slotOf(name); s != nil {
		return s.goal
	}
	return nil
}

// State returns the current program state name, if a program is set.
func (b *Box) State() string {
	if b.state == nil {
		return ""
	}
	return b.state.Name
}

// SlotNames returns the box's slot names, sorted for deterministic
// iteration.
func (b *Box) SlotNames() []string {
	out := []string{}
	for _, ci := range b.chans {
		for _, s := range ci.owned {
			out = append(out, s.Name())
		}
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
		g := b.slotOf(name).goal
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
	out := make([]string, 0, b.live)
	for n, ci := range b.chans {
		if ci.live {
			out = append(out, n)
		}
	}
	return out
}

// channel returns the record of the named channel if the box holds
// the channel, nil otherwise (no record, or a closing or parked one).
func (b *Box) channel(name string) *chanInfo {
	if ci := b.chans[name]; ci != nil && ci.live {
		return ci
	}
	return nil
}

// record returns the record kept under the name, whatever its state.
// This is the runner's lookup: a port outlives its channel (a local
// teardown closes it one output later, a remote one when the transport
// reports the loss), and a notification can outlive both.
func (b *Box) record(name string) *chanInfo { return b.chans[name] }

// recordOf returns the record of ev's channel: the one ev carries, or
// the one kept under its name.
func (b *Box) recordOf(ev *Event) *chanInfo {
	if ev.ci != nil {
		return ev.ci
	}
	return b.chans[ev.Channel]
}

// HasChannel reports whether the named channel exists.
func (b *Box) HasChannel(name string) bool { return b.channel(name) != nil }

// ChanVersion counts mutations of the channel table (additions and
// destructions). Runtimes use it to notify channel waiters only when
// the table actually changed.
func (b *Box) ChanVersion() uint64 { return b.chanVer }

// AddChannel registers a signaling channel. The runtime calls it when
// a channel is accepted; Dial registers the initiating side.
func (b *Box) AddChannel(name string, initiator bool) { b.addChannel(name, initiator, false) }

// addChannel opens the named channel on its record — the live one
// (re-adding a live channel keeps the slots it owns), a closing or
// parked one, or a new one — and returns the record. minted says the
// name is a default accept name; a name a program opens itself stops
// being one.
func (b *Box) addChannel(name string, initiator, minted bool) *chanInfo {
	ci := b.chans[name]
	if ci == nil {
		ci = &chanInfo{name: name}
		ci.owned = ci.own1[:0]
		b.chans[name] = ci
	}
	ci.minted = minted
	b.open(ci, initiator)
	return ci
}

// open makes ci's channel live (if it is not) and records the change.
func (b *Box) open(ci *chanInfo, initiator bool) {
	if ci.parked {
		b.parked.remove(ci)
	}
	if !ci.live {
		ci.live = true
		if b.live++; b.live > b.peak {
			b.peak = b.live
		}
		if b.opens++; b.opens == peakWindow {
			b.opens, b.peakPrev, b.peak = 0, b.peak, b.live
		}
	}
	ci.initiator = initiator
	b.chanVer++
	b.markDirty(ci.name)
}

// reopenMinted opens a channel on the most recently parked record that
// carries a default accept name, under that name, or returns nil if
// none is parked. The walk passes the records of dialed channels parked
// since; a listener's parked records are nearly all accept names.
func (b *Box) reopenMinted() *chanInfo {
	for ci := b.parked.tail; ci != nil; ci = ci.parkPrev {
		if ci.minted {
			b.open(ci, false)
			return ci
		}
	}
	return nil
}

// retire parks a record once its channel is destroyed and its port is
// gone; whichever of the two happens last calls it. A box keeps as many
// records as it has held channels at once lately, plus parkSlack, and
// forgets the longest-parked beyond that. So the names in use keep
// their records from one channel to the next however they take turns
// being live, a churn of never-repeated names cannot grow the table nor
// push the repeated ones out, and what a burst parked goes within two
// windows of the burst. A later channel under a forgotten name starts
// afresh.
func (b *Box) retire(ci *chanInfo) {
	if ci.live || ci.port != nil || ci.parked {
		return
	}
	b.parked.push(ci)
	for b.parked.n > 0 && len(b.chans) > max(b.peak, b.peakPrev)+parkSlack {
		old := b.parked.head
		b.parked.remove(old)
		delete(b.chans, old.name)
	}
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

// slotOf returns the named slot, nil if the box has none: a slot of a
// live channel, found in the record of the channel its name carries.
func (b *Box) slotOf(name string) *boxSlot {
	ch, _, ok := slotChannel(name)
	if !ok {
		return nil
	}
	if ci := b.channel(ch); ci != nil {
		return ci.slot(name)
	}
	return nil
}

// slot returns the channel's slot of the given name, nil if it has
// none. Most channels own one slot.
func (ci *chanInfo) slot(name string) *boxSlot {
	for _, s := range ci.owned {
		if s.Name() == name {
			return s
		}
	}
	return nil
}

// ensureSlot returns the named slot, creating it on first use; the
// name must be a tunnel of a channel the box holds.
func (b *Box) ensureSlot(name string) (*boxSlot, error) {
	ch, tunnel, ok := slotChannel(name)
	if !ok {
		return nil, fmt.Errorf("box %s: malformed slot name %q", b.name, name)
	}
	ci := b.channel(ch)
	if ci == nil {
		return nil, fmt.Errorf("box %s: slot %q references unknown channel %q", b.name, name, ch)
	}
	if s := ci.slot(name); s != nil {
		return s, nil
	}
	return b.newSlot(ci, tunnel, name), nil
}

// newSlot creates the slot of a tunnel of ci, with no goal. A
// channel's first slot, if it is tunnel 0's (most channels carry that
// one tunnel), lives in the channel record; any other is allocated.
func (b *Box) newSlot(ci *chanInfo, tunnel int, name string) *boxSlot {
	s := &ci.s0
	if tunnel != 0 || len(ci.owned) > 0 {
		s = &boxSlot{}
	}
	s.Slot.Reset(name, ci.initiator)
	s.ci, s.tunnel, s.goal, s.ctr = ci, tunnel, nil, nil
	ci.owned = append(ci.owned, s)
	return s
}

// ensureGoal returns the goal for a slot, installing the default if
// none is set, and applying its attach actions.
func (b *Box) ensureGoal(s *boxSlot) (core.Goal, error) {
	if s.goal != nil {
		return s.goal, nil
	}
	var g core.Goal
	if b.DefaultGoal != nil {
		g = b.DefaultGoal(s.Name())
	} else {
		g = core.NewHoldSlot(s.Name(), b.profile)
	}
	if err := b.install(g); err != nil {
		return nil, err
	}
	return g, nil
}

// install maps a goal over its slots and applies its attach actions.
func (b *Box) install(g core.Goal) error {
	for _, name := range g.SlotNames() {
		s, err := b.ensureSlot(name)
		if err != nil {
			return err
		}
		b.setGoal(s, g)
	}
	acts, err := g.Attach(b)
	if err != nil {
		return err
	}
	b.emitActions(acts)
	return nil
}

// setGoal makes g (nil: none) the goal of s. A widow s held goes back
// to the scratch: nothing else holds it.
func (b *Box) setGoal(s *boxSlot, g core.Goal) {
	if w, ok := s.goal.(*widow); ok {
		sc := b.scratch()
		sc.widows = append(sc.widows, w)
	}
	s.goal, s.ctr = g, nil
}

// widow returns a closeSlot for the named slot: one a slot gave back
// (setGoal), or a new one.
func (sc *scratch) widow(name string) *widow {
	var w *widow
	if n := len(sc.widows); n > 0 {
		w = sc.widows[n-1]
		sc.widows[n-1] = nil
		sc.widows = sc.widows[:n-1]
	} else {
		w = new(widow)
	}
	w.Reset(name)
	return w
}

// emitActions converts goal actions into transport outputs. Every slot
// a goal can act on is one the box holds (Emit resolves it through
// Slot, install creates a raw goal's), and the slot knows its channel
// and tunnel.
func (b *Box) emitActions(acts []core.Action) {
	for i := range acts {
		a := &acts[i]
		s := b.slotOf(a.Slot)
		if s == nil {
			continue
		}
		b.outs = append(b.outs, Output{
			Kind:    OutSend,
			Channel: s.ci.name,
			Env:     sig.Envelope{Tunnel: s.tunnel, Sig: a.Sig},
			ci:      s.ci,
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

// destroyChannel removes a live channel and all its tunnels, slots,
// and goal mappings ("destroying channel 1 is a meta-action that of
// course destroys all its tunnels and slots", paper Section IV-B). A
// slot that was flowlinked to a destroyed slot falls back to a
// closeSlot: its path is broken, so its half of the channel is shut
// down cleanly. The cost is that of the channel's own slots, whatever
// else the box holds.
func (b *Box) destroyChannel(ci *chanInfo) {
	ci.live = false
	b.live--
	b.chanVer++
	b.markDirty(ci.name)
	// Every goal partner of an owned slot is a candidate widow; the ones
	// still standing once the channel's slots are gone belong to other
	// channels.
	sc := b.scratch()
	widowed := sc.widowed[:0]
	sc.widowed = nil
	for i, s := range ci.owned {
		sn := s.Name()
		if s.goal != nil {
			for _, partner := range s.goal.SlotNames() {
				if partner != sn {
					widowed = append(widowed, partner)
				}
			}
		}
		b.setGoal(s, nil)
		ci.owned[i] = nil
	}
	ci.owned = ci.owned[:0]
	b.retire(ci)
	for _, sn := range widowed {
		if b.slotOf(sn) == nil {
			continue
		}
		if err := b.install(sc.widow(sn)); err != nil {
			b.outs = append(b.outs, Output{Kind: OutNote, Note: "widowed slot cleanup: " + err.Error()})
		}
	}
	sc.widowed = widowed[:0]
}

// Handle processes one event and returns the outputs it produced. It
// must be called from a single goroutine. The returned slice is owned
// by the caller until passed back via Recycle.
func (b *Box) Handle(ev Event) ([]Output, error) { return b.handle(&ev) }

// handle is Handle on an event its caller holds, so a runtime's event
// is copied once, into the frame.
func (b *Box) handle(ev *Event) ([]Output, error) {
	sc := b.scratch()
	saved := b.outs // non-nil only if Handle re-enters mid-event
	b.outs = sc.spare[:0]
	sc.spare = nil

	f := sc.getFrame()
	f.ev = *ev
	f.ctx = Ctx{b: b, ev: &f.ev}
	err := b.handleFrame(f)
	sc.putFrame(f)

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
// capacity) is worth returning; the scratch keeps the biggest buffer.
func (b *Box) Recycle(outs []Output) {
	sc := b.scratch()
	if cap(outs) <= cap(sc.spare) {
		return
	}
	outs = outs[:cap(outs)]
	for i := range outs {
		outs[i] = Output{} // drop envelope/string references
	}
	sc.spare = outs[:0]
}

func (sc *scratch) getFrame() *frame {
	if n := len(sc.frames); n > 0 {
		f := sc.frames[n-1]
		sc.frames = sc.frames[:n-1]
		return f
	}
	return &frame{}
}

func (sc *scratch) putFrame(f *frame) {
	f.ev = Event{}
	f.ctx = Ctx{}
	sc.frames = append(sc.frames, f)
}

// goalCounter memoizes the per-goal-kind invocation counter, so a
// slot's first dispatch under a goal does not build the metric name.
// The memo outlives the boxes that filled it, so it starts over when
// the default registry is replaced.
func (sc *scratch) goalCounter(kind string) *telemetry.Counter {
	if reg := telemetry.Default(); reg != sc.ctrsOf {
		sc.goalCtrs, sc.ctrsOf = nil, reg
	}
	if c := sc.goalCtrs[kind]; c != nil {
		return c
	}
	if sc.goalCtrs == nil {
		sc.goalCtrs = map[string]*telemetry.Counter{}
	}
	c := telemetry.C(MetricGoalInvocationsPrefix + kind)
	sc.goalCtrs[kind] = c
	return c
}

// timer returns the index of the named timer in the box's table, -1 if
// the box has none under the name.
func (b *Box) timer(name string) int {
	for i := range b.timers {
		if b.timers[i].name == name {
			return i
		}
	}
	return -1
}

// addTimer returns the named timer, adding it unarmed if the box has
// none under the name. The pointer is good until the table changes.
func (b *Box) addTimer(name string) *boxTimer {
	if i := b.timer(name); i >= 0 {
		return &b.timers[i]
	}
	b.timers = append(b.timers, boxTimer{name: name})
	return &b.timers[len(b.timers)-1]
}

// disarm marks the i-th timer fired or cancelled. One without a wheel
// timer has nothing left to keep and leaves the table.
func (b *Box) disarm(i int) {
	b.timers[i].armed = false
	if b.timers[i].wheel == nil {
		b.dropTimer(i)
	}
}

// dropTimer removes the i-th timer from the table.
func (b *Box) dropTimer(i int) {
	last := len(b.timers) - 1
	b.timers[i] = b.timers[last]
	b.timers[last] = boxTimer{}
	b.timers = b.timers[:last]
}

func (b *Box) dispatch(ctx *Ctx, ev *Event) error {
	switch ev.Kind {
	case EvEnvelope:
		if ev.Env.IsMeta() {
			if ev.Env.Meta.Kind == sig.MetaTeardown {
				if ci := b.recordOf(ev); ci != nil && ci.live {
					b.destroyChannel(ci)
				}
			}
			return nil // metas are observed by hooks and guards
		}
		ci := b.recordOf(ev)
		if ci == nil || !ci.live {
			// Signal for a channel already destroyed locally; drop.
			return nil
		}
		name := ci.tunnelSlot(ev.Env.Tunnel)
		s := ci.slot(name)
		if s == nil {
			s = b.newSlot(ci, ev.Env.Tunnel, name)
		}
		g, err := b.ensureGoal(s)
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
		// Enabled() gates the counter; the slot holds its goal's, so the
		// enabled path does no lookup past the slot's first dispatch.
		if telemetry.Enabled() {
			if s.ctr == nil {
				s.ctr = b.scratch().goalCounter(g.Kind())
			}
			s.ctr.Inc()
		}
		acts, err := g.OnEvent(b, name, sev, ev.Env.Sig)
		if err != nil {
			return fmt.Errorf("box %s: goal %s: %w", b.name, g.Kind(), err)
		}
		b.emitActions(acts)
		return nil
	case EvTimer:
		i := b.timer(ev.Timer)
		if i < 0 || !b.timers[i].armed {
			ev.Timer = "" // stale fire: not guardable
			return nil
		}
		b.disarm(i)
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
