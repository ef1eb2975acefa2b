// Package slot implements the protocol endpoint of the media-control
// signaling protocol: the finite-state machine of paper Figure 9,
// instantiated once per tunnel end.
//
// A Slot object sees all signals received from its tunnel and all
// signals sent to it (paper Section VII). Because of this complete
// view, it maintains the complete implementation-level state of the
// slot: protocol state, medium, and cached descriptor. Policy — which
// signals to send when — belongs to the goal objects in package core;
// the Slot enforces protocol legality and classifies incoming signals
// into events for its goal object.
package slot

import (
	"fmt"
	"time"

	"ipmedia/internal/sig"
)

// State is the protocol state of one slot (paper Figure 9). It refines
// the four user-interface states of Figure 5 with the extra protocol
// state Closing, not observable in the user interface.
type State uint8

// The five protocol states.
const (
	Closed  State = iota // no channel; initial state
	Opening              // sent open, awaiting oack or close
	Opened               // received open, owes oack or close
	Flowing              // channel established; describe/select legal
	Closing              // sent close, awaiting closeack
)

var stateNames = [...]string{"closed", "opening", "opened", "flowing", "closing"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Live reports whether the state is one of the live states (opening,
// opened, flowing), as defined in paper Figure 12's caption. The dead
// states are closed and closing.
func (s State) Live() bool { return s == Opening || s == Opened || s == Flowing }

// Event classifies a received signal for consumption by the slot's
// goal object.
type Event uint8

// The events a goal object can observe.
const (
	EvNone     Event = iota
	EvOpen           // open received while closed; slot now Opened
	EvOpenRace       // open received while opening and this end loses the race; slot now Opened
	EvOack           // oack received; slot now Flowing; descriptor cached
	EvClose          // close received; slot now Closed and owes a closeack
	EvCloseAck       // closeack received; slot now Closed
	EvDescribe       // fresh remote descriptor cached; answer with a select
	EvSelect         // selector received; recorded in history
	EvStale          // signal discarded as obsolete (e.g. describe while closing)
)

var eventNames = [...]string{"none", "open", "openRace", "oack", "close", "closeack", "describe", "select", "stale"}

func (e Event) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return fmt.Sprintf("event(%d)", uint8(e))
}

// History records the most recently sent and received descriptors and
// selectors at a slot. These are the history variables used by the
// paper's model-checking definition of the bothFlowing path state
// (Section VIII-A) and, via Enabled, the Lenabled/Renabled variables of
// Section V. Descriptors are held by pointer to their shared,
// immutable records (see sig.Descriptor).
type History struct {
	DescSent *sig.Descriptor // most recent descriptor sent (open/oack/describe)
	SelSent  sig.Selector    // most recent selector sent
	SelRcvd  sig.Selector    // most recent selector received

	HasDescSent, HasSelSent, HasSelRcvd bool
}

// Slot is one protocol endpoint. Its small fields come last, so they
// share one word (TestSlotSize).
type Slot struct {
	name   string
	medium sig.Medium
	desc   *sig.Descriptor // most recent descriptor received (open, oack, or describe); nil: not described
	hist   History

	m        *slotMetrics // telemetry instruments; never nil after New
	openedAt int64        // when the slot last left Closed, as ns since clockBase; 0: unset (telemetry only)
	stale    uint32       // count of discarded stale signals, for diagnostics

	state        State
	initiator    bool // true if this box initiated setup of the signaling channel
	owesCloseAck bool // a received close has not yet been acknowledged
	enabled      bool // this end has sent a selector with a real codec (paper §VI-C)
}

// clockBase anchors openedAt, so a slot holds its time as one word and
// time-to-flowing is still read off the monotonic clock.
var clockBase = time.Now()

// New creates a slot named name. initiator must be true exactly at the
// end of the tunnel whose box initiated setup of the containing
// signaling channel; it resolves open-open races (paper Section VI-B:
// "the winner of the race is always the end of the tunnel that
// initiated setup of the signaling channel").
func New(name string, initiator bool) *Slot {
	s := new(Slot)
	s.Reset(name, initiator)
	return s
}

// Reset makes s the closed, history-free slot New(name, initiator)
// returns, in place. It lets an owner that embeds a Slot in a recycled
// record start the next tunnel end on the same storage; nothing may
// still hold the slot for its previous tunnel.
func (s *Slot) Reset(name string, initiator bool) {
	*s = Slot{name: name, initiator: initiator, m: metrics()}
}

// transition moves the slot to state to, recording the transition in
// the telemetry counters, the time-to-flowing histogram, and the
// signal tracer. With telemetry disabled it is a plain assignment plus
// a nil check.
func (s *Slot) transition(to State) {
	from := s.state
	s.state = to
	m := s.m
	if m == nil || m.reg == nil {
		return
	}
	m.trans[from][to].Inc()
	if from == Closed && to != Closed {
		s.openedAt = int64(time.Since(clockBase))
	}
	if to == Flowing && from != Flowing && s.openedAt != 0 {
		m.ttf.Observe(time.Since(clockBase) - time.Duration(s.openedAt))
		s.openedAt = 0
	}
	if m.tracer.Armed() {
		m.tracer.Record("slot", s.name, from.String()+"->"+to.String())
	}
}

// Name returns the slot's name within its box.
func (s *Slot) Name() string { return s.name }

// Initiator reports whether this end wins open-open races.
func (s *Slot) Initiator() bool { return s.initiator }

// State returns the current protocol state.
func (s *Slot) State() State { return s.state }

// Medium returns the medium of the slot's channel; it is defined
// whenever the slot is not closed (paper Section IV-A).
func (s *Slot) Medium() sig.Medium { return s.medium }

// Desc returns the cached most-recent remote descriptor, if any. Slots
// in the opened and flowing states are "described" (paper Section VII).
func (s *Slot) Desc() (*sig.Descriptor, bool) { return s.desc, s.desc != nil }

// Described reports whether the slot holds a current remote descriptor.
func (s *Slot) Described() bool { return s.desc != nil }

// OwesCloseAck reports whether a received close still awaits its
// closeack.
func (s *Slot) OwesCloseAck() bool { return s.owesCloseAck }

// Enabled reports whether this end has most recently sent a selector
// with a real codec while flowing — the Lenabled/Renabled history
// variable of paper Sections V and VI-C.
func (s *Slot) Enabled() bool { return s.enabled }

// Hist returns the slot's signal history for specification checking.
func (s *Slot) Hist() History { return s.hist }

// StaleCount returns the number of signals discarded as stale.
func (s *Slot) StaleCount() uint32 { return s.stale }

// Predicates on the four user-interface states (paper Section IV-A).
// The protocol state Closing is not observable in the user interface
// and reads as closed, matching Figure 5.

// IsClosed reports the user-interface closed state.
func (s *Slot) IsClosed() bool { return s.state == Closed || s.state == Closing }

// IsOpening reports the user-interface opening state.
func (s *Slot) IsOpening() bool { return s.state == Opening }

// IsOpened reports the user-interface opened state.
func (s *Slot) IsOpened() bool { return s.state == Opened }

// IsFlowing reports the user-interface flowing state.
func (s *Slot) IsFlowing() bool { return s.state == Flowing }

// errf builds a protocol violation error tagged with the slot name.
func (s *Slot) errf(format string, args ...any) error {
	return fmt.Errorf("slot %s (%s): %s", s.name, s.state, fmt.Sprintf(format, args...))
}

// Send validates and applies the state effects of sending signal g on
// this slot. It must be called for every outgoing signal, before the
// signal is handed to the transport.
func (s *Slot) Send(g sig.Signal) error {
	if g.Desc == nil && carriesDesc(g.Kind) {
		return s.errf("%s requires a descriptor", g.Kind)
	}
	switch g.Kind {
	case sig.KindOpen:
		if s.state != Closed {
			return s.errf("cannot send open")
		}
		if s.owesCloseAck {
			// The peer is in Closing awaiting our closeack and would
			// discard the open as stale. Goals must acknowledge first.
			return s.errf("cannot send open before acknowledging close")
		}
		if g.Medium == "" {
			return s.errf("open requires a medium")
		}
		s.transition(Opening)
		s.medium = g.Medium
		s.recordDescSent(g.Desc)
	case sig.KindOack:
		if s.state != Opened {
			return s.errf("cannot send oack")
		}
		s.transition(Flowing)
		s.recordDescSent(g.Desc)
	case sig.KindClose:
		switch s.state {
		case Opening, Opened, Flowing:
			s.transition(Closing)
			s.leaveFlowing()
			// A closing slot is no longer "described" (paper Section
			// VII: only opened and flowing slots are); drop the cache
			// so flowlinks never propagate a dying slot's descriptor.
			s.desc = nil
		default:
			return s.errf("cannot send close")
		}
	case sig.KindCloseAck:
		if !s.owesCloseAck {
			return s.errf("no close to acknowledge")
		}
		s.owesCloseAck = false
	case sig.KindDescribe:
		if s.state != Flowing {
			return s.errf("cannot send describe")
		}
		s.recordDescSent(g.Desc)
	case sig.KindSelect:
		if s.state != Flowing {
			return s.errf("cannot send select")
		}
		s.hist.SelSent = g.Sel
		s.hist.HasSelSent = true
		s.enabled = !g.Sel.NoMedia()
	default:
		return s.errf("cannot send %s", g.Kind)
	}
	return nil
}

// carriesDesc reports whether a signal of kind k carries a descriptor.
func carriesDesc(k sig.Kind) bool {
	return k == sig.KindOpen || k == sig.KindOack || k == sig.KindDescribe
}

func (s *Slot) recordDescSent(d *sig.Descriptor) {
	s.hist.DescSent = d
	s.hist.HasDescSent = true
}

// leaveFlowing clears state that is only meaningful while the channel
// is up. Per paper Section VI-C, the enabled history variable becomes
// false when the endpoint leaves the flowing state.
func (s *Slot) leaveFlowing() {
	s.enabled = false
}

// reset returns the slot to the closed state, forgetting channel state.
func (s *Slot) reset() {
	s.transition(Closed)
	s.medium = ""
	s.desc = nil
	s.leaveFlowing()
}

// Receive applies the state effects of receiving signal g and
// classifies it as an event for the goal object. A returned error
// indicates a protocol violation by the peer; EvStale indicates a
// legally discarded obsolete signal.
func (s *Slot) Receive(g sig.Signal) (Event, error) {
	if g.Desc == nil && carriesDesc(g.Kind) {
		return EvNone, s.errf("received %s without a descriptor", g.Kind)
	}
	switch g.Kind {
	case sig.KindOpen:
		switch s.state {
		case Closed:
			s.transition(Opened)
			s.medium = g.Medium
			s.cacheDesc(g.Desc)
			return EvOpen, nil
		case Opening:
			// Open-open race within the tunnel (paper Section VI-B). The
			// winner is the end that initiated the signaling channel; the
			// losing open signal is simply ignored.
			if s.m != nil {
				s.m.glare.Inc()
			}
			if s.initiator {
				s.stale++
				return EvStale, nil
			}
			// This end loses: back off and become the acceptor. The
			// incoming open supersedes ours.
			s.transition(Opened)
			s.medium = g.Medium
			s.cacheDesc(g.Desc)
			return EvOpenRace, nil
		case Closing:
			// The peer reopened before seeing our close; our close will
			// reject it from the peer's perspective. Discard.
			s.stale++
			return EvStale, nil
		default:
			return EvNone, s.errf("received open")
		}
	case sig.KindOack:
		switch s.state {
		case Opening:
			s.transition(Flowing)
			s.cacheDesc(g.Desc)
			return EvOack, nil
		case Closing:
			s.stale++
			return EvStale, nil
		default:
			return EvNone, s.errf("received oack")
		}
	case sig.KindClose:
		switch s.state {
		case Opening, Opened, Flowing:
			s.reset()
			s.owesCloseAck = true
			return EvClose, nil
		case Closing:
			// Simultaneous close: both ends closed at once. Acknowledge
			// and keep waiting for our own closeack.
			s.owesCloseAck = true
			return EvClose, nil
		default:
			return EvNone, s.errf("received close")
		}
	case sig.KindCloseAck:
		if s.state != Closing {
			return EvNone, s.errf("received closeack")
		}
		s.reset()
		return EvCloseAck, nil
	case sig.KindDescribe:
		switch s.state {
		case Flowing:
			s.cacheDesc(g.Desc)
			return EvDescribe, nil
		case Closing, Closed:
			// In-flight describe overtaken by a close from this end.
			s.stale++
			return EvStale, nil
		default:
			return EvNone, s.errf("received describe")
		}
	case sig.KindSelect:
		switch s.state {
		case Flowing:
			s.hist.SelRcvd = g.Sel
			s.hist.HasSelRcvd = true
			return EvSelect, nil
		case Closing, Closed:
			s.stale++
			return EvStale, nil
		default:
			return EvNone, s.errf("received select")
		}
	default:
		return EvNone, s.errf("received unknown signal kind %d", g.Kind)
	}
}

func (s *Slot) cacheDesc(d *sig.Descriptor) {
	s.desc = d
}

// Clone returns a copy of the slot, for the model checker. The copy
// shares the descriptors it holds, which are immutable.
func (s *Slot) Clone() *Slot {
	c := *s
	return &c
}

// AppendEncode appends a deterministic fingerprint of the slot's state
// to dst and returns the extended slice, for state hashing in the
// model checker.
func (s *Slot) AppendEncode(dst []byte) []byte {
	dst = append(dst, s.name...)
	dst = append(dst, byte(s.state))
	dst = append(dst, string(s.medium)...)
	dst = append(dst, boolByte(s.initiator), boolByte(s.desc != nil))
	if s.desc != nil {
		dst = sig.AppendDescriptor(dst, s.desc)
	}
	dst = append(dst, boolByte(s.owesCloseAck), boolByte(s.enabled), boolByte(s.hist.HasDescSent))
	if s.hist.HasDescSent {
		dst = sig.AppendDescriptor(dst, s.hist.DescSent)
	}
	dst = append(dst, boolByte(s.hist.HasSelSent))
	if s.hist.HasSelSent {
		dst = sig.AppendSelector(dst, s.hist.SelSent)
	}
	dst = append(dst, boolByte(s.hist.HasSelRcvd))
	if s.hist.HasSelRcvd {
		dst = sig.AppendSelector(dst, s.hist.SelRcvd)
	}
	return dst
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func (s *Slot) String() string {
	return fmt.Sprintf("slot(%s %s %s)", s.name, s.state, s.medium)
}
