// The uncoordinated-server baseline of paper Figure 2: servers whose
// legs are ordinary protocol endpoints for channel management
// (open/oack/close) but which forward media signals — descriptors and
// selectors — blindly along a per-leg routing table, with no state
// matching, no up-to-date tracking, and no selector filtering. "It is
// standard behavior for a server receiving a signal that does not
// concern itself to forward the signal untouched" (Section II-A).
package scenario

import (
	"sync"

	"ipmedia/internal/box"
	"ipmedia/internal/core"
	"ipmedia/internal/sig"
	"ipmedia/internal/slot"
)

// NaiveServer holds the shared routing table of a Figure 2 server. It
// does consume answers to descriptors it originated itself (even an
// uncoordinated server reads replies to its own commands) — everything
// else passes through untouched.
type NaiveServer struct {
	Name string

	mu    sync.Mutex
	route map[string]string // slot -> slot signals are forwarded to
}

// NewNaiveServer creates the routing state for a naive server box.
func NewNaiveServer(name string) *NaiveServer {
	return &NaiveServer{Name: name, route: map[string]string{}}
}

// SetRoute directs media signals arriving on slot from to slot to.
func (n *NaiveServer) SetRoute(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.route[from] = to
}

func (n *NaiveServer) routeOf(from string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.route[from]
}

// ownDesc is the noMedia descriptor the server uses when it issues
// commands of its own (putting an endpoint on hold).
func (n *NaiveServer) ownDesc() *sig.Descriptor {
	return sig.NoMediaDescriptor(sig.DescID{Origin: n.Name, Seq: 1})
}

// Leg builds the goal object for one server leg.
func (n *NaiveServer) Leg(slotName string) *NaiveLeg {
	return &NaiveLeg{srv: n, names: [1]string{slotName}}
}

// NaiveLeg is the per-slot goal of a naive server.
type NaiveLeg struct {
	srv   *NaiveServer
	names [1]string // the one slot controlled
}

// Kind implements core.Goal.
func (g *NaiveLeg) Kind() string { return "naiveLeg" }

// SlotNames implements core.Goal.
func (g *NaiveLeg) SlotNames() []string { return g.names[:] }

// Attach implements core.Goal: a naive leg takes over silently.
func (g *NaiveLeg) Attach(core.Slots) ([]core.Action, error) { return nil, nil }

// OnEvent implements core.Goal: channel management is handled locally;
// media signals are forwarded blindly along the route.
func (g *NaiveLeg) OnEvent(ss core.Slots, name string, ev slot.Event, in sig.Signal) ([]core.Action, error) {
	em := core.NewEmitter(ss)
	dest := g.srv.routeOf(name)
	switch ev {
	case slot.EvOpen, slot.EvOpenRace:
		// Accept locally, describing the routed peer if known.
		d := g.srv.ownDesc()
		if dest != "" {
			if ds := ss.Slot(dest); ds != nil {
				if dd, ok := ds.Desc(); ok {
					d = dd
				}
			}
		}
		em.Emit(name, sig.Oack(d))
	case slot.EvOack, slot.EvDescribe:
		// A fresh descriptor: forward it blindly to wherever this leg
		// currently routes — or drop it if that is impossible. No
		// coordination with other goals, no utd tracking.
		g.forwardDesc(em, ss, dest, in.Desc)
	case slot.EvSelect:
		if in.Sel.Answers.Origin == g.srv.Name {
			break // answer to one of our own holds: consume
		}
		if dest != "" {
			if ds := ss.Slot(dest); ds != nil && ds.State() == slot.Flowing {
				em.Emit(dest, sig.Select(in.Sel))
			}
		}
	case slot.EvClose:
		em.Emit(name, sig.CloseAck())
	case slot.EvCloseAck, slot.EvStale:
	}
	return em.Done()
}

func (g *NaiveLeg) forwardDesc(em *core.Emitter, ss core.Slots, dest string, d *sig.Descriptor) {
	if dest == "" {
		return
	}
	ds := ss.Slot(dest)
	if ds == nil || ds.State() != slot.Flowing {
		return // dropped silently: that is the pathology
	}
	em.Emit(dest, sig.Describe(d))
}

// Refresh implements core.Goal.
func (g *NaiveLeg) Refresh(core.Slots, bool, bool) ([]core.Action, error) { return nil, nil }

// Clone implements core.Goal.
func (g *NaiveLeg) Clone() core.Goal { c := *g; return &c }

// AppendEncode implements core.Goal.
func (g *NaiveLeg) AppendEncode(dst []byte) []byte {
	dst = append(dst, "naive:"...)
	return append(dst, g.names[0]...)
}

// Describe sends a descriptor command on a leg: "a signal to X telling
// it to send media to Y" is describe(descY); "telling it to stop
// sending" is describe(noMedia) (paper Section VI-C).
func (n *NaiveServer) Describe(ctx *box.Ctx, slotName string, d *sig.Descriptor) {
	s := ctx.Box().Slot(slotName)
	if s == nil {
		return
	}
	if err := s.Send(sig.Describe(d)); err != nil {
		return // naive servers ignore failures
	}
	ch, tunnel := splitSlotName(slotName)
	ctx.SendRaw(ch, tunnel, sig.Describe(d))
}

// OpenLeg opens a leg's media channel carrying descriptor d.
func (n *NaiveServer) OpenLeg(ctx *box.Ctx, slotName string, m sig.Medium, d *sig.Descriptor) {
	s := ctx.Box().Slot(slotName)
	if s == nil {
		return
	}
	if err := s.Send(sig.Open(m, d)); err != nil {
		return
	}
	ch, tunnel := splitSlotName(slotName)
	ctx.SendRaw(ch, tunnel, sig.Open(m, d))
}

// HoldDesc returns the server's own noMedia descriptor for scripted
// hold commands.
func (n *NaiveServer) HoldDesc() *sig.Descriptor { return n.ownDesc() }

func splitSlotName(name string) (string, int) {
	for i := len(name) - 1; i > 1; i-- {
		if name[i-1] == '.' && name[i] == 't' {
			t := 0
			for _, c := range name[i+1:] {
				t = t*10 + int(c-'0')
			}
			return name[:i-1], t
		}
	}
	return name, 0
}
