// Package pathmon is a runtime monitor for the compositional path
// semantics: given the live boxes and the tunnel wiring, it snapshots
// the signaling paths of Section III-A, classifies each by the goal
// kinds at its ends, attaches the Section V specification, and
// evaluates the bothClosed/bothFlowing observation — runtime
// verification of the same properties the model checker proves
// exhaustively.
package pathmon

import (
	"fmt"
	"sync"

	"ipmedia/internal/box"
	"ipmedia/internal/ltl"
	"ipmedia/internal/path"
	"ipmedia/internal/slot"
	"ipmedia/internal/telemetry"
)

// Telemetry instrument names exported by this package.
const (
	// MetricSnapshots counts Snapshot calls.
	MetricSnapshots = "pathmon.snapshots"
	// MetricEvaluations counts per-path property evaluations.
	MetricEvaluations = "pathmon.prop_evaluations"
	// MetricViolations counts paths whose instantaneous observation
	// contradicts a safety-flavored spec (a should-be-closed path seen
	// bothFlowing). Transient nonzero values occur during convergence; a
	// steadily growing count indicates a stuck path.
	MetricViolations = "pathmon.violations"
)

// Monitor observes a set of boxes joined by known tunnels.
type Monitor struct {
	mu      sync.Mutex
	runners map[string]*box.Runner
	tunnels [][2]path.SlotRef
}

// New creates an empty monitor.
func New() *Monitor {
	return &Monitor{runners: map[string]*box.Runner{}}
}

// AddBox registers a box under its name.
func (m *Monitor) AddBox(r *box.Runner) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runners[r.Box().Name()] = r
}

// Tunnel declares that slot a of one box and slot b of another are the
// two ends of a tunnel.
func (m *Monitor) Tunnel(boxA, slotA, boxB, slotB string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tunnels = append(m.tunnels, [2]path.SlotRef{
		{Box: boxA, Slot: slotA},
		{Box: boxB, Slot: slotB},
	})
}

// RetargetTunnel repoints the tunnel whose (boxA, slotA) end is
// already declared at a new far end, or declares it when unknown. Long
// chaos runs redial the same client slot at rotating servers; keying
// on the stable end keeps the tunnel list bounded instead of growing
// one stale entry per redial. A listener reuses the name of a channel
// that is gone, so the new far end may be one an earlier tunnel still
// names: that tunnel's channel is gone too, and it is dropped.
func (m *Monitor) RetargetTunnel(boxA, slotA, boxB, slotB string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a := path.SlotRef{Box: boxA, Slot: slotA}
	b := path.SlotRef{Box: boxB, Slot: slotB}
	kept, found := m.tunnels[:0], false
	for _, t := range m.tunnels {
		switch {
		case t[0] == a:
			t[1], found = b, true
		case t[1] == b:
			continue
		}
		kept = append(kept, t)
	}
	if !found {
		kept = append(kept, [2]path.SlotRef{a, b})
	}
	m.tunnels = kept
}

// PathReport describes one signaling path at snapshot time.
type PathReport struct {
	Path path.Path
	// Spec is the Section V property for the path's end-goal kinds;
	// Specified is false when an end is controlled by something other
	// than the three endpoint primitives (e.g. a ringing device).
	Spec      ltl.PathProp
	Specified bool
	Obs       ltl.Obs
	// Ends are the goal kinds observed at the two path ends.
	Ends [2]string
}

func (r PathReport) String() string {
	spec := "unspecified"
	if r.Specified {
		spec = r.Spec.String()
	}
	return fmt.Sprintf("%s [%s/%s] spec=%s closed=%v flowing=%v",
		r.Path, r.Ends[0], r.Ends[1], spec, r.Obs.BothClosed, r.Obs.BothFlowing)
}

// Snapshot freezes every box (via its runner) and computes the current
// signaling paths with their observations.
func (m *Monitor) Snapshot() ([]PathReport, error) {
	m.mu.Lock()
	runners := make(map[string]*box.Runner, len(m.runners))
	for k, v := range m.runners {
		runners[k] = v
	}
	tunnels := append([][2]path.SlotRef(nil), m.tunnels...)
	m.mu.Unlock()

	// Collect per-box state under each box's own goroutine.
	type boxState struct {
		links     [][2]string
		goalKinds map[string]string
		slots     map[string]*slot.Slot
	}
	states := map[string]boxState{}
	for name, r := range runners {
		st := boxState{goalKinds: map[string]string{}, slots: map[string]*slot.Slot{}}
		r.Do(func(ctx *box.Ctx) {
			b := ctx.Box()
			st.links = b.Links()
			for _, sn := range b.SlotNames() {
				if g := b.GoalFor(sn); g != nil {
					st.goalKinds[sn] = g.Kind()
				}
				if s := b.Slot(sn); s != nil {
					st.slots[sn] = s.Clone()
				}
			}
		})
		states[name] = st
	}

	top := path.NewTopology()
	for _, t := range tunnels {
		top.Tunnel(t[0], t[1])
	}
	for name, st := range states {
		for _, l := range st.links {
			top.Link(path.SlotRef{Box: name, Slot: l[0]}, path.SlotRef{Box: name, Slot: l[1]})
		}
		for sn, kind := range st.goalKinds {
			top.SetGoal(path.SlotRef{Box: name, Slot: sn}, kind)
		}
	}
	paths, err := top.Paths()
	if err != nil {
		return nil, err
	}
	telemetry.C(MetricSnapshots).Inc()
	evals := telemetry.C(MetricEvaluations)
	violations := telemetry.C(MetricViolations)
	var out []PathReport
	for _, p := range paths {
		l, r := p.Ends()
		rep := PathReport{Path: p, Ends: [2]string{top.Goal(l), top.Goal(r)}}
		if spec, err := top.Spec(p); err == nil {
			rep.Spec, rep.Specified = spec, true
		}
		ls := states[l.Box].slots[l.Slot]
		rs := states[r.Box].slots[r.Slot]
		// A slot that does not exist yet is closed: "Initially the
		// channel is closed, or does not exist" (paper Figure 5).
		if ls == nil {
			ls = slot.New(l.Slot, false)
		}
		if rs == nil {
			rs = slot.New(r.Slot, false)
		}
		rep.Obs = path.Observe(ls, rs)
		evals.Inc()
		// Liveness specs (□◇bothFlowing and the hold/hold disjunction)
		// have no instantaneous violation; the two stability specs do:
		// media flowing on a path that should quiesce.
		if rep.Specified && rep.Obs.BothFlowing &&
			(rep.Spec == ltl.StabClosed || rep.Spec == ltl.StabNotFlowing) {
			violations.Inc()
		}
		out = append(out, rep)
	}
	return out, nil
}

// Find returns the report of the path whose two ends are at the named
// boxes (in either order), if any.
func Find(reports []PathReport, boxA, boxB string) (PathReport, bool) {
	for _, r := range reports {
		l, rr := r.Path.Ends()
		if (l.Box == boxA && rr.Box == boxB) || (l.Box == boxB && rr.Box == boxA) {
			return r, true
		}
	}
	return PathReport{}, false
}
