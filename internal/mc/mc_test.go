package mc

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"ipmedia/internal/ltl"
)

// toyState is a hand-built model: a directed graph over small integer
// states with explicit observations, queue masks, and edge labels.
type toyModel struct {
	succs map[int][]Succ
	obs   map[int]ltl.Obs
	masks map[int]uint64
	quies map[int]bool
}

type toyState struct {
	m  *toyModel
	id int
}

func (s toyState) AppendKey(dst []byte) []byte { return strconv.AppendInt(dst, int64(s.id), 10) }
func (s toyState) Succs() []Succ {
	out := make([]Succ, len(s.m.succs[s.id]))
	copy(out, s.m.succs[s.id])
	return out
}
func (s toyState) Obs() ltl.Obs      { return s.m.obs[s.id] }
func (s toyState) QueueMask() uint64 { return s.m.masks[s.id] }
func (s toyState) Quiescent() bool   { return s.m.quies[s.id] }
func (s toyState) Check() error      { return nil }

func newToy() *toyModel {
	return &toyModel{
		succs: map[int][]Succ{},
		obs:   map[int]ltl.Obs{},
		masks: map[int]uint64{},
		quies: map[int]bool{},
	}
}

func (m *toyModel) edge(from, to, queue int) {
	m.succs[from] = append(m.succs[from], Succ{State: toyState{m, to}, Queue: queue, Label: fmt.Sprintf("%d->%d", from, to)})
}

func explore(t *testing.T, m *toyModel) (*Graph, *Result) {
	t.Helper()
	return Explore(toyState{m, 0}, Options{})
}

func TestExploreCountsStates(t *testing.T) {
	m := newToy()
	m.edge(0, 1, 0)
	m.edge(0, 2, 1)
	m.edge(1, 3, 0)
	m.edge(2, 3, 1)
	m.quies[3] = true
	g, res := explore(t, m)
	if res.States != 4 {
		t.Fatalf("states = %d, want 4", res.States)
	}
	if g.States() != 4 {
		t.Fatal("graph state count mismatch")
	}
	if len(res.Deadlocks) != 0 || len(res.SafetyErrs) != 0 {
		t.Fatalf("unexpected violations: %+v", res)
	}
}

// TestAllocBytesStable: a run reports the bytes its exploration
// allocated, and two runs of one model report the same to within 5 %,
// however the collector's cycles fall.
func TestAllocBytesStable(t *testing.T) {
	const n = 5000
	m := newToy()
	for i := 0; i < n; i++ {
		m.edge(i, i+1, 0)
		m.edge(i, i+2, 1)
	}
	m.quies[n], m.quies[n+1] = true, true
	var got [2]uint64
	for i := range got {
		_, res := explore(t, m)
		if res.States != n+2 {
			t.Fatalf("states = %d, want %d", res.States, n+2)
		}
		got[i] = res.AllocBytes
	}
	t.Logf("allocated: %d B, %d B", got[0], got[1])
	if got[0] == 0 || got[1] == 0 {
		t.Fatalf("an exploration of %d states reports %d B and %d B allocated", n+2, got[0], got[1])
	}
	lo, hi := min(got[0], got[1]), max(got[0], got[1])
	if float64(hi-lo) > 0.05*float64(lo) {
		t.Fatalf("two runs of one model report %d B and %d B allocated, more than 5 %% apart", got[0], got[1])
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := newToy()
	m.edge(0, 1, 0)
	// State 1 is terminal but NOT quiescent (queue pending): deadlock.
	m.masks[1] = 1
	_, res := explore(t, m)
	if len(res.Deadlocks) != 1 {
		t.Fatalf("expected 1 deadlock, got %v", res.Deadlocks)
	}
	if !strings.Contains(res.Deadlocks[0], "0->1") {
		t.Fatalf("deadlock trace missing transition label: %q", res.Deadlocks[0])
	}
}

func TestSafetyCheckOnFinalStates(t *testing.T) {
	m := newToy()
	m.edge(0, 1, 0)
	m.quies[1] = true
	// Wrap with a failing Check on state 1.
	init := failState{toyState{m, 0}, 1}
	_, res := Explore(init, Options{})
	if len(res.SafetyErrs) != 1 {
		t.Fatalf("expected 1 safety violation, got %v", res.SafetyErrs)
	}
}

type failState struct {
	toyState
	bad int
}

func (s failState) Check() error {
	if s.id == s.bad {
		return fmt.Errorf("invariant broken in %d", s.id)
	}
	return nil
}
func (s failState) Succs() []Succ {
	var out []Succ
	for _, sc := range s.toyState.Succs() {
		out = append(out, Succ{State: failState{sc.State.(toyState), s.bad}, Queue: sc.Queue, Label: sc.Label})
	}
	return out
}

func TestStabClosedHoldsOnConvergingModel(t *testing.T) {
	m := newToy()
	// 0 (flowing-ish) -> 1 -> 2 (closed, terminal).
	m.edge(0, 1, 0)
	m.edge(1, 2, 0)
	m.quies[2] = true
	m.obs[2] = ltl.Obs{BothClosed: true}
	g, _ := explore(t, m)
	if err := g.CheckProp(ltl.StabClosed); err != nil {
		t.Fatalf("◇□closed should hold: %v", err)
	}
}

func TestStabClosedFailsOnEscapingCycle(t *testing.T) {
	m := newToy()
	// A fair cycle 1<->2 where 2 is not closed.
	m.edge(0, 1, 0)
	m.edge(1, 2, 0)
	m.edge(2, 1, 1)
	m.obs[1] = ltl.Obs{BothClosed: true}
	m.obs[2] = ltl.Obs{}
	g, _ := explore(t, m)
	if err := g.CheckProp(ltl.StabClosed); err == nil {
		t.Fatal("◇□closed should fail on a cycle leaving closed")
	}
}

func TestUnfairCycleIgnored(t *testing.T) {
	m := newToy()
	// Cycle 1<->2 never serves queue 5, which is nonempty in both
	// states: unfair, so it cannot violate ◇□closed. The run must
	// eventually take the exit 1->3 (closed, terminal).
	m.masks[1] = 1 << 5
	m.masks[2] = 1 << 5
	m.edge(0, 1, 0)
	m.edge(1, 2, 0)
	m.edge(2, 1, 1)
	m.edge(1, 3, 5) // serving queue 5 leaves the cycle
	m.quies[3] = true
	m.obs[3] = ltl.Obs{BothClosed: true}
	g, _ := explore(t, m)
	if err := g.CheckProp(ltl.StabClosed); err != nil {
		t.Fatalf("unfair cycle must not count as a violation: %v", err)
	}
}

func TestFairCycleWithServiceCounts(t *testing.T) {
	m := newToy()
	// Same shape, but the cycle itself serves queue 5: fair, and it
	// violates ◇□closed.
	m.masks[1] = 1 << 5
	m.masks[2] = 1 << 5
	m.edge(0, 1, 0)
	m.edge(1, 2, 5)
	m.edge(2, 1, 1)
	g, _ := explore(t, m)
	if err := g.CheckProp(ltl.StabClosed); err == nil {
		t.Fatal("fair cycle leaving closed must violate ◇□closed")
	}
}

func TestRecFlowing(t *testing.T) {
	m := newToy()
	// Cycle 1(flowing) -> 2 -> 1: flowing recurs.
	m.edge(0, 1, 0)
	m.edge(1, 2, 0)
	m.edge(2, 1, 1)
	m.obs[1] = ltl.Obs{BothFlowing: true}
	g, _ := explore(t, m)
	if err := g.CheckProp(ltl.RecFlowing); err != nil {
		t.Fatalf("□◇flowing should hold: %v", err)
	}
	// Remove the flowing observation: now the cycle avoids flowing.
	m.obs[1] = ltl.Obs{}
	g2, _ := explore(t, m)
	if err := g2.CheckProp(ltl.RecFlowing); err == nil {
		t.Fatal("□◇flowing should fail")
	}
}

func TestClosedOrFlowing(t *testing.T) {
	m := newToy()
	// Terminal closed state: the stability disjunct.
	m.edge(0, 1, 0)
	m.quies[1] = true
	m.obs[1] = ltl.Obs{BothClosed: true}
	g, _ := explore(t, m)
	if err := g.CheckProp(ltl.ClosedOrFlowing); err != nil {
		t.Fatalf("disjunction should hold via ◇□closed: %v", err)
	}

	// A cycle that is neither closed nor ever flowing: violation.
	m2 := newToy()
	m2.edge(0, 1, 0)
	m2.edge(1, 0, 1)
	g2, _ := explore(t, m2)
	if err := g2.CheckProp(ltl.ClosedOrFlowing); err == nil {
		t.Fatal("limbo cycle must violate the disjunction")
	}
}

func TestRecFlowingAcrossQuiescentStutter(t *testing.T) {
	// A run that terminates in a flowing state satisfies □◇flowing via
	// the stutter self-loop the checker adds.
	m := newToy()
	m.edge(0, 1, 0)
	m.quies[1] = true
	m.obs[1] = ltl.Obs{BothFlowing: true}
	g, _ := explore(t, m)
	if err := g.CheckProp(ltl.RecFlowing); err != nil {
		t.Fatalf("terminating in flowing satisfies □◇flowing: %v", err)
	}
}

func TestMaxStatesTruncation(t *testing.T) {
	m := newToy()
	for i := 0; i < 100; i++ {
		m.edge(i, i+1, 0)
	}
	m.quies[100] = true
	_, res := Explore(toyState{m, 0}, Options{MaxStates: 10})
	if !res.Truncated {
		t.Fatal("exploration should report truncation")
	}
}

func TestHashCompactionEquivalence(t *testing.T) {
	// On a model far below the collision bound, hash compaction must
	// produce the same state count and the same verdicts as full keys.
	m := newToy()
	for i := 0; i < 50; i++ {
		m.edge(i, i+1, i%3)
		if i%7 == 0 {
			m.edge(i, (i+20)%51, 1)
		}
	}
	m.quies[50] = true
	m.obs[50] = ltl.Obs{BothClosed: true}
	full, fullRes := Explore(toyState{m, 0}, Options{})
	compact, compactRes := Explore(toyState{m, 0}, Options{HashCompaction: true})
	if fullRes.States != compactRes.States {
		t.Fatalf("state counts differ: %d vs %d", fullRes.States, compactRes.States)
	}
	if compactRes.CollisionBound <= 0 || compactRes.CollisionBound > 1e-10 {
		t.Fatalf("collision bound = %g", compactRes.CollisionBound)
	}
	if compactRes.Truncated != fullRes.Truncated {
		t.Fatal("unexpected exploration difference")
	}
	errFull := full.CheckProp(ltl.StabClosed)
	errCompact := compact.CheckProp(ltl.StabClosed)
	if (errFull == nil) != (errCompact == nil) {
		t.Fatalf("verdicts differ: %v vs %v", errFull, errCompact)
	}
	// Key memory shrinkage only shows on realistic keys (toy keys are
	// shorter than a hash); see TestHashCompactionOnRealModel.
	_ = compact.KeyBytes
}
