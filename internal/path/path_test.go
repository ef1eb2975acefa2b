package path

import (
	"testing"

	"ipmedia/internal/ltl"
	"ipmedia/internal/sig"
	"ipmedia/internal/slot"
)

func ref(b, s string) SlotRef { return SlotRef{Box: b, Slot: s} }

// figure3Topology builds the prepaid-card configuration of paper
// Figure 3, Snapshot 2: A - PBX - PC with PC flowlinking C to V and
// holding A.
func figure3Topology() *Topology {
	t := NewTopology()
	// Tunnels: A~PBX, PBX~PC, PC~C, PC~V, PBX~B.
	t.Tunnel(ref("A", "a"), ref("PBX", "pa"))
	t.Tunnel(ref("PBX", "ppc"), ref("PC", "pcp"))
	t.Tunnel(ref("PC", "pcc"), ref("C", "c"))
	t.Tunnel(ref("PC", "pcv"), ref("V", "v"))
	t.Tunnel(ref("PBX", "pb"), ref("B", "b"))
	// Snapshot 2: PBX links A's channel onward to PC; PC links C to V
	// and holds A('s channel end).
	t.Link(ref("PBX", "pa"), ref("PBX", "ppc"))
	t.Link(ref("PC", "pcc"), ref("PC", "pcv"))
	// Goals at path ends.
	t.SetGoal(ref("A", "a"), "openSlot")
	t.SetGoal(ref("PC", "pcp"), "holdSlot")
	t.SetGoal(ref("C", "c"), "openSlot")
	t.SetGoal(ref("V", "v"), "holdSlot")
	t.SetGoal(ref("PBX", "pb"), "holdSlot")
	t.SetGoal(ref("B", "b"), "openSlot")
	return t
}

func TestPathsOfFigure3(t *testing.T) {
	top := figure3Topology()
	paths, err := top.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("want 3 paths, got %d: %v", len(paths), paths)
	}
	// Find the A path: A/a ~ PBX/pa = PBX/ppc ~ PC/pcp.
	var aPath, cPath Path
	for _, p := range paths {
		l, r := p.Ends()
		switch {
		case l.Box == "A" || r.Box == "A":
			aPath = p
		case l.Box == "C" || r.Box == "C":
			cPath = p
		}
	}
	if len(aPath.Slots) != 4 || aPath.Flowlinks() != 1 || aPath.Hops() != 2 {
		t.Fatalf("A path wrong: %v", aPath)
	}
	if len(cPath.Slots) != 4 || cPath.Flowlinks() != 1 {
		t.Fatalf("C path wrong: %v", cPath)
	}
	// Specs: A's path is openSlot/holdSlot -> □◇bothFlowing; C's path
	// (C to V) likewise.
	spec, err := top.Spec(aPath)
	if err != nil {
		t.Fatal(err)
	}
	if spec != ltl.RecFlowing {
		t.Fatalf("A path spec = %s", spec)
	}
}

func TestCycleDetection(t *testing.T) {
	top := NewTopology()
	top.Tunnel(ref("X", "a"), ref("Y", "b"))
	top.Tunnel(ref("Y", "c"), ref("X", "d"))
	top.Link(ref("X", "a"), ref("X", "d"))
	top.Link(ref("Y", "b"), ref("Y", "c"))
	if _, err := top.Paths(); err == nil {
		t.Fatal("cyclic configuration must be rejected")
	}
}

func TestLongChain(t *testing.T) {
	top := NewTopology()
	// L ~ m1a = m1b ~ m2a = m2b ~ m3a = m3b ~ R: 3 flowlinks, 4 hops.
	top.Tunnel(ref("L", "l"), ref("M1", "a"))
	top.Link(ref("M1", "a"), ref("M1", "b"))
	top.Tunnel(ref("M1", "b"), ref("M2", "a"))
	top.Link(ref("M2", "a"), ref("M2", "b"))
	top.Tunnel(ref("M2", "b"), ref("M3", "a"))
	top.Link(ref("M3", "a"), ref("M3", "b"))
	top.Tunnel(ref("M3", "b"), ref("R", "r"))
	paths, err := top.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("want 1 path, got %d", len(paths))
	}
	p := paths[0]
	if p.Flowlinks() != 3 || p.Hops() != 4 || len(p.Slots) != 8 {
		t.Fatalf("chain mis-measured: links=%d hops=%d slots=%d", p.Flowlinks(), p.Hops(), len(p.Slots))
	}
	l, r := p.Ends()
	if !(l == ref("L", "l") && r == ref("R", "r")) && !(l == ref("R", "r") && r == ref("L", "l")) {
		t.Fatalf("wrong path ends: %v %v", l, r)
	}
}

func drive(t *testing.T, l, r *slot.Slot) {
	t.Helper()
	// Bring the pair to flowing with full histories, simulating a
	// zero-length path.
	dl := &sig.Descriptor{ID: sig.DescID{Origin: "L", Seq: 1}, Addr: "l", Port: 1, Codecs: []sig.Codec{sig.G711}}
	dr := &sig.Descriptor{ID: sig.DescID{Origin: "R", Seq: 1}, Addr: "r", Port: 2, Codecs: []sig.Codec{sig.G711}}
	step := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	step(l.Send(sig.Open(sig.Audio, dl)))
	_, err := r.Receive(sig.Open(sig.Audio, dl))
	step(err)
	step(r.Send(sig.Oack(dr)))
	_, err = l.Receive(sig.Oack(dr))
	step(err)
	step(r.Send(sig.Select(sig.Selector{Answers: dl.ID, Addr: "r", Port: 2, Codec: sig.G711})))
	_, err = l.Receive(sig.Select(sig.Selector{Answers: dl.ID, Addr: "r", Port: 2, Codec: sig.G711}))
	step(err)
	step(l.Send(sig.Select(sig.Selector{Answers: dr.ID, Addr: "l", Port: 1, Codec: sig.G711})))
	_, err = r.Receive(sig.Select(sig.Selector{Answers: dr.ID, Addr: "l", Port: 1, Codec: sig.G711}))
	step(err)
}

func TestBothFlowingPredicate(t *testing.T) {
	l, r := slot.New("l", true), slot.New("r", false)
	if BothFlowing(l, r) {
		t.Fatal("fresh slots are not bothFlowing")
	}
	if !BothClosed(l, r) {
		t.Fatal("fresh slots are bothClosed")
	}
	drive(t, l, r)
	if !BothFlowing(l, r) {
		t.Fatal("established pair must be bothFlowing")
	}
	if BothClosed(l, r) {
		t.Fatal("established pair is not bothClosed")
	}
	if !EnabledConsistent(l, r) {
		t.Fatal("established pair must be enabled-consistent")
	}
	obs := Observe(l, r)
	if !obs.BothFlowing || obs.BothClosed {
		t.Fatalf("bad observation %+v", obs)
	}
}

func TestBothFlowingRequiresFreshSelectors(t *testing.T) {
	l, r := slot.New("l", true), slot.New("r", false)
	drive(t, l, r)
	// L re-describes; until R answers, the path is not bothFlowing.
	d2 := &sig.Descriptor{ID: sig.DescID{Origin: "L", Seq: 2}, Addr: "l", Port: 1, Codecs: []sig.Codec{sig.G726}}
	if err := l.Send(sig.Describe(d2)); err != nil {
		t.Fatal(err)
	}
	if BothFlowing(l, r) {
		t.Fatal("stale remote descriptor must break bothFlowing")
	}
	if _, err := r.Receive(sig.Describe(d2)); err != nil {
		t.Fatal(err)
	}
	if BothFlowing(l, r) {
		t.Fatal("selector not yet refreshed; still not bothFlowing")
	}
	sel := sig.Selector{Answers: d2.ID, Addr: "r", Port: 2, Codec: sig.G726}
	if err := r.Send(sig.Select(sel)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Receive(sig.Select(sel)); err != nil {
		t.Fatal(err)
	}
	if !BothFlowing(l, r) {
		t.Fatal("answered describe must restore bothFlowing")
	}
}
