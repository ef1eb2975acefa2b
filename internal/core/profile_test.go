package core

import (
	"testing"

	"ipmedia/internal/sig"
)

// TestServerDescribeZeroAlloc: the noMedia descriptor an application
// server's slots describe themselves with costs no allocation — every
// call returns the one shared record for the server's name.
func TestServerDescribeZeroAlloc(t *testing.T) {
	var p Profile = ServerProfile{Name: "relay"}
	first := p.Describe()
	var d *sig.Descriptor
	if n := testing.AllocsPerRun(1000, func() { d = p.Describe() }); n != 0 {
		t.Errorf("ServerProfile.Describe: %.1f allocs/op, want 0", n)
	}
	if d != first {
		t.Errorf("ServerProfile.Describe returned %p, then %p", first, d)
	}
	if !d.NoMedia() || d.ID != (sig.DescID{Origin: "relay", Seq: 1}) {
		t.Errorf("ServerProfile.Describe = %v, want relay's noMedia descriptor", d)
	}
}

// TestEndpointCloneIssuesApart: two clones of one profile that each
// describe new content issue distinct descriptors, neither visible to
// the other nor to the original, though all share what was issued
// before the clone — the model checker clones a profile per successor
// state, and a shared backing array would let one state's append
// overwrite another's.
func TestEndpointCloneIssuesApart(t *testing.T) {
	p := NewEndpointProfile("dev", "10.0.0.1", 5004, []sig.Codec{sig.G711}, []sig.Codec{sig.G711})
	p.issued = make([]*sig.Descriptor, 0, 8) // room to append in place
	base := p.Describe()

	a := p.Clone().(*EndpointProfile)
	b := p.Clone().(*EndpointProfile)
	if a.Describe() != base || b.Describe() != base {
		t.Fatal("a clone re-issued the content its original had described")
	}
	a.SetMuteIn(true)
	b.Port = 6000
	da, db := a.Describe(), b.Describe()
	if da == db || !da.NoMedia() || db.Port != 6000 {
		t.Fatalf("clones issued %v and %v", da, db)
	}
	if a.issued[1] != da || b.issued[1] != db || len(p.issued) != 1 {
		t.Fatalf("issued lists crossed: original %v, a %v, b %v", p.issued, a.issued, b.issued)
	}
	p.SetMuteIn(true)
	if d := p.Describe(); d == da {
		t.Fatal("the original issued a clone's descriptor")
	}
	if a.issued[1] != da {
		t.Fatal("the original's append reached a clone's issued list")
	}
}
