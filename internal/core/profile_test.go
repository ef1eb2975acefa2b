package core

import (
	"testing"

	"ipmedia/internal/sig"
)

// TestServerDescribeZeroAlloc: the noMedia descriptor an application
// server's slots describe themselves with costs no allocation — every
// such descriptor shares one read-only codec list.
func TestServerDescribeZeroAlloc(t *testing.T) {
	var p Profile = ServerProfile{Name: "relay"}
	var d sig.Descriptor
	if n := testing.AllocsPerRun(1000, func() { d = p.Describe() }); n != 0 {
		t.Errorf("ServerProfile.Describe: %.1f allocs/op, want 0", n)
	}
	if !d.NoMedia() || d.ID != (sig.DescID{Origin: "relay", Seq: 1}) {
		t.Errorf("ServerProfile.Describe = %v, want relay's noMedia descriptor", d)
	}
}
