package store

import (
	"path/filepath"
	"testing"
)

func seedShard(t *testing.T, dir string, cdrs []CDR) uint64 {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, c := range cdrs {
		if _, ok := s.AppendCDR(c); !ok {
			t.Fatalf("AppendCDR failed")
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	acked := s.DurableCDRs()
	// Crash, not Close: reconciliation must hold for a shard that was
	// SIGKILLed, and acked CDRs were acked by fsync, not by Close.
	s.Crash()
	return acked
}

func TestReconcileFleetClean(t *testing.T) {
	base := t.TempDir()
	dirs := map[int]string{0: filepath.Join(base, "s0"), 1: filepath.Join(base, "s1")}
	acked := map[int]uint64{
		0: seedShard(t, dirs[0], []CDR{
			{Local: "a", Peer: "b", Channel: "ch1", SetupNS: 100, TornNS: 200},
			{Local: "c", Peer: "d", Channel: "ch2", SetupNS: 150, TornNS: 250},
		}),
		1: seedShard(t, dirs[1], []CDR{
			{Local: "e", Peer: "f", Channel: "ch3", SetupNS: 120, TornNS: 220},
		}),
	}
	rep, err := ReconcileFleet(dirs, acked)
	if err != nil {
		t.Fatalf("ReconcileFleet: %v", err)
	}
	if !rep.OK || rep.Lost != 0 || rep.Duplicates != 0 || rep.TotalCDRs != 3 {
		t.Fatalf("clean fleet: %+v", rep)
	}
}

func TestReconcileFleetDetectsLoss(t *testing.T) {
	base := t.TempDir()
	dirs := map[int]string{0: filepath.Join(base, "s0")}
	got := seedShard(t, dirs[0], []CDR{{Local: "a", Channel: "ch", SetupNS: 1, TornNS: 2}})
	// The shard claimed more acked CDRs than its WAL can produce — the
	// audit must flag the difference, not paper over it.
	rep, err := ReconcileFleet(dirs, map[int]uint64{0: got + 2})
	if err != nil {
		t.Fatalf("ReconcileFleet: %v", err)
	}
	if rep.OK || rep.Lost != 2 {
		t.Fatalf("loss not detected: %+v", rep)
	}
}

func TestReconcileFleetDetectsDuplicates(t *testing.T) {
	base := t.TempDir()
	dup := CDR{Local: "a", Peer: "b", Channel: "ch", SetupNS: 42, TornNS: 43}
	dirs := map[int]string{0: filepath.Join(base, "s0"), 1: filepath.Join(base, "s1")}
	acked := map[int]uint64{
		0: seedShard(t, dirs[0], []CDR{dup}),
		1: seedShard(t, dirs[1], []CDR{dup}),
	}
	rep, err := ReconcileFleet(dirs, acked)
	if err != nil {
		t.Fatalf("ReconcileFleet: %v", err)
	}
	if rep.OK || rep.Duplicates != 1 {
		t.Fatalf("duplicate not detected: %+v", rep)
	}
}
