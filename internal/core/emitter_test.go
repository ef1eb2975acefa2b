package core

import (
	"testing"

	"ipmedia/internal/sig"
	"ipmedia/internal/slot"
)

// lendingWorld is a world that also lends an action buffer, the way
// the box runtime does.
type lendingWorld struct {
	*world
	buf   []Action
	lends int
}

func (w *lendingWorld) LendActions() *[]Action {
	w.lends++
	return &w.buf
}

// openedSlot returns a world whose slot "s" has just received an open,
// and the open's signal: a holdSlot answers it with an oack and a
// select, two actions.
func openedSlot(t *testing.T) (*world, sig.Signal) {
	w := newWorld(t)
	w.tunnel("far", "s")
	open := sig.Open(sig.Audio, endpointProfile("far", 5004).Describe())
	if _, err := w.slots["s"].Receive(open); err != nil {
		t.Fatal(err)
	}
	return w, open
}

// TestEmitterWithoutLender: over a Slots that lends nothing (the model
// checker's, the core test world) every goal call returns a slice of
// its own, which a later call leaves alone.
func TestEmitterWithoutLender(t *testing.T) {
	w, open := openedSlot(t)
	first, err := NewHoldSlot("s", endpointProfile("s", 5006)).OnEvent(w, "s", slot.EvOpen, open)
	if err != nil || len(first) != 2 {
		t.Fatalf("holdSlot answered an open with %v, %v; want an oack and a select", first, err)
	}
	if _, err := w.slots["s"].Receive(sig.Close()); err != nil {
		t.Fatal(err)
	}
	second, err := NewCloseSlot("s").OnEvent(w, "s", slot.EvClose, sig.Close())
	if err != nil || len(second) != 1 || second[0].Sig.Kind != sig.KindCloseAck {
		t.Fatalf("closeSlot answered a close with %v, %v; want a closeack", second, err)
	}
	if first[0].Sig.Kind != sig.KindOack || first[1].Sig.Kind != sig.KindSelect {
		t.Fatalf("the second goal call rewrote the first's actions: %v", first)
	}
}

// TestEmitterLentBuffer: over a lending Slots the actions sit in the
// lent buffer — grown as needed and handed back, so the next call
// starts on the same storage — and are correct for as long as the
// lender's rule says: until the next goal call.
func TestEmitterLentBuffer(t *testing.T) {
	base, open := openedSlot(t)
	w := &lendingWorld{world: base}
	hold := NewHoldSlot("s", endpointProfile("s", 5006))
	first, err := hold.OnEvent(w, "s", slot.EvOpen, open)
	if err != nil || len(first) != 2 || first[0].Sig.Kind != sig.KindOack || first[1].Sig.Kind != sig.KindSelect {
		t.Fatalf("holdSlot answered an open with %v, %v; want an oack and a select", first, err)
	}
	if w.lends != 1 || len(w.buf) != 2 || &w.buf[0] != &first[0] {
		t.Fatalf("after one goal call: %d lends, buffer of %d; the returned actions must be the lent buffer", w.lends, len(w.buf))
	}
	if _, err := w.slots["s"].Receive(sig.Close()); err != nil {
		t.Fatal(err)
	}
	second, err := NewCloseSlot("s").OnEvent(w, "s", slot.EvClose, sig.Close())
	if err != nil || len(second) != 1 || second[0].Sig.Kind != sig.KindCloseAck || second[0].Slot != "s" {
		t.Fatalf("closeSlot answered a close with %v, %v; want a closeack on s", second, err)
	}
	if &second[0] != &first[0] {
		t.Fatal("the second goal call did not reuse the lent buffer")
	}
	// A goal call that emits nothing hands back an empty buffer, not a
	// stale one.
	none, err := hold.OnEvent(w, "s", slot.EvStale, sig.Signal{})
	if err != nil || len(none) != 0 || len(w.buf) != 0 {
		t.Fatalf("a silent goal call returned %v (buffer %d), %v", none, len(w.buf), err)
	}
}
