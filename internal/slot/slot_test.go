package slot

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"ipmedia/internal/sig"
)

func desc(origin string, seq uint32) *sig.Descriptor {
	return &sig.Descriptor{ID: sig.DescID{Origin: origin, Seq: seq}, Addr: "10.0.0.1", Port: 5004, Codecs: []sig.Codec{sig.G711}}
}

func mustSend(t *testing.T, s *Slot, g sig.Signal) {
	t.Helper()
	if err := s.Send(g); err != nil {
		t.Fatalf("send %s: %v", g, err)
	}
}

func mustRecv(t *testing.T, s *Slot, g sig.Signal, want Event) {
	t.Helper()
	ev, err := s.Receive(g)
	if err != nil {
		t.Fatalf("receive %s: %v", g, err)
	}
	if ev != want {
		t.Fatalf("receive %s: event %s, want %s", g, ev, want)
	}
}

func TestOpenAcceptLifecycle(t *testing.T) {
	// The happy path of Figure 10: open, oack, selects, close, closeack,
	// seen from the opener's side.
	s := New("1a", true)
	if s.State() != Closed || !s.IsClosed() {
		t.Fatal("new slot must be closed")
	}
	mustSend(t, s, sig.Open(sig.Audio, desc("L", 1)))
	if s.State() != Opening || !s.IsOpening() {
		t.Fatal("open must move to opening")
	}
	if s.Medium() != sig.Audio {
		t.Fatal("medium must be recorded on open")
	}
	mustRecv(t, s, sig.Oack(desc("R", 1)), EvOack)
	if s.State() != Flowing || !s.IsFlowing() {
		t.Fatal("oack must move to flowing")
	}
	d, ok := s.Desc()
	if !ok || d.ID.Origin != "R" {
		t.Fatal("oack descriptor must be cached")
	}
	mustSend(t, s, sig.Select(sig.Selector{Answers: d.ID, Addr: "a", Port: 1, Codec: sig.G711}))
	if !s.Enabled() {
		t.Fatal("sending a real selector must set enabled")
	}
	mustSend(t, s, sig.Close())
	if s.State() != Closing || !s.IsClosed() {
		t.Fatal("close must move to closing, which reads as closed in the UI")
	}
	if s.Enabled() {
		t.Fatal("leaving flowing must clear enabled")
	}
	mustRecv(t, s, sig.CloseAck(), EvCloseAck)
	if s.State() != Closed {
		t.Fatal("closeack must move to closed")
	}
	if s.Medium() != "" || s.Described() {
		t.Fatal("closing must forget medium and descriptor")
	}
}

func TestAcceptorLifecycle(t *testing.T) {
	s := New("2a", false)
	mustRecv(t, s, sig.Open(sig.Audio, desc("L", 1)), EvOpen)
	if s.State() != Opened || !s.IsOpened() {
		t.Fatal("received open must move to opened")
	}
	if !s.Described() {
		t.Fatal("open descriptor must be cached")
	}
	mustSend(t, s, sig.Oack(desc("R", 1)))
	if s.State() != Flowing {
		t.Fatal("sent oack must move to flowing")
	}
	mustSend(t, s, sig.Select(sig.Selector{Answers: sig.DescID{Origin: "L", Seq: 1}, Codec: sig.NoMedia}))
	if s.Enabled() {
		t.Fatal("noMedia selector must not set enabled")
	}
}

func TestRejectByClose(t *testing.T) {
	// close plays the role of reject (paper Section VI-B).
	s := New("x", true)
	mustSend(t, s, sig.Open(sig.Audio, desc("L", 1)))
	mustRecv(t, s, sig.Close(), EvClose)
	if s.State() != Closed || !s.OwesCloseAck() {
		t.Fatal("rejected opener must be closed and owe a closeack")
	}
	if err := s.Send(sig.Open(sig.Audio, desc("L", 1))); err == nil {
		t.Fatal("open before closeack must be rejected")
	}
	mustSend(t, s, sig.CloseAck())
	if s.OwesCloseAck() {
		t.Fatal("closeack must clear the debt")
	}
	mustSend(t, s, sig.Open(sig.Audio, desc("L", 1))) // retry is now legal
}

func TestRejectIncomingOpen(t *testing.T) {
	s := New("x", false)
	mustRecv(t, s, sig.Open(sig.Audio, desc("L", 1)), EvOpen)
	mustSend(t, s, sig.Close()) // reject
	if s.State() != Closing {
		t.Fatal("rejecting must move to closing")
	}
	mustRecv(t, s, sig.CloseAck(), EvCloseAck)
	if s.State() != Closed {
		t.Fatal("closeack must complete the rejection")
	}
}

func TestOpenOpenRaceWinner(t *testing.T) {
	// The channel initiator wins the race; the losing open is ignored.
	s := New("w", true)
	mustSend(t, s, sig.Open(sig.Audio, desc("W", 1)))
	mustRecv(t, s, sig.Open(sig.Audio, desc("L", 1)), EvStale)
	if s.State() != Opening {
		t.Fatal("winner must keep waiting for oack")
	}
	if s.Described() {
		t.Fatal("winner must not cache the losing open's descriptor")
	}
	mustRecv(t, s, sig.Oack(desc("L", 2)), EvOack)
	if s.State() != Flowing {
		t.Fatal("winner completes normally")
	}
}

func TestOpenOpenRaceLoser(t *testing.T) {
	s := New("l", false)
	mustSend(t, s, sig.Open(sig.Audio, desc("L", 1)))
	mustRecv(t, s, sig.Open(sig.Audio, desc("W", 1)), EvOpenRace)
	if s.State() != Opened {
		t.Fatal("loser must back off and become the acceptor")
	}
	d, _ := s.Desc()
	if d.ID.Origin != "W" {
		t.Fatal("loser must cache the winner's descriptor")
	}
	mustSend(t, s, sig.Oack(desc("L", 2)))
	if s.State() != Flowing {
		t.Fatal("loser completes as acceptor")
	}
}

func TestSimultaneousClose(t *testing.T) {
	// Both ends close at once; each receives a close while closing,
	// acknowledges it, and completes on its own closeack.
	s := New("x", true)
	mustSend(t, s, sig.Open(sig.Audio, desc("L", 1)))
	mustRecv(t, s, sig.Oack(desc("R", 1)), EvOack)
	mustSend(t, s, sig.Close())
	mustRecv(t, s, sig.Close(), EvClose)
	if s.State() != Closing || !s.OwesCloseAck() {
		t.Fatal("simultaneous close: still closing, owes ack")
	}
	mustSend(t, s, sig.CloseAck())
	mustRecv(t, s, sig.CloseAck(), EvCloseAck)
	if s.State() != Closed {
		t.Fatal("simultaneous close must converge to closed")
	}
}

func TestStaleSignalsWhileClosing(t *testing.T) {
	s := New("x", true)
	mustSend(t, s, sig.Open(sig.Audio, desc("L", 1)))
	mustRecv(t, s, sig.Oack(desc("R", 1)), EvOack)
	mustSend(t, s, sig.Close())
	mustRecv(t, s, sig.Describe(desc("R", 2)), EvStale)
	mustRecv(t, s, sig.Select(sig.Selector{Answers: sig.DescID{Origin: "L", Seq: 1}, Codec: sig.G711}), EvStale)
	mustRecv(t, s, sig.Open(sig.Audio, desc("R", 3)), EvStale)
	if s.StaleCount() != 3 {
		t.Fatalf("stale count = %d, want 3", s.StaleCount())
	}
	mustRecv(t, s, sig.CloseAck(), EvCloseAck)
}

func TestDescribeSelectWhileFlowing(t *testing.T) {
	s := New("x", true)
	mustSend(t, s, sig.Open(sig.Audio, desc("L", 1)))
	mustRecv(t, s, sig.Oack(desc("R", 1)), EvOack)

	mustRecv(t, s, sig.Describe(desc("R", 2)), EvDescribe)
	d, _ := s.Desc()
	if d.ID.Seq != 2 {
		t.Fatal("describe must refresh the cached descriptor")
	}
	mustSend(t, s, sig.Describe(desc("L", 2)))
	if s.Hist().DescSent.ID.Seq != 2 {
		t.Fatal("sent describe must be recorded in history")
	}
	sel := sig.Selector{Answers: d.ID, Addr: "a", Port: 1, Codec: sig.G711}
	mustRecv(t, s, sig.Select(sel), EvSelect)
	if !s.Hist().HasSelRcvd || s.Hist().SelRcvd.Answers != d.ID {
		t.Fatal("received select must be recorded in history")
	}
}

func TestEnabledFollowsSelectors(t *testing.T) {
	// Paper Section VI-C: enabled becomes true on sending a real
	// selector, false on sending a noMedia selector or leaving flowing.
	s := New("x", true)
	mustSend(t, s, sig.Open(sig.Audio, desc("L", 1)))
	mustRecv(t, s, sig.Oack(desc("R", 1)), EvOack)
	id := sig.DescID{Origin: "R", Seq: 1}
	mustSend(t, s, sig.Select(sig.Selector{Answers: id, Codec: sig.G711}))
	if !s.Enabled() {
		t.Fatal("real selector must enable")
	}
	mustSend(t, s, sig.Select(sig.Selector{Answers: id, Codec: sig.NoMedia}))
	if s.Enabled() {
		t.Fatal("noMedia selector must disable")
	}
	mustSend(t, s, sig.Select(sig.Selector{Answers: id, Codec: sig.G711}))
	mustRecv(t, s, sig.Close(), EvClose)
	if s.Enabled() {
		t.Fatal("leaving flowing must disable")
	}
}

func TestIllegalSendsRejected(t *testing.T) {
	s := New("x", true)
	illegal := []sig.Signal{
		sig.Oack(desc("L", 1)), // not opened
		sig.Close(),            // nothing to close
		sig.CloseAck(),         // nothing to acknowledge
		sig.Describe(desc("L", 1)),
		sig.Select(sig.Selector{}),
		sig.Open("", desc("L", 1)), // missing medium
	}
	for _, g := range illegal {
		if err := s.Send(g); err == nil {
			t.Errorf("send %s from closed should fail", g)
		}
	}
	mustSend(t, s, sig.Open(sig.Audio, desc("L", 1)))
	if err := s.Send(sig.Open(sig.Audio, desc("L", 1))); err == nil {
		t.Error("double open should fail")
	}
}

func TestIllegalReceivesRejected(t *testing.T) {
	s := New("x", true)
	for _, g := range []sig.Signal{sig.Oack(desc("R", 1)), sig.CloseAck(), sig.Close()} {
		if _, err := s.Receive(g); err == nil {
			t.Errorf("receive %s in closed should be a protocol violation", g)
		}
	}
	mustRecv(t, s, sig.Open(sig.Audio, desc("R", 1)), EvOpen)
	if _, err := s.Receive(sig.Open(sig.Audio, desc("R", 2))); err == nil {
		t.Error("receive open while opened should be a protocol violation")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New("x", true)
	mustSend(t, s, sig.Open(sig.Audio, desc("L", 1)))
	c := s.Clone()
	mustRecv(t, s, sig.Oack(desc("R", 1)), EvOack)
	if c.State() != Opening {
		t.Fatal("clone must not observe later mutations")
	}
	mustRecv(t, c, sig.Close(), EvClose)
	if s.State() != Flowing {
		t.Fatal("original must not observe clone mutations")
	}
}

func TestEncodeDistinguishesStates(t *testing.T) {
	s1 := New("x", true)
	s2 := New("x", true)
	mustSend(t, s2, sig.Open(sig.Audio, desc("L", 1)))
	b1 := s1.AppendEncode(nil)
	b2 := s2.AppendEncode(nil)
	if bytes.Equal(b1, b2) {
		t.Fatal("different slot states must have different fingerprints")
	}
	b3 := s2.Clone().AppendEncode(nil)
	if !bytes.Equal(b2, b3) {
		t.Fatal("clone must fingerprint identically")
	}
}

// TestQuickPairedSlotsConverge drives two slots joined by an in-memory
// FIFO pair with random goal-like behavior and asserts global
// invariants: the slots never desynchronize beyond what in-flight
// signals explain, and when the wires drain with both slots quiet, the
// pair is in a consistent joint state.
func TestQuickPairedSlotsConverge(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l, rr := New("L", true), New("R", false)
		var toR, toL []sig.Signal // in-flight FIFOs

		seq := map[string]uint32{"L": 1, "R": 1}
		mkDesc := func(o string) *sig.Descriptor { return desc(o, seq[o]) }

		// Random legal actions for a slot: try each candidate signal and
		// send the first one Send() accepts.
		act := func(s *Slot, origin string, out *[]sig.Signal) {
			candidates := []sig.Signal{}
			switch r.Intn(6) {
			case 0:
				candidates = append(candidates, sig.Open(sig.Audio, mkDesc(origin)))
			case 1:
				candidates = append(candidates, sig.Oack(mkDesc(origin)))
			case 2:
				candidates = append(candidates, sig.Close())
			case 3:
				candidates = append(candidates, sig.CloseAck())
			case 4:
				seq[origin]++
				candidates = append(candidates, sig.Describe(mkDesc(origin)))
			case 5:
				if d, ok := s.Desc(); ok {
					candidates = append(candidates, sig.Select(sig.AnswerDescriptor(d, "a", 1, []sig.Codec{sig.G711}, r.Intn(2) == 0)))
				}
			}
			for _, g := range candidates {
				if err := s.Send(g); err == nil {
					*out = append(*out, g)
					return
				}
			}
		}
		deliver := func(s *Slot, in *[]sig.Signal) bool {
			if len(*in) == 0 {
				return true
			}
			g := (*in)[0]
			*in = (*in)[1:]
			_, err := s.Receive(g)
			return err == nil
		}

		for i := 0; i < 200; i++ {
			switch r.Intn(4) {
			case 0:
				act(l, "L", &toR)
			case 1:
				act(rr, "R", &toL)
			case 2:
				if !deliver(rr, &toR) {
					return false
				}
			case 3:
				if !deliver(l, &toL) {
					return false
				}
			}
		}
		// Drain: deliver everything, acknowledging closes as required.
		for len(toR) > 0 || len(toL) > 0 || l.OwesCloseAck() || rr.OwesCloseAck() {
			if l.OwesCloseAck() {
				if err := l.Send(sig.CloseAck()); err != nil {
					return false
				}
				toR = append(toR, sig.CloseAck())
			}
			if rr.OwesCloseAck() {
				if err := rr.Send(sig.CloseAck()); err != nil {
					return false
				}
				toL = append(toL, sig.CloseAck())
			}
			if len(toR) > 0 && !deliver(rr, &toR) {
				return false
			}
			if len(toL) > 0 && !deliver(l, &toL) {
				return false
			}
		}
		// Invariant: with wires empty, closing states can only persist if
		// the peer still owes an ack — but we drained all acks, so no
		// slot may remain in Closing... unless its close is still
		// unanswered because the peer never received it. Drained, so:
		for _, s := range []*Slot{l, rr} {
			if s.State() == Closing {
				return false
			}
		}
		// Joint consistency: flowing on one side implies the other side
		// is flowing or has a close in... wires are empty, so flowing
		// must be mutual.
		if (l.State() == Flowing) != (rr.State() == Flowing) {
			// One side flowing alone with empty wires is only possible if
			// the other already closed and the close is in flight — but
			// wires are empty.
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestReSelectNewCodecMidFlow(t *testing.T) {
	// Figure 10's sel'2: "At any time after sending the first selector
	// in response to a descriptor, an endpoint can choose a new codec
	// from the list in the descriptor, send it as a selector... and
	// begin to send media in the new codec" — no new describe needed.
	s := New("x", true)
	d := &sig.Descriptor{ID: sig.DescID{Origin: "R", Seq: 1}, Addr: "r", Port: 2,
		Codecs: []sig.Codec{sig.G711, sig.G726}}
	mustSend(t, s, sig.Open(sig.Audio, desc("L", 1)))
	mustRecv(t, s, sig.Oack(d), EvOack)
	mustSend(t, s, sig.Select(sig.Selector{Answers: d.ID, Addr: "l", Port: 1, Codec: sig.G711}))
	if !s.Enabled() || s.Hist().SelSent.Codec != sig.G711 {
		t.Fatal("first selector not recorded")
	}
	// Switch to the lower-bandwidth codec without any describe.
	mustSend(t, s, sig.Select(sig.Selector{Answers: d.ID, Addr: "l", Port: 1, Codec: sig.G726}))
	if !s.Enabled() || s.Hist().SelSent.Codec != sig.G726 {
		t.Fatal("codec change via re-select not recorded")
	}
}

func TestDescribeSelectUnpaired(t *testing.T) {
	// Section VI-C: "A describe can be sent at any time, even if no
	// select has been received in response to the last describe. A
	// select can be sent at any time, even if no describe has been
	// received since the last select was sent."
	s := New("x", true)
	d := &sig.Descriptor{ID: sig.DescID{Origin: "R", Seq: 1}, Addr: "r", Port: 2, Codecs: []sig.Codec{sig.G711}}
	mustSend(t, s, sig.Open(sig.Audio, desc("L", 1)))
	mustRecv(t, s, sig.Oack(d), EvOack)
	// Two describes back to back, no select in between.
	mustSend(t, s, sig.Describe(desc("L", 2)))
	mustSend(t, s, sig.Describe(desc("L", 3)))
	// Two selects back to back, no describe in between.
	mustSend(t, s, sig.Select(sig.Selector{Answers: d.ID, Codec: sig.G711}))
	mustSend(t, s, sig.Select(sig.Selector{Answers: d.ID, Codec: sig.NoMedia}))
	// And concurrent describes in opposite directions don't constrain
	// each other: a remote describe is fine now too.
	mustRecv(t, s, sig.Describe(&sig.Descriptor{ID: sig.DescID{Origin: "R", Seq: 2}, Addr: "r", Port: 2, Codecs: []sig.Codec{sig.G726}}), EvDescribe)
}

// TestSlotSize pins a slot's footprint: every tunnel end of a standing
// call holds one, in its channel record. Both descriptors it caches are
// pointers to shared records, and its flags share one word.
func TestSlotSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pinned size is for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Slot{}); got != 208 {
		t.Fatalf("unsafe.Sizeof(Slot{}) = %d, want 208", got)
	}
}
