package slot

import (
	"testing"

	"ipmedia/internal/sig"
)

// FuzzSlotFSM drives a slot with an arbitrary byte-directed sequence
// of sends and receives and checks the FSM's internal consistency: no
// panics, the user-interface predicates always partition the states,
// and a described slot is always in opened or flowing.
func FuzzSlotFSM(f *testing.F) {
	f.Add([]byte{0, 10, 14, 5})      // open, recv oack, select, close
	f.Add([]byte{8, 1, 5, 12})       // recv open, oack, close, recv closeack
	f.Add([]byte{0, 8, 5, 11, 3, 3}) // race-ish garbage
	f.Fuzz(func(t *testing.T, script []byte) {
		s := New("f", len(script)%2 == 0)
		d := func(o string, q uint32) *sig.Descriptor {
			return &sig.Descriptor{ID: sig.DescID{Origin: o, Seq: q}, Addr: "h", Port: 1, Codecs: []sig.Codec{sig.G711}}
		}
		sel := func(q uint32, real bool) sig.Selector {
			c := sig.NoMedia
			if real {
				c = sig.G711
			}
			return sig.Selector{Answers: sig.DescID{Origin: "p", Seq: q}, Addr: "h2", Port: 2, Codec: c}
		}
		for i, op := range script {
			q := uint32(i%3) + 1
			switch op % 16 {
			case 0:
				s.Send(sig.Open(sig.Audio, d("m", q)))
			case 1:
				s.Send(sig.Oack(d("m", q)))
			case 2:
				s.Send(sig.Describe(d("m", q)))
			case 3:
				s.Send(sig.Select(sel(q, true)))
			case 4:
				s.Send(sig.Select(sel(q, false)))
			case 5:
				s.Send(sig.Close())
			case 6:
				s.Send(sig.CloseAck())
			case 7:
				s.Send(sig.Open("", d("m", q))) // always illegal
			case 8:
				s.Receive(sig.Open(sig.Audio, d("p", q)))
			case 9:
				s.Receive(sig.Open("", d("p", q)))
			case 10:
				s.Receive(sig.Oack(d("p", q)))
			case 11:
				s.Receive(sig.Describe(d("p", q)))
			case 12:
				s.Receive(sig.CloseAck())
			case 13:
				s.Receive(sig.Close())
			case 14:
				s.Receive(sig.Select(sel(q, true)))
			case 15:
				s.Receive(sig.Signal{Kind: sig.Kind(42)})
			}
			// Internal consistency after every step:
			ui := 0
			for _, p := range []bool{s.IsClosed(), s.IsOpening(), s.IsOpened(), s.IsFlowing()} {
				if p {
					ui++
				}
			}
			if ui != 1 {
				t.Fatalf("UI predicates not a partition in %s", s.State())
			}
			if s.Described() && s.State() != Opened && s.State() != Flowing {
				t.Fatalf("described in %s: only opened and flowing slots are described", s.State())
			}
			if s.Enabled() && s.State() != Flowing {
				t.Fatalf("enabled outside flowing (%s)", s.State())
			}
		}
	})
}
