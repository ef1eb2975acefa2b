package sig

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, e Envelope) Envelope {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, e); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	got, err := NewFrameReader(&buf).ReadFrame()
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return got
}

func TestWireRoundTripSignals(t *testing.T) {
	d := &Descriptor{ID: DescID{"deviceA", 7}, Addr: "192.168.1.10", Port: 5004, Codecs: []Codec{G711, G726, NoMedia}}
	sel := Selector{Answers: d.ID, Addr: "192.168.1.20", Port: 6000, Codec: G726}
	for _, e := range []Envelope{
		{Tunnel: 0, Sig: Open(Audio, d)},
		{Tunnel: 3, Sig: Oack(d)},
		{Tunnel: 1, Sig: Close()},
		{Tunnel: 1, Sig: CloseAck()},
		{Tunnel: 2, Sig: Describe(NoMediaDescriptor(DescID{"srv", 1}))},
		{Tunnel: 4, Sig: Select(sel)},
	} {
		got := roundTrip(t, e)
		if !reflect.DeepEqual(normalize(got), normalize(e)) {
			t.Errorf("round trip mismatch:\n got %#v\nwant %#v", got, e)
		}
	}
}

// normalize maps nil and empty codec slices together: the wire format
// does not distinguish them and neither does any protocol rule. It
// copies the descriptor rather than writing through the shared one.
func normalize(e Envelope) Envelope {
	if d := e.Sig.Desc; d != nil && len(d.Codecs) == 0 {
		c := *d
		c.Codecs = nil
		e.Sig.Desc = &c
	}
	return e
}

func TestWireRoundTripMeta(t *testing.T) {
	for _, e := range []Envelope{
		{Meta: &Meta{Kind: MetaSetup}},
		{Meta: &Meta{Kind: MetaTeardown}},
		{Meta: &Meta{Kind: MetaApp, App: "paid", Attrs: NewAttrs("amount", "10", "card", "x")}},
	} {
		got := roundTrip(t, e)
		if got.Meta == nil {
			t.Fatal("meta lost in round trip")
		}
		if got.Meta.Kind != e.Meta.Kind || got.Meta.App != e.Meta.App {
			t.Errorf("meta mismatch: got %+v want %+v", got.Meta, e.Meta)
		}
		if len(e.Meta.Attrs) > 0 && !reflect.DeepEqual(got.Meta.Attrs, e.Meta.Attrs) {
			t.Errorf("attrs mismatch: got %v want %v", got.Meta.Attrs, e.Meta.Attrs)
		}
	}
}

func TestMetaAttrEncodingDeterministic(t *testing.T) {
	// Map iteration order must not leak into the wire encoding: the
	// model checker fingerprints in-flight signals by their bytes.
	e := Envelope{Meta: &Meta{Kind: MetaApp, App: "x", Attrs: NewAttrs(
		"f", "6", "e", "5", "d", "4", "c", "3", "b", "2", "a", "1",
	)}}
	first := e.Marshal()
	for i := 0; i < 50; i++ {
		if !bytes.Equal(first, e.Marshal()) {
			t.Fatal("meta encoding is nondeterministic")
		}
	}
}

// TestReadFrameRejectsOversized: a length prefix over MaxFrame is
// refused before the reader's buffer grows to hold it.
func TestReadFrameRejectsOversized(t *testing.T) {
	for _, hdr := range [][]byte{{0xFF, 0xFF, 0xFF, 0xFF}, {0, 1, 0, 1}} {
		fr := NewFrameReader(bytes.NewReader(append(hdr, make([]byte, 64)...)))
		if _, err := fr.ReadFrame(); err != ErrFrameTooLarge {
			t.Errorf("header %x: expected ErrFrameTooLarge, got %v", hdr, err)
		}
		if c := cap(fr.buf); c != 512 {
			t.Errorf("header %x: buffer grew to %d bytes", hdr, c)
		}
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	for _, p := range [][]byte{
		{},
		{99},                        // unknown tag
		{tagSignal, 0, 0},           // truncated tunnel id
		{tagSignal, 0, 0, 0, 0, 42}, // unknown signal kind
		{tagMeta},                   // truncated meta
	} {
		if _, err := UnmarshalEnvelope(p); err == nil {
			t.Errorf("payload %v should fail to decode", p)
		}
	}
}

// randomCodec and friends generate structured random values for the
// property-based round-trip test below.
func randomCodec(r *rand.Rand) Codec {
	all := []Codec{G711, G726, G729, H263, H264, NoMedia, Codec("exotic")}
	return all[r.Intn(len(all))]
}

func randomDescriptor(r *rand.Rand) *Descriptor {
	d := &Descriptor{
		ID:   DescID{Origin: randString(r), Seq: r.Uint32()},
		Addr: randString(r),
		Port: r.Intn(65536),
	}
	for i, n := 0, r.Intn(4); i < n; i++ {
		d.Codecs = append(d.Codecs, randomCodec(r))
	}
	return d
}

func randString(r *rand.Rand) string {
	n := r.Intn(12)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func randomSignal(r *rand.Rand) Signal {
	switch r.Intn(6) {
	case 0:
		return Open(Medium(randString(r)), randomDescriptor(r))
	case 1:
		return Oack(randomDescriptor(r))
	case 2:
		return Close()
	case 3:
		return CloseAck()
	case 4:
		return Describe(randomDescriptor(r))
	default:
		return Select(Selector{
			Answers: DescID{Origin: randString(r), Seq: r.Uint32()},
			Addr:    randString(r),
			Port:    r.Intn(65536),
			Codec:   randomCodec(r),
		})
	}
}

func TestQuickWireRoundTrip(t *testing.T) {
	f := func(tunnel uint16, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := Envelope{Tunnel: int(tunnel), Sig: randomSignal(r)}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, e); err != nil {
			return false
		}
		got, err := NewFrameReader(&buf).ReadFrame()
		if err != nil {
			return false
		}
		return reflect.DeepEqual(normalize(got), normalize(e))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickAnswerDescriptorInvariants(t *testing.T) {
	// Property: AnswerDescriptor always answers the right ID; never
	// selects a codec absent from the descriptor; respects muteOut; and
	// answers noMedia descriptors with noMedia selectors.
	f := func(seed int64, muteOut bool) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDescriptor(r)
		var sendable []Codec
		for i, n := 0, r.Intn(4); i < n; i++ {
			sendable = append(sendable, randomCodec(r))
		}
		sel := AnswerDescriptor(d, "s", 1, sendable, muteOut)
		if sel.Answers != d.ID {
			return false
		}
		if muteOut && !sel.NoMedia() {
			return false
		}
		if d.NoMedia() && !sel.NoMedia() {
			return false
		}
		if !sel.NoMedia() && !d.Offers(sel.Codec) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// writeCounter records how many Write calls it receives, so tests can
// assert on syscall counts for socket-bound writers.
type writeCounter struct {
	buf    bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// TestWriteFrameSingleWrite pins the coalesced framing: one envelope
// must reach the writer (and hence a raw TCP conn) in exactly one
// Write call, header and payload together, and still round-trip.
func TestWriteFrameSingleWrite(t *testing.T) {
	d := &Descriptor{ID: DescID{"deviceA", 7}, Addr: "192.168.1.10", Port: 5004, Codecs: []Codec{G711, G726}}
	envs := []Envelope{
		{Tunnel: 2, Sig: Open(Audio, d)},
		{Tunnel: 0, Sig: Close()},
		{Meta: &Meta{Kind: MetaApp, App: "paid", Attrs: NewAttrs("amount", "10")}},
	}
	var w writeCounter
	for i, e := range envs {
		if err := WriteFrame(&w, e); err != nil {
			t.Fatal(err)
		}
		if w.writes != i+1 {
			t.Fatalf("after %d frames: %d Write calls, want %d", i+1, w.writes, i+1)
		}
	}
	fr := NewFrameReader(&w.buf)
	for _, want := range envs {
		got, err := fr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, want)
		}
	}
}
