package sig

import (
	"bytes"
	"testing"
	"unsafe"
)

// chanCases covers every channel-tagged wire variant: signal and meta,
// unsequenced and sequenced, each with a channel id.
func chanCases() []struct {
	e   Envelope
	tag byte
} {
	d := &Descriptor{ID: DescID{Origin: "dev", Seq: 3}, Addr: "10.0.0.1", Port: 5004, Codecs: []Codec{G711, G726}}
	return []struct {
		e   Envelope
		tag byte
	}{
		{Envelope{Tunnel: 2, Chan: 1, Sig: Open(Audio, d)}, tagSignalChan},
		{Envelope{Tunnel: 0, Chan: 1 << 31, Sig: Close()}, tagSignalChan},
		{Envelope{Chan: 7, Meta: &Meta{Kind: MetaSetup, Attrs: NewAttrs("chan", "c", "from", "a")}}, tagMetaChan},
		{Envelope{Tunnel: 5, Seq: 9, Chan: 0xFFFFFFFF, Sig: Select(Selector{Answers: d.ID, Addr: "h", Port: 1, Codec: G711})}, tagSignalSeqChan},
		{Envelope{Seq: 1, Chan: 3, Meta: &Meta{Kind: MetaTeardown}}, tagMetaSeqChan},
	}
}

// chanOffset is where the channel id sits in e's payload: after the
// tag, and after the sequence number if there is one.
func chanOffset(e Envelope) int {
	if e.Seq != 0 {
		return 5
	}
	return 1
}

// TestChanEnvelopeRoundTrip: every channel-tagged variant survives the
// wire with its tag, and the channel id is a header word only —
// clearing Chan recovers the untagged encoding, body byte for body
// byte.
func TestChanEnvelopeRoundTrip(t *testing.T) {
	for _, tc := range chanCases() {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, tc.e); err != nil {
			t.Fatalf("WriteFrame(%v): %v", tc.e, err)
		}
		p := tc.e.Marshal()
		if p[0] != tc.tag {
			t.Fatalf("%v encoded with tag %d, want %d", tc.e, p[0], tc.tag)
		}
		got, err := NewFrameReader(&buf).ReadFrame()
		if err != nil {
			t.Fatalf("ReadFrame(%v): %v", tc.e, err)
		}
		if got.Chan != tc.e.Chan || got.Seq != tc.e.Seq || got.String() != tc.e.String() {
			t.Fatalf("round trip mangled %v into %v", tc.e, got)
		}
		if !bytes.Equal(got.Marshal(), p) {
			t.Fatalf("re-encoding of %v differs", tc.e)
		}
		plain := tc.e
		plain.Chan = 0
		at := chanOffset(tc.e)
		stripped := append([]byte{p[0] - tagBitChan}, p[1:at]...)
		stripped = append(stripped, p[at+4:]...)
		if !bytes.Equal(stripped, plain.Marshal()) {
			t.Fatalf("channel id of %v is not a header word:\n tagged %x\n plain  %x", tc.e, p, plain.Marshal())
		}
	}
}

// TestChanZeroRejected: a channel-tagged payload whose channel id is
// zero would re-encode without the tag; like a sequenced tag carrying
// sequence zero it is non-canonical and must not decode.
func TestChanZeroRejected(t *testing.T) {
	for _, tc := range chanCases() {
		p := tc.e.Marshal()
		at := chanOffset(tc.e)
		bad := append([]byte(nil), p...)
		copy(bad[at:at+4], []byte{0, 0, 0, 0})
		if e, err := UnmarshalEnvelope(bad); err == nil {
			t.Fatalf("tag %d with channel id 0 decoded as %v", tc.tag, e)
		}
	}
}

// TestEnvelopeSize pins the envelope's footprint on every path that
// moves envelopes by value (rings, queues, batches): Chan lives in the
// padding after Seq, and a signal's descriptor is one pointer to a
// shared record, so an envelope is 8+4+4 bytes of header, a 96-byte
// Signal (kind, medium, descriptor pointer, 64-byte selector) and the
// Meta pointer.
func TestEnvelopeSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pinned size is for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Envelope{}); got != 120 {
		t.Fatalf("unsafe.Sizeof(Envelope{}) = %d, want 120", got)
	}
}
