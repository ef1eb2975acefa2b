package sig

import (
	"bytes"
	"testing"
)

// TestSeqEnvelopeRoundTrip: sequenced envelopes survive the wire, and
// the sequence number rides outside the legacy payload — stripping it
// recovers the legacy encoding exactly.
func TestSeqEnvelopeRoundTrip(t *testing.T) {
	d := Descriptor{ID: DescID{Origin: "dev", Seq: 3}, Addr: "10.0.0.1", Port: 5004, Codecs: []Codec{G711, G726}}
	cases := []Envelope{
		{Tunnel: 0, Seq: 1, Sig: Open(Audio, d)},
		{Tunnel: 3, Seq: 7, Sig: Oack(d)},
		{Tunnel: 1, Seq: 1 << 30, Sig: Close()},
		{Seq: 42, Meta: &Meta{Kind: MetaSetup, Attrs: NewAttrs("from", "a")}},
		{Seq: 2, Meta: &Meta{Kind: MetaApp, App: "rel/ack"}},
	}
	for _, e := range cases {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, e); err != nil {
			t.Fatalf("WriteFrame(%v): %v", e, err)
		}
		got, err := NewFrameReader(&buf).ReadFrame()
		if err != nil {
			t.Fatalf("ReadFrame(%v): %v", e, err)
		}
		if got.Seq != e.Seq || got.Tunnel != e.Tunnel || got.IsMeta() != e.IsMeta() {
			t.Fatalf("round trip mangled %v into %v", e, got)
		}
		if got.String() != e.String() {
			t.Fatalf("round trip mangled %v into %v", e, got)
		}
	}
}

// TestSeqZeroKeepsLegacyTag: an unsequenced envelope must encode with
// the legacy tag byte — the format the model checker fingerprints and
// pre-Seq peers speak.
func TestSeqZeroKeepsLegacyTag(t *testing.T) {
	e := Envelope{Tunnel: 1, Sig: Close()}
	p := e.Marshal()
	if p[0] != tagSignal {
		t.Fatalf("unsequenced envelope encoded with tag %d, want %d", p[0], tagSignal)
	}
	e.Seq = 9
	p = e.Marshal()
	if p[0] != tagSignalSeq {
		t.Fatalf("sequenced envelope encoded with tag %d, want %d", p[0], tagSignalSeq)
	}
	// A sequenced tag with seq 0 is non-canonical and must not decode.
	bad := append([]byte{tagSignalSeq, 0, 0, 0, 0}, Envelope{Tunnel: 1, Sig: Close()}.Marshal()[1:]...)
	if _, err := UnmarshalEnvelope(bad); err == nil {
		t.Fatal("non-canonical seq-0 envelope decoded")
	}
}
