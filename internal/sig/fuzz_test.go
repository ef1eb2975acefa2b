package sig

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalEnvelope checks that arbitrary bytes never panic the
// decoder, and that anything that decodes re-encodes to an equivalent
// envelope (decode∘encode∘decode is the identity).
func FuzzUnmarshalEnvelope(f *testing.F) {
	d := Descriptor{ID: DescID{Origin: "dev", Seq: 3}, Addr: "10.0.0.1", Port: 5004, Codecs: []Codec{G711, G726}}
	seeds := []Envelope{
		{Tunnel: 0, Sig: Open(Audio, d)},
		{Tunnel: 1, Sig: Oack(d)},
		{Tunnel: 2, Sig: Close()},
		{Tunnel: 3, Sig: CloseAck()},
		{Tunnel: 4, Sig: Describe(d)},
		{Tunnel: 5, Sig: Select(Selector{Answers: d.ID, Addr: "h", Port: 1, Codec: G711})},
		{Meta: &Meta{Kind: MetaApp, App: "paid", Attrs: NewAttrs("k", "v")}},
	}
	for _, e := range seeds {
		f.Add(e.Marshal())
	}
	for _, tc := range chanCases() {
		f.Add(tc.e.Marshal())
	}
	f.Add([]byte{})
	f.Add([]byte{tagSignal})
	f.Add([]byte{tagMeta, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := UnmarshalEnvelope(data)
		if err != nil {
			return
		}
		re := e.Marshal()
		e2, err := UnmarshalEnvelope(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(re, e2.Marshal()) {
			t.Fatalf("encoding not idempotent:\n%v\n%v", re, e2.Marshal())
		}
	})
}

// FuzzReadFrame checks the length-framed reader against arbitrary
// streams.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, Envelope{Tunnel: 1, Sig: Close()})
	f.Add(buf.Bytes())
	buf.Reset()
	for _, tc := range chanCases() {
		WriteFrame(&buf, tc.e)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for i := 0; i < 10; i++ {
			if _, err := ReadFrame(r); err != nil {
				return
			}
		}
	})
}
