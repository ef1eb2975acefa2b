package sig

import (
	"bytes"
	"encoding/binary"
	"io"
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

// FuzzReadFrame drives one FrameReader over an arbitrary stream that
// arrives in fuzzer-chosen chunk sizes, and checks every result against
// splitting the whole stream by hand and decoding each frame with
// UnmarshalEnvelope: the same envelopes, the same decode errors, and
// the same end — io.EOF between frames, io.ErrUnexpectedEOF inside
// one, ErrFrameTooLarge at an oversized length prefix.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, Envelope{Tunnel: 1, Sig: Close()})
	f.Add(buf.Bytes(), []byte{})
	buf.Reset()
	for _, tc := range chanCases() {
		WriteFrame(&buf, tc.e)
	}
	f.Add(buf.Bytes(), []byte{0})
	f.Add(buf.Bytes(), []byte{2, 60, 0})
	f.Add(buf.Bytes()[:buf.Len()-3], []byte{7})
	f.Add([]byte{0, 0, 0, 0}, []byte{})
	f.Add([]byte{0, 0, 0, 1, 99, 0, 0}, []byte{1})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}, []byte{3})
	f.Fuzz(func(t *testing.T, stream, chunks []byte) {
		fr := NewFrameReader(&chunkReader{data: stream, sizes: chunks})
		rest := stream
		for {
			got, err := fr.ReadFrame()
			want, last, wantErr := splitFrame(&rest)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("ReadFrame error %v, want %v", err, wantErr)
			}
			if err == nil {
				g, gerr := got.AppendBinary(nil)
				w, werr := want.AppendBinary(nil)
				if gerr != nil || werr != nil || !bytes.Equal(g, w) {
					t.Fatalf("ReadFrame decoded %v, want %v", got, want)
				}
			}
			got.Release()
			want.Release()
			if last {
				return
			}
		}
	})
}

// splitFrame takes the next frame off the front of a whole stream and
// decodes it, reporting last once the stream cannot hold another.
func splitFrame(rest *[]byte) (e Envelope, last bool, err error) {
	s := *rest
	switch {
	case len(s) == 0:
		return Envelope{}, true, io.EOF
	case len(s) < 4:
		return Envelope{}, true, io.ErrUnexpectedEOF
	}
	n := binary.BigEndian.Uint32(s)
	switch {
	case n > MaxFrame:
		return Envelope{}, true, ErrFrameTooLarge
	case uint32(len(s)-4) < n:
		return Envelope{}, true, io.ErrUnexpectedEOF
	}
	*rest = s[4+n:]
	e, err = UnmarshalEnvelope(s[4 : 4+n])
	return e, false, err
}

// chunkReader hands data out in chunks whose sizes cycle through
// sizes[i]+1 (the whole request when sizes is empty). An odd number of
// sizes also returns io.EOF with the last bytes rather than after them.
type chunkReader struct {
	data  []byte
	sizes []byte
	i     int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(c.data))
	if len(c.sizes) > 0 {
		n = min(n, int(c.sizes[c.i%len(c.sizes)])+1)
		c.i++
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	if len(c.data) == 0 && len(c.sizes)%2 == 1 {
		return n, io.EOF
	}
	return n, nil
}
