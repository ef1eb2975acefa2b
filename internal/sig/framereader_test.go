package sig

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"
)

// countingReader counts the Read calls that reach the stream: on a
// socket, each is a read(2).
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// frameStream writes envs back to back, framed, and returns the bytes.
func frameStream(t *testing.T, envs []Envelope) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range envs {
		if err := WriteFrame(&buf, e); err != nil {
			t.Fatalf("WriteFrame(%v): %v", e, err)
		}
	}
	return buf.Bytes()
}

// burstEnvelopes is a mix of every envelope shape: signals of each
// kind, sequenced and channel-tagged ones, and metas with attrs.
func burstEnvelopes() []Envelope {
	d := Descriptor{ID: DescID{Origin: "dev", Seq: 3}, Addr: "10.0.0.1", Port: 5004, Codecs: []Codec{G711, G726}}
	envs := []Envelope{
		{Tunnel: 0, Sig: Open(Audio, d)},
		{Tunnel: 1, Seq: 4, Sig: Oack(d)},
		{Tunnel: 2, Sig: Close()},
		{Meta: &Meta{Kind: MetaApp, App: "paid", Attrs: NewAttrs("amount", "10", "card", "x")}},
	}
	for _, tc := range chanCases() {
		envs = append(envs, tc.e)
	}
	return envs
}

// TestFrameReaderOneReadPerBurst: frames written back to back that fit
// the reader's buffer decode with a single Read, and the clean end of
// the stream costs one more.
func TestFrameReaderOneReadPerBurst(t *testing.T) {
	envs := burstEnvelopes()
	stream := frameStream(t, envs)
	if len(stream) > 512 {
		t.Fatalf("burst is %d bytes; it must fit the reader's 512-byte buffer", len(stream))
	}
	cr := &countingReader{r: bytes.NewReader(stream)}
	fr := NewFrameReader(cr)
	for i, want := range envs {
		got, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.String() != want.String() {
			t.Fatalf("frame %d decoded %v, want %v", i, got, want)
		}
	}
	if cr.reads != 1 {
		t.Fatalf("%d frames took %d Reads, want 1", len(envs), cr.reads)
	}
	if _, err := fr.ReadFrame(); err != io.EOF {
		t.Fatalf("after the burst: %v, want io.EOF", err)
	}
	if cr.reads != 2 {
		t.Fatalf("the end of the stream took %d more Reads, want 1", cr.reads-1)
	}
}

// TestFrameReaderChunkedStreams: a stream decodes to the same
// envelopes however the reads split it — a byte at a time, half of
// each request, the data with io.EOF — including frames larger than
// the reader's initial buffer.
func TestFrameReaderChunkedStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	envs := burstEnvelopes()
	for i := 0; i < 200; i++ {
		envs = append(envs, Envelope{Tunnel: i, Sig: randomSignal(rng)})
	}
	big := make([]string, 0, 400)
	for i := 0; i < 200; i++ {
		big = append(big, fmt.Sprintf("key%03d", i), "value")
	}
	envs = append(envs, Envelope{Meta: &Meta{Kind: MetaApp, App: "big", Attrs: NewAttrs(big...)}})
	stream := frameStream(t, envs)

	decode := func(r io.Reader) [][]byte {
		t.Helper()
		fr := NewFrameReader(r)
		var out [][]byte
		for {
			e, err := fr.ReadFrame()
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatalf("frame %d: %v", len(out), err)
			}
			out = append(out, e.Marshal())
			e.Release()
		}
	}
	want := decode(bytes.NewReader(stream))
	if len(want) != len(envs) {
		t.Fatalf("decoded %d frames, want %d", len(want), len(envs))
	}
	for name, r := range map[string]io.Reader{
		"OneByteReader": iotest.OneByteReader(bytes.NewReader(stream)),
		"HalfReader":    iotest.HalfReader(bytes.NewReader(stream)),
		"DataErrReader": iotest.DataErrReader(bytes.NewReader(stream)),
	} {
		got := decode(r)
		if len(got) != len(want) {
			t.Fatalf("%s: decoded %d frames, want %d", name, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: frame %d decoded to %x, want %x", name, i, got[i], want[i])
			}
		}
	}
}

// TestFrameReaderEOF: a stream that ends between frames reports
// io.EOF; one that ends inside a header or a body — even right after a
// complete header — reports io.ErrUnexpectedEOF.
func TestFrameReaderEOF(t *testing.T) {
	one := frameStream(t, []Envelope{{Tunnel: 1, Sig: Close()}})
	two := frameStream(t, []Envelope{{Tunnel: 1, Sig: Close()}, {Tunnel: 2, Sig: Close()}})
	cases := []struct {
		name   string
		stream []byte
		frames int
		end    error
	}{
		{"empty stream", nil, 0, io.EOF},
		{"after a frame", one, 1, io.EOF},
		{"after two frames", two, 2, io.EOF},
		{"truncated header", two[:len(one)+2], 1, io.ErrUnexpectedEOF},
		{"header only", two[:len(one)+4], 1, io.ErrUnexpectedEOF},
		{"truncated body", two[:len(two)-1], 1, io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		for _, r := range []io.Reader{bytes.NewReader(tc.stream), iotest.OneByteReader(bytes.NewReader(tc.stream))} {
			fr := NewFrameReader(r)
			for i := 0; i < tc.frames; i++ {
				if _, err := fr.ReadFrame(); err != nil {
					t.Fatalf("%s: frame %d: %v", tc.name, i, err)
				}
			}
			if _, err := fr.ReadFrame(); err != tc.end {
				t.Fatalf("%s: got %v, want %v", tc.name, err, tc.end)
			}
			if _, err := fr.ReadFrame(); err != tc.end {
				t.Fatalf("%s, read again: got %v, want %v", tc.name, err, tc.end)
			}
		}
	}
}

// TestFrameReaderStreamError: an error other than io.EOF reaches the
// caller as it is, once the frames read before it are decoded.
func TestFrameReaderStreamError(t *testing.T) {
	boom := errors.New("boom")
	stream := frameStream(t, []Envelope{{Tunnel: 1, Sig: Close()}})
	fr := NewFrameReader(io.MultiReader(bytes.NewReader(stream), iotest.ErrReader(boom)))
	if _, err := fr.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if _, err := fr.ReadFrame(); err != boom {
		t.Fatalf("got %v, want the stream's error", err)
	}
}

// TestFrameRoundTripZeroAlloc gates BenchmarkFrameRoundTrip's claim:
// encoding a frame and decoding it through a reused FrameReader
// allocates nothing in steady state.
func TestFrameRoundTripZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool reuse is randomized under -race")
	}
	if testing.Short() {
		t.Skip("benchmark-backed test")
	}
	if a := testing.Benchmark(BenchmarkFrameRoundTrip).AllocsPerOp(); a != 0 {
		t.Fatalf("frame round trip allocates %d allocs/op, want 0", a)
	}
}
