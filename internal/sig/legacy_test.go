package sig

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// This file pins the wire format across the encoder rewrite: the
// original bytes.Buffer-based encoder is kept here as a reference
// implementation, and the append-style production encoder must agree
// with it byte for byte on every encodable envelope. The format is
// load-bearing twice over — peers on the wire, and state fingerprints
// inside the model checker.

func legacyPutString(b *bytes.Buffer, s string) {
	var n [2]byte
	binary.BigEndian.PutUint16(n[:], uint16(len(s)))
	b.Write(n[:])
	b.WriteString(s)
}

func legacyPutU32(b *bytes.Buffer, v uint32) {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], v)
	b.Write(n[:])
}

func legacyEncodeDescriptor(b *bytes.Buffer, d *Descriptor) {
	legacyPutString(b, d.ID.Origin)
	legacyPutU32(b, d.ID.Seq)
	legacyPutString(b, d.Addr)
	legacyPutU32(b, uint32(d.Port))
	legacyPutU32(b, uint32(len(d.Codecs)))
	for _, c := range d.Codecs {
		legacyPutString(b, string(c))
	}
}

func legacyEncodeSelector(b *bytes.Buffer, s Selector) {
	legacyPutString(b, s.Answers.Origin)
	legacyPutU32(b, s.Answers.Seq)
	legacyPutString(b, s.Addr)
	legacyPutU32(b, uint32(s.Port))
	legacyPutString(b, string(s.Codec))
}

func legacyEncodeSignal(b *bytes.Buffer, g Signal) {
	b.WriteByte(byte(g.Kind))
	switch g.Kind {
	case KindOpen:
		legacyPutString(b, string(g.Medium))
		legacyEncodeDescriptor(b, g.Desc)
	case KindOack, KindDescribe:
		legacyEncodeDescriptor(b, g.Desc)
	case KindSelect:
		legacyEncodeSelector(b, g.Sel)
	}
}

func legacyMarshal(e Envelope) []byte {
	var b bytes.Buffer
	if e.IsMeta() {
		b.WriteByte(tagMeta)
		b.WriteByte(byte(e.Meta.Kind))
		legacyPutString(&b, e.Meta.App)
		attrs := append([]Attr(nil), e.Meta.Attrs...)
		sort.Slice(attrs, func(i, j int) bool { return attrs[i].Key < attrs[j].Key })
		legacyPutU32(&b, uint32(len(attrs)))
		for _, a := range attrs {
			legacyPutString(&b, a.Key)
			legacyPutString(&b, a.Val)
		}
		return b.Bytes()
	}
	b.WriteByte(tagSignal)
	legacyPutU32(&b, uint32(e.Tunnel))
	legacyEncodeSignal(&b, e.Sig)
	return b.Bytes()
}

func randomEnvelope(r *rand.Rand) Envelope {
	if r.Intn(4) == 0 {
		m := &Meta{Kind: MetaKind(1 + r.Intn(5)), App: randString(r)}
		for i, n := 0, r.Intn(4); i < n; i++ {
			m.Set(randString(r), randString(r))
		}
		return Envelope{Meta: m}
	}
	return Envelope{Tunnel: r.Intn(1 << 16), Sig: randomSignal(r)}
}

// TestEncoderMatchesLegacy asserts byte-for-byte equality of the
// append-style encoder with the original buffer-based encoder over a
// large sample of structured random envelopes.
func TestEncoderMatchesLegacy(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		e := randomEnvelope(r)
		got := e.Marshal()
		want := legacyMarshal(e)
		if !bytes.Equal(got, want) {
			t.Fatalf("encoding diverged on %v:\n new %v\n old %v", e, got, want)
		}
	}
}

// FuzzEncoderEquivalence round-trips arbitrary bytes through the
// decoder and asserts the new encoder reproduces the legacy encoding
// of whatever decodes.
func FuzzEncoderEquivalence(f *testing.F) {
	d := &Descriptor{ID: DescID{Origin: "dev", Seq: 3}, Addr: "10.0.0.1", Port: 5004, Codecs: []Codec{G711, G726}}
	f.Add(Envelope{Tunnel: 2, Sig: Open(Audio, d)}.Marshal())
	f.Add(Envelope{Tunnel: 0, Sig: Select(Selector{Answers: d.ID, Addr: "h", Port: 9, Codec: G711})}.Marshal())
	f.Add(Envelope{Meta: &Meta{Kind: MetaApp, App: "paid", Attrs: NewAttrs("k", "v")}}.Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := UnmarshalEnvelope(data)
		if err != nil {
			return
		}
		got, err := e.AppendBinary(nil)
		if err != nil {
			t.Fatalf("decoded envelope failed to re-encode: %v", err)
		}
		if e.Seq != 0 || e.Chan != 0 {
			// Sequenced and channel-tagged envelopes postdate the legacy
			// encoder; check that stripping both header words recovers the
			// legacy encoding instead.
			stripped := e
			stripped.Seq, stripped.Chan = 0, 0
			sg, err := stripped.AppendBinary(nil)
			if err != nil {
				t.Fatalf("stripped envelope failed to re-encode: %v", err)
			}
			if want := legacyMarshal(stripped); !bytes.Equal(sg, want) {
				t.Fatalf("encoders diverge on stripped envelope:\n new %v\n old %v", sg, want)
			}
			return
		}
		if want := legacyMarshal(e); !bytes.Equal(got, want) {
			t.Fatalf("encoders diverge:\n new %v\n old %v", got, want)
		}
	})
}

// TestEncodeRejectsUndecodable pins encode/decode symmetry: envelopes
// the decoder would reject (or silently mangle) must fail to encode
// with an ErrCorrupt-class error instead of being silently emitted.
func TestEncodeRejectsUndecodable(t *testing.T) {
	tooManyCodecs := make([]Codec, MaxCodecs+1)
	for i := range tooManyCodecs {
		tooManyCodecs[i] = G711
	}
	var tooManyAttrs []Attr
	for i := 0; i <= MaxAttrs; i++ {
		tooManyAttrs = SetAttr(tooManyAttrs, fmt.Sprintf("k%06d", i), "v")
	}
	long := strings.Repeat("x", maxString+1)
	cases := []struct {
		name string
		e    Envelope
	}{
		{"codec overflow", Envelope{Sig: Oack(&Descriptor{Codecs: tooManyCodecs})}},
		{"attr overflow", Envelope{Meta: &Meta{Kind: MetaApp, App: "a", Attrs: tooManyAttrs}}},
		{"oversized origin", Envelope{Sig: Describe(&Descriptor{ID: DescID{Origin: long}})}},
		{"oversized medium", Envelope{Sig: Open(Medium(long), &Descriptor{})}},
		{"oversized selector codec", Envelope{Sig: Select(Selector{Codec: Codec(long)})}},
		{"oversized app", Envelope{Meta: &Meta{Kind: MetaApp, App: long}}},
		{"unknown kind", Envelope{Sig: Signal{Kind: Kind(42)}}},
		{"negative tunnel", Envelope{Tunnel: -1, Sig: Close()}},
	}
	for _, tc := range cases {
		if _, err := tc.e.AppendBinary(nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: AppendBinary err = %v, want ErrCorrupt class", tc.name, err)
		}
		if err := WriteFrame(io.Discard, tc.e); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: WriteFrame err = %v, want ErrCorrupt class", tc.name, err)
		}
	}
	// And a maximal-but-legal envelope still round-trips.
	ok := Envelope{Sig: Oack(&Descriptor{ID: DescID{Origin: "o", Seq: 1}, Codecs: make([]Codec, MaxCodecs)})}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, ok); err != nil {
		t.Fatalf("maximal legal envelope rejected: %v", err)
	}
	if _, err := NewFrameReader(&buf).ReadFrame(); err != nil {
		t.Fatalf("maximal legal envelope failed to decode: %v", err)
	}
}

// TestWriteFrameZeroAlloc asserts the pooled encode path allocates
// nothing in steady state. Skipped under the race detector, which
// deliberately defeats sync.Pool reuse.
func TestWriteFrameZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool reuse is randomized under -race")
	}
	e := Envelope{Tunnel: 3, Sig: Open(Audio, &Descriptor{
		ID: DescID{Origin: "device", Seq: 7}, Addr: "192.168.1.10", Port: 5004,
		Codecs: []Codec{G711, G726},
	})}
	avg := testing.AllocsPerRun(1000, func() {
		if err := WriteFrame(io.Discard, e); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0.01 {
		t.Errorf("WriteFrame allocates %.2f objects per frame, want 0", avg)
	}
}

// TestAppendBinaryZeroAlloc asserts the caller-buffer encode path is
// allocation-free for tunnel signals.
func TestAppendBinaryZeroAlloc(t *testing.T) {
	e := Envelope{Tunnel: 1, Sig: Describe(&Descriptor{
		ID: DescID{Origin: "device", Seq: 2}, Addr: "10.0.0.9", Port: 4000,
		Codecs: []Codec{G711},
	})}
	buf := make([]byte, 0, 256)
	avg := testing.AllocsPerRun(1000, func() {
		b, err := e.AppendBinary(buf[:0])
		if err != nil || len(b) == 0 {
			t.Fatal(err)
		}
	})
	if avg > 0.01 {
		t.Errorf("AppendBinary allocates %.2f objects per envelope, want 0", avg)
	}
}

// BenchmarkMarshal measures the allocating convenience path.
// BenchmarkMarshal measures the steady-state encode: appending into a
// caller-reused buffer, the path WriteFrame and the model checker's
// fingerprinting run on. allocs/op must report 0.
func BenchmarkMarshal(b *testing.B) {
	e := Envelope{Tunnel: 3, Sig: Open(Audio, &Descriptor{
		ID: DescID{Origin: "device", Seq: 7}, Addr: "192.168.1.10", Port: 5004,
		Codecs: []Codec{G711, G726},
	})}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = e.AppendBinary(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarshalLegacy measures the retired bytes.Buffer encoder,
// kept here as the before side of the BENCH_mc.json comparison.
func BenchmarkMarshalLegacy(b *testing.B) {
	e := Envelope{Tunnel: 3, Sig: Open(Audio, &Descriptor{
		ID: DescID{Origin: "device", Seq: 7}, Addr: "192.168.1.10", Port: 5004,
		Codecs: []Codec{G711, G726},
	})}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if p := legacyMarshal(e); len(p) == 0 {
			b.Fatal("empty payload")
		}
	}
}

// BenchmarkMarshalAlloc measures the convenience Marshal, which
// allocates its result slice per call.
func BenchmarkMarshalAlloc(b *testing.B) {
	e := Envelope{Tunnel: 3, Sig: Open(Audio, &Descriptor{
		ID: DescID{Origin: "device", Seq: 7}, Addr: "192.168.1.10", Port: 5004,
		Codecs: []Codec{G711, G726},
	})}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if p := e.Marshal(); len(p) == 0 {
			b.Fatal("empty payload")
		}
	}
}

// BenchmarkWriteFrame measures the full framed TCP encode path.
func BenchmarkWriteFrame(b *testing.B) {
	e := Envelope{Tunnel: 3, Sig: Open(Audio, &Descriptor{
		ID: DescID{Origin: "device", Seq: 7}, Addr: "192.168.1.10", Port: 5004,
		Codecs: []Codec{G711, G726},
	})}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteFrame(io.Discard, e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameRoundTrip measures encode+decode through a reused
// FrameReader, the transport steady state. The descriptor's names are
// seeded into the intern table, as a box seeds its own, so allocs/op
// counts the framing and decode path rather than first-sight strings.
func BenchmarkFrameRoundTrip(b *testing.B) {
	InternSeed("device", "192.168.1.10")
	e := Envelope{Tunnel: 3, Sig: Open(Audio, &Descriptor{
		ID: DescID{Origin: "device", Seq: 7}, Addr: "192.168.1.10", Port: 5004,
		Codecs: []Codec{G711, G726},
	})}
	var buf bytes.Buffer
	fr := NewFrameReader(&buf)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteFrame(&buf, e); err != nil {
			b.Fatal(err)
		}
		if _, err := fr.ReadFrame(); err != nil {
			b.Fatal(err)
		}
	}
}
