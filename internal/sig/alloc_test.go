// Allocation and aliasing guarantees of the decode path. These tests
// pin the PR's contract: steady-state decoding of envelopes whose
// vocabulary is interned performs zero heap allocations, and decoded
// envelopes never alias the source payload buffer.
package sig

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"
	"unsafe"
)

// TestDecodeZeroAlloc pins the steady-state allocation count of
// UnmarshalEnvelope at zero for both envelope families:
//
//   - tunnel signals with descriptors: strings resolve through the
//     intern table and whole codec lists resolve to shared slices, so
//     nothing is allocated;
//   - meta-signals: the Meta frame and its attr backing array come
//     from the decode pool (recycled by Release), and app names, attr
//     keys, and seeded attr values all intern.
func TestDecodeZeroAlloc(t *testing.T) {
	InternSeed("storm-box", "ctrl", "zero-alloc-app")

	signal := Envelope{Sig: Signal{
		Kind:   KindOpen,
		Medium: Audio,
		Desc: &Descriptor{
			ID:     DescID{Origin: "storm-box", Seq: 7},
			Addr:   "storm-box",
			Port:   4000,
			Codecs: []Codec{G711, G726, NoMedia},
		},
	}}
	meta := Envelope{Meta: &Meta{
		Kind: MetaSetup,
		App:  "zero-alloc-app",
		Attrs: NewAttrs(
			"from", "storm-box",
			"chan", "ctrl",
		),
	}}

	cases := []struct {
		name string
		p    []byte
	}{
		{"signal", signal.Marshal()},
		{"meta", meta.Marshal()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			decode := func() {
				e, err := UnmarshalEnvelope(tc.p)
				if err != nil {
					t.Fatalf("UnmarshalEnvelope: %v", err)
				}
				e.Release()
			}
			// Warm the interner, codec-list table, and meta pool before
			// measuring: the first decode may legitimately learn.
			decode()
			if n := testing.AllocsPerRun(200, decode); n != 0 {
				t.Errorf("UnmarshalEnvelope(%s): %.1f allocs/op, want 0", tc.name, n)
			}
		})
	}
}

// TestEncodeZeroAlloc keeps the symmetric guarantee on the encode
// side: appending either envelope family into a caller-managed buffer
// allocates nothing.
func TestEncodeZeroAlloc(t *testing.T) {
	meta := Envelope{Meta: &Meta{
		Kind:  MetaSetup,
		App:   "zero-alloc-app",
		Attrs: NewAttrs("from", "storm-box", "chan", "ctrl"),
	}}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() {
		var err error
		if _, err = meta.AppendBinary(buf[:0]); err != nil {
			t.Fatalf("AppendBinary: %v", err)
		}
	}); n != 0 {
		t.Errorf("AppendBinary(meta): %.1f allocs/op, want 0", n)
	}
}

// TestReleaseLifetime pins the ownership rules of Release:
//
//   - attr strings read before Release stay valid after it (they are
//     interned or fresh copies, never recycled);
//   - Release is idempotent and a no-op on hand-built envelopes;
//   - a released Meta is recycled into the next decode.
func TestReleaseLifetime(t *testing.T) {
	p := Envelope{Meta: &Meta{
		Kind:  MetaApp,
		App:   "life",
		Attrs: NewAttrs("k", "retained-value"),
	}}.Marshal()

	e, err := UnmarshalEnvelope(p)
	if err != nil {
		t.Fatal(err)
	}
	val := e.Meta.Get("k")
	m := e.Meta
	e.Release()
	if e.Meta != nil {
		t.Error("Release did not clear the Meta pointer")
	}
	e.Release() // idempotent: Meta already nil
	if val != "retained-value" {
		t.Errorf("attr string corrupted after Release: %q", val)
	}
	// The released frame must not look owned anymore.
	if m.pooled {
		t.Error("released Meta still marked pooled")
	}

	hand := Envelope{Meta: &Meta{Kind: MetaTeardown}}
	hand.Release()
	if hand.Meta == nil {
		t.Error("Release recycled a hand-built Meta")
	}
}

// FuzzEnvelopeAliasing drives the borrow-safety contract: decode a
// payload, scribble over the source buffer, and verify the decoded
// envelope is untouched — then release it and verify strings read
// before the release survive subsequent decodes that recycle the
// pooled frame.
func FuzzEnvelopeAliasing(f *testing.F) {
	f.Add(Envelope{Sig: Signal{
		Kind:   KindOpen,
		Medium: Video,
		Desc: &Descriptor{
			ID:     DescID{Origin: "fz", Seq: 1},
			Addr:   "fz:1",
			Port:   9,
			Codecs: []Codec{H263, H264},
		},
	}}.Marshal())
	f.Add(Envelope{Meta: &Meta{
		Kind:  MetaApp,
		App:   "fuzz-app",
		Attrs: NewAttrs("a", "1", "b", "2", "novel-key-xyz", "novel-val-xyz"),
	}, Seq: 3}.Marshal())
	for _, tc := range chanCases() {
		f.Add(tc.e.Marshal())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p := append([]byte(nil), data...)
		e, err := UnmarshalEnvelope(p)
		if err != nil {
			return
		}
		// Canonical image of the envelope before the buffer dies.
		before, err := e.AppendBinary(nil)
		if err != nil {
			t.Fatalf("decoded envelope not re-encodable: %v", err)
		}
		var app, key, val string
		if e.IsMeta() {
			app = e.Meta.App
			if e.Meta.Len() > 0 {
				key = e.Meta.Attrs[0].Key
				val = e.Meta.Attrs[0].Val
			}
		}

		// Scribble the source buffer: a decoded envelope must not alias it.
		for i := range p {
			p[i] ^= 0xFF
		}
		after, err := e.AppendBinary(nil)
		if err != nil {
			t.Fatalf("re-encode after scribble: %v", err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("envelope aliases source buffer:\n before %x\n after  %x", before, after)
		}

		// Strings read before Release stay valid after the pooled frame
		// is recycled into fresh decodes.
		e.Release()
		for i := 0; i < 4; i++ {
			churn := Envelope{Meta: &Meta{
				Kind:  MetaApp,
				App:   "churn",
				Attrs: NewAttrs("x", "y"),
			}}.Marshal()
			ce, err := UnmarshalEnvelope(churn)
			if err != nil {
				t.Fatal(err)
			}
			ce.Release()
		}
		if e.IsMeta() {
			t.Fatalf("Release left Meta attached")
		}
		if app != "" || key != "" || val != "" {
			// Values were captured from a meta envelope; re-decode the
			// scribbled-back original and compare.
			for i := range p {
				p[i] ^= 0xFF
			}
			e2, err := UnmarshalEnvelope(p)
			if err != nil {
				t.Fatalf("re-decode of valid payload failed: %v", err)
			}
			if e2.IsMeta() {
				if e2.Meta.App != app {
					t.Fatalf("retained app corrupted: %q vs %q", app, e2.Meta.App)
				}
				if key != "" && e2.Meta.Get(key) != val {
					t.Fatalf("retained attr corrupted: %q=%q vs %q", key, val, e2.Meta.Get(key))
				}
			}
			e2.Release()
		}
	})
}

// TestInternGrowthLinear fills a table to its capacity of 8 192 strings
// and holds the garbage that costs to O(n): the doublings and one
// string header per add, under 64 B a string in all. (Copying the whole
// table on every add, as a copy-on-write map did, is O(n²): 2.3 GB
// here.) Past capacity adds are refused, and every string
// resolves to its canonical copy by bytes, or is added again, without
// allocating.
func TestInternGrowthLinear(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats allocation accounting")
	}
	const n, perString = 8192, 64
	ss := make([]string, n+1)
	for i := range ss {
		ss[i] = "deployment-name-" + strconv.Itoa(i)
	}
	tab := NewIntern(n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, s := range ss[:n] {
		tab.Add(s)
	}
	runtime.ReadMemStats(&m1)
	by := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("interning %d strings: %d B (%.1f B a string)", n, by, float64(by)/n)
	if by > n*perString {
		t.Fatalf("interning %d strings allocated %d B, budget %d B", n, by, n*perString)
	}
	if tab.Len() != n {
		t.Fatalf("table holds %d strings, want %d", tab.Len(), n)
	}
	if tab.Add(ss[n]); tab.Len() != n {
		t.Fatalf("an add past capacity was taken: %d strings", tab.Len())
	}
	for _, s := range ss[:n] {
		b := []byte(s)
		c, ok := tab.Lookup(b)
		if !ok || c != s || unsafe.StringData(c) != unsafe.StringData(s) {
			t.Fatalf("%q resolved to %q (ok=%v), not its canonical copy", s, c, ok)
		}
		if a := testing.AllocsPerRun(1, func() { tab.Lookup(b); tab.Add(s) }); a != 0 {
			t.Fatalf("looking %q up or adding it again allocated %.0f times", s, a)
		}
	}
	if _, ok := tab.Lookup([]byte(ss[n])); ok {
		t.Fatalf("%q was refused but resolves", ss[n])
	}
}
