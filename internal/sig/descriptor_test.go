// The descriptor table's guarantees: a descriptor seen before decodes
// to the one shared record without allocating, filling the table costs
// O(n), and decoding new descriptors never disturbs readers of the
// shared ones.
package sig

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestDecodeDescriptorZeroAlloc decodes the same descriptor bytes again
// and again: every decode after the first yields the first one's
// pointer at zero allocations, and an application server's noMedia
// descriptor is the record its own encoding decodes to.
func TestDecodeDescriptorZeroAlloc(t *testing.T) {
	d := &Descriptor{ID: DescID{Origin: "zero-alloc-dev", Seq: 3}, Addr: "10.1.2.3", Port: 4000, Codecs: []Codec{G711, G726}}
	p := Envelope{Tunnel: 1, Sig: Describe(d)}.Marshal()
	decode := func() *Descriptor {
		e, err := UnmarshalEnvelope(p)
		if err != nil {
			t.Fatal(err)
		}
		return e.Sig.Desc
	}
	first := decode()
	if first == d || !first.Equal(d) {
		t.Fatalf("decoded %v, want a shared copy of %v", first, d)
	}
	var again *Descriptor
	if n := testing.AllocsPerRun(200, func() { again = decode() }); n != 0 {
		t.Errorf("decoding a descriptor seen before: %.1f allocs/op, want 0", n)
	}
	if again != first {
		t.Errorf("the same bytes decoded to %p, then %p", first, again)
	}

	id := DescID{Origin: "zero-alloc-srv", Seq: 1}
	nm := NoMediaDescriptor(id)
	if n := testing.AllocsPerRun(200, func() { again = NoMediaDescriptor(id) }); n != 0 {
		t.Errorf("NoMediaDescriptor: %.1f allocs/op, want 0", n)
	}
	if again != nm {
		t.Errorf("NoMediaDescriptor(%v) returned %p, then %p", id, nm, again)
	}
	e, err := UnmarshalEnvelope(Envelope{Sig: Oack(nm)}.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if e.Sig.Desc != nm {
		t.Errorf("%v decoded to a record of its own", nm)
	}
}

// TestDescriptorTableGrowthLinear fills a table to its capacity of
// 8 192 descriptors and holds the garbage that costs to O(n): per
// descriptor its key, its entry and its codec list, plus the doublings,
// under 256 B a descriptor in all. (Copying the table on every add, as
// the copy-on-write codec-list map it replaces did, is O(n²).) Past
// capacity, or past maxDescriptorKey bytes, a descriptor still decodes,
// unshared; every one held resolves to its record by bytes without
// allocating.
func TestDescriptorTableGrowthLinear(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats allocation accounting")
	}
	const n, perDesc = 8192, 256
	wires := make([][]byte, n+1)
	for i := range wires {
		d := &Descriptor{ID: DescID{Origin: "dev-" + strconv.Itoa(i), Seq: 1}, Addr: "10.9.0.1", Port: 30000 + i, Codecs: []Codec{G711, G726}}
		wires[i] = AppendDescriptor(nil, d)
	}
	tab := newTable[Descriptor](n)
	held := make([]*Descriptor, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, w := range wires[:n] {
		held[i] = internDescriptor(tab, w)
	}
	runtime.ReadMemStats(&m1)
	by := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("interning %d descriptors: %d B (%.1f B a descriptor)", n, by, float64(by)/n)
	if by > n*perDesc {
		t.Fatalf("interning %d descriptors allocated %d B, budget %d B", n, by, n*perDesc)
	}
	if tab.len() != n {
		t.Fatalf("table holds %d descriptors, want %d", tab.len(), n)
	}
	past := internDescriptor(tab, wires[n])
	if tab.len() != n || internDescriptor(tab, wires[n]) == past {
		t.Fatalf("a descriptor past capacity was taken: %d held", tab.len())
	}
	if want := "dev-" + strconv.Itoa(n); past.ID.Origin != want {
		t.Fatalf("the descriptor past capacity decoded as %v", past)
	}
	huge := AppendDescriptor(nil, &Descriptor{Addr: strings.Repeat("a", maxDescriptorKey)})
	fresh := newTable[Descriptor](n)
	if d := internDescriptor(fresh, huge); d == internDescriptor(fresh, huge) || fresh.len() != 0 || len(d.Addr) != maxDescriptorKey {
		t.Fatalf("an oversized descriptor was shared, or decoded as %v", d)
	}
	for i, w := range wires[:n] {
		var got *Descriptor
		if a := testing.AllocsPerRun(1, func() { got = internDescriptor(tab, w) }); a != 0 {
			t.Fatalf("resolving descriptor %d again allocated %.0f times", i, a)
		}
		if got != held[i] {
			t.Fatalf("descriptor %d resolved to %v, not its record %v", i, got, held[i])
		}
	}
}

// TestDescriptorSharingRace decodes a stream of new descriptors — the
// table learning and doubling — on one goroutine while others decode
// known ones and read the shared records. Run under -race, it holds
// that nothing writes a record after publishing it.
func TestDescriptorSharingRace(t *testing.T) {
	known := &Descriptor{ID: DescID{Origin: "race-known", Seq: 1}, Addr: "10.0.0.7", Port: 7000, Codecs: []Codec{G711, G726, G729}}
	kp := Envelope{Sig: Oack(known)}.Marshal()
	shared := decodeDesc(t, kp)

	const novel, readers = 2000, 3
	var wg sync.WaitGroup
	wg.Add(1 + readers)
	go func() {
		defer wg.Done()
		for i := 0; i < novel; i++ {
			d := &Descriptor{ID: DescID{Origin: "race-new-" + strconv.Itoa(i), Seq: 1}, Addr: "10.0.0.8", Port: i, Codecs: []Codec{G711}}
			if got := decodeDesc(t, Envelope{Sig: Describe(d)}.Marshal()); !got.Equal(d) {
				t.Errorf("decoded %v, want %v", got, d)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		go func() {
			defer wg.Done()
			for i := 0; i < novel; i++ {
				d := decodeDesc(t, kp)
				if d != shared || !shared.Equal(known) || shared.Codecs[2] != G729 || shared.NoMedia() {
					t.Errorf("the shared descriptor read %v (%p), want %v (%p)", d, d, known, shared)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func decodeDesc(t *testing.T, p []byte) *Descriptor {
	e, err := UnmarshalEnvelope(p)
	if err != nil {
		t.Error(err)
		return nil
	}
	return e.Sig.Desc
}
