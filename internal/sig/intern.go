// String and descriptor interning for the decode path. The protocol's
// vocabularies are closed in practice — codec and medium names come
// from a fixed set, attr keys from a handful of protocol constants, and
// box, channel, and address names from the deployment's bounded
// population (cf. the bounded, statically-known label vocabularies of
// flow-network DSLs) — and so are its descriptors: an endpoint issues
// one per content change and every hop forwards it unchanged.
// Interning resolves decoded bytes to canonical shared values, so
// steady-state decoding allocates nothing for a string or a descriptor
// it has seen before.
//
// A table is open addressing over atomic slots, behind an atomic
// pointer: reads (the hot path, every decoded string and descriptor)
// are lock-free and allocate nothing; writes (one per novel key,
// bounded by the table capacity) fill a slot under a mutex, and double
// the table once it is half full, so adding n keys costs O(n) time and
// garbage in all. Capacity bounds adversarial growth: once full, novel
// keys simply decode as fresh allocations, the pre-interning behavior.
package sig

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// entry is one element of a table: the key it is found by and the
// canonical value stored under it. An entry, once published, is never
// written again.
type entry[V any] struct {
	val V // first, so a zero-size V adds no trailing padding
	key string
}

// table is a bounded key→entry table with lock-free lookups.
type table[V any] struct {
	capacity int
	seed     maphash.Seed
	slots    atomic.Pointer[slots[V]]
	mu       sync.Mutex // serializes adds
	n        int        // entries held; guarded by mu
}

// slots is a power-of-two array probed linearly from a key's hash. A
// slot, once filled, never changes; an array, once replaced by its
// doubling, is never written again.
type slots[V any] struct {
	s []atomic.Pointer[entry[V]]
}

// minSlots is a new table's size: a table starts small, since most
// processes intern a few dozen keys, not the capacity.
const minSlots = 64

func newTable[V any](capacity int) *table[V] {
	t := &table[V]{capacity: capacity, seed: maphash.MakeSeed()}
	t.slots.Store(&slots[V]{s: make([]atomic.Pointer[entry[V]], minSlots)})
	return t
}

// find returns the entry of key k if tab holds it. It is generic so
// that a lookup by bytes compares in place, without making a string.
func find[V any, S string | []byte](tab *slots[V], h uint64, k S) *entry[V] {
	mask := uint64(len(tab.s) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := tab.s[i].Load()
		if e == nil || e.key == string(k) {
			return e
		}
	}
}

// put stores e in the first free slot of its probe sequence. Adds
// only; e's key is not in tab.
func (tab *slots[V]) put(h uint64, e *entry[V]) {
	mask := uint64(len(tab.s) - 1)
	i := h & mask
	for tab.s[i].Load() != nil {
		i = (i + 1) & mask
	}
	tab.s[i].Store(e)
}

// lookup returns b's entry, or nil. It never allocates.
func (t *table[V]) lookup(b []byte) *entry[V] {
	return find(t.slots.Load(), maphash.Bytes(t.seed, b), b)
}

// lookupString is lookup for a key held as a string.
func (t *table[V]) lookupString(s string) *entry[V] {
	return find(t.slots.Load(), maphash.String(t.seed, s), s)
}

// add stores val under key unless the key is present, and returns the
// entry that holds the key; past capacity it stores nothing and returns
// nil.
func (t *table[V]) add(key string, val V) *entry[V] {
	h := maphash.String(t.seed, key)
	if e := find(t.slots.Load(), h, key); e != nil {
		return e
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tab := t.slots.Load()
	if e := find(tab, h, key); e != nil {
		return e
	}
	if t.n >= t.capacity {
		return nil
	}
	if 2*(t.n+1) > len(tab.s) {
		next := &slots[V]{s: make([]atomic.Pointer[entry[V]], 2*len(tab.s))}
		for i := range tab.s {
			if e := tab.s[i].Load(); e != nil {
				next.put(maphash.String(t.seed, e.key), e)
			}
		}
		t.slots.Store(next)
		tab = next
	}
	e := &entry[V]{val: val, key: key}
	tab.put(h, e)
	t.n++
	return e
}

// len reports the number of entries held.
func (t *table[V]) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Intern is a bounded bytes→canonical-string table with lock-free
// lookups. The zero value is unusable; use NewIntern.
type Intern struct {
	t *table[struct{}]
}

// NewIntern creates a table holding at most capacity strings.
func NewIntern(capacity int) *Intern {
	return &Intern{t: newTable[struct{}](capacity)}
}

// Lookup resolves b to its canonical string if interned. It never
// allocates.
func (t *Intern) Lookup(b []byte) (string, bool) {
	if e := t.t.lookup(b); e != nil {
		return e.key, true
	}
	return "", false
}

// LookupString is Lookup for an existing string: it returns the
// canonical copy if interned, else s itself.
func (t *Intern) LookupString(s string) string {
	if e := t.t.lookupString(s); e != nil {
		return e.key
	}
	return s
}

// Add interns s (bounded: past capacity it is a no-op) and returns the
// canonical copy.
func (t *Intern) Add(s string) string {
	if e := t.t.add(s, struct{}{}); e != nil {
		return e.key
	}
	return s
}

// intern resolves decoded bytes: the canonical string when interned,
// a fresh copy otherwise. learn additionally interns fresh strings
// (used for closed vocabularies like attr keys and app names, where
// auto-learning converges; open-ended values are lookup-only so a
// churning value space cannot squat the table).
func (t *Intern) intern(b []byte, learn bool) string {
	if s, ok := t.Lookup(b); ok {
		return s
	}
	s := string(b)
	if learn {
		return t.Add(s)
	}
	return s
}

// Len reports the number of interned strings.
func (t *Intern) Len() int { return t.t.len() }

// defaultIntern is the process-wide table used by the decoders,
// pre-seeded with every protocol constant. Runtimes extend it with
// their deployment vocabulary (box names, channel names, addresses)
// via InternSeed.
var defaultIntern = func() *Intern {
	t := NewIntern(8192)
	for _, s := range []string{
		"",
		string(Audio), string(Video),
		string(G711), string(G726), string(G729),
		string(H263), string(H264), string(NoMedia),
		// Well-known meta attr keys and app names.
		"from", "chan", "id", "ack",
		"movie", "pos", "mix", "out", "in",
	} {
		t.Add(s)
	}
	return t
}()

// InternSeed interns deployment vocabulary — box names, channel names,
// dial addresses, app names — into the decoder's table, so envelopes
// naming them decode without allocating. The table is bounded
// (capacity 8192); past that, seeds are dropped and the strings simply
// decode as fresh allocations.
func InternSeed(ss ...string) {
	for _, s := range ss {
		defaultIntern.Add(s)
	}
}

// Interned returns the canonical interned copy of s if present, else s.
func Interned(s string) string { return defaultIntern.LookupString(s) }

// descriptors holds every descriptor decoded so far, keyed by its wire
// encoding, up to descriptorCap of them: the decoder resolves a
// descriptor it has seen before to the one shared record, and
// NoMediaDescriptor resolves an origin's noMedia descriptor the same
// way. Its capacity covers a deployment's endpoints several times over,
// since an endpoint issues a new descriptor only when its content
// changes.
var descriptors = newTable[Descriptor](descriptorCap)

// descriptorCap bounds how many descriptors the table holds, and
// maxDescriptorKey the encoding of one it learns: a real descriptor is a
// few dozen bytes, so a peer sending oversized ones cannot make the
// table pin megabytes.
const (
	descriptorCap    = 8192
	maxDescriptorKey = 512
)

// internDescriptor returns t's shared descriptor whose encoding is
// wire, building and learning it on first sight. wire must be a whole,
// bounds-checked descriptor encoding (decodeDescriptor checks it). The
// result does not alias wire.
func internDescriptor(t *table[Descriptor], wire []byte) *Descriptor {
	if e := t.lookup(wire); e != nil {
		return &e.val
	}
	key := string(wire)
	d := parseDescriptor(key)
	if len(key) <= maxDescriptorKey {
		if e := t.add(key, d); e != nil {
			return &e.val
		}
	}
	p := new(Descriptor) // oversized, or the table is full: unshared
	*p = d
	return p
}

// parseDescriptor builds the descriptor whose encoding is key. Its
// strings are substrings of key, so a new descriptor costs its key, its
// codec list and its table entry.
func parseDescriptor(key string) Descriptor {
	off := 0
	u32 := func() uint32 {
		v := uint32(key[off])<<24 | uint32(key[off+1])<<16 | uint32(key[off+2])<<8 | uint32(key[off+3])
		off += 4
		return v
	}
	str := func() string {
		n := int(key[off])<<8 | int(key[off+1])
		off += 2 + n
		return key[off-n : off]
	}
	var d Descriptor
	d.ID.Origin = str()
	d.ID.Seq = u32()
	d.Addr = str()
	d.Port = int(u32())
	if n := u32(); n > 0 {
		d.Codecs = make([]Codec, n)
		for i := range d.Codecs {
			d.Codecs[i] = Codec(str())
		}
	}
	return d
}
