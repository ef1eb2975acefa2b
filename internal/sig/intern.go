// String interning for the decode path. The protocol's vocabularies
// are closed in practice — codec and medium names come from a fixed
// set, attr keys from a handful of protocol constants, and box,
// channel, and address names from the deployment's bounded population
// (cf. the bounded, statically-known label vocabularies of
// flow-network DSLs). Interning resolves decoded bytes to canonical
// shared strings, so steady-state decoding allocates nothing for a
// string it has seen before.
//
// The table is open addressing over atomic slots, behind an atomic
// pointer: reads (the hot path, every decoded string) are lock-free and
// allocate nothing; writes (one per novel string, bounded by the table
// capacity) fill a slot under a mutex, and double the table once it is
// half full, so adding n strings costs O(n) time and garbage in all.
// Capacity bounds adversarial growth: once full, novel strings simply
// decode as fresh allocations, the pre-interning behavior.
package sig

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Intern is a bounded bytes→canonical-string table with lock-free
// lookups. The zero value is unusable; use NewIntern.
type Intern struct {
	capacity int
	seed     maphash.Seed
	table    atomic.Pointer[internTable]
	mu       sync.Mutex // serializes adds
	n        int        // strings interned; guarded by mu
}

// internTable is a power-of-two array of slots probed linearly from a
// string's hash. A slot, once filled, never changes; a table, once
// replaced by its doubling, is never written again.
type internTable struct {
	slots []atomic.Pointer[string]
}

// internMinSlots is a new table's size: a table starts small, since
// most processes intern a few dozen strings, not the capacity.
const internMinSlots = 64

// NewIntern creates a table holding at most capacity strings.
func NewIntern(capacity int) *Intern {
	t := &Intern{capacity: capacity, seed: maphash.MakeSeed()}
	t.table.Store(&internTable{slots: make([]atomic.Pointer[string], internMinSlots)})
	return t
}

// find returns s's canonical copy if tab holds it. It is generic so
// that a lookup by bytes compares in place, without making a string.
func find[S string | []byte](tab *internTable, h uint64, s S) (string, bool) {
	mask := uint64(len(tab.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		c := tab.slots[i].Load()
		if c == nil {
			return "", false
		}
		if *c == string(s) {
			return *c, true
		}
	}
}

// put stores c in the first free slot of its probe sequence. Adds
// only; c is not in tab.
func (tab *internTable) put(h uint64, c *string) {
	mask := uint64(len(tab.slots) - 1)
	i := h & mask
	for tab.slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	tab.slots[i].Store(c)
}

// Lookup resolves b to its canonical string if interned. It never
// allocates.
func (t *Intern) Lookup(b []byte) (string, bool) {
	return find(t.table.Load(), maphash.Bytes(t.seed, b), b)
}

// LookupString is Lookup for an existing string: it returns the
// canonical copy if interned, else s itself.
func (t *Intern) LookupString(s string) string {
	if c, ok := find(t.table.Load(), maphash.String(t.seed, s), s); ok {
		return c
	}
	return s
}

// Add interns s (bounded: past capacity it is a no-op) and returns the
// canonical copy.
func (t *Intern) Add(s string) string {
	h := maphash.String(t.seed, s)
	if c, ok := find(t.table.Load(), h, s); ok {
		return c
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tab := t.table.Load()
	if c, ok := find(tab, h, s); ok {
		return c
	}
	if t.n >= t.capacity {
		return s
	}
	if 2*(t.n+1) > len(tab.slots) {
		next := &internTable{slots: make([]atomic.Pointer[string], 2*len(tab.slots))}
		for i := range tab.slots {
			if c := tab.slots[i].Load(); c != nil {
				next.put(maphash.String(t.seed, *c), c)
			}
		}
		t.table.Store(next)
		tab = next
	}
	c := s // only an insert moves a string header to the heap
	tab.put(h, &c)
	t.n++
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
func (t *Intern) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

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

// codecLists interns whole decoded codec lists, keyed by their wire
// encoding: descriptors carry one of a handful of priority lists, so
// decode resolves the encoded region to one shared immutable slice
// instead of allocating a fresh []Codec (plus strings) per descriptor.
type codecListIntern struct {
	table atomic.Pointer[map[string][]Codec]
	mu    sync.Mutex
}

const codecListCap = 256

var codecLists = func() *codecListIntern {
	t := &codecListIntern{}
	m := make(map[string][]Codec)
	t.table.Store(&m)
	return t
}()

// add learns a freshly parsed codec list under its wire region
// (bounded; past capacity the list stays unshared). It returns the
// canonical slice: callers must treat decoded Codecs as immutable
// (they always have — descriptors are values passed around by copy).
func (t *codecListIntern) add(region []byte, cs []Codec) []Codec {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := *t.table.Load()
	if have, ok := old[string(region)]; ok {
		return have
	}
	if len(old) >= codecListCap {
		return cs
	}
	next := make(map[string][]Codec, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[string(region)] = cs
	t.table.Store(&next)
	return cs
}
