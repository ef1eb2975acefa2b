package store

import (
	"testing"
	"time"
)

func openBench(b *testing.B, opts Options) *Store {
	b.Helper()
	if opts.FsyncInterval == 0 {
		opts.FsyncInterval = time.Millisecond
	}
	st, err := Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	return st
}

// BenchmarkStoreLookupCached is the production hot path: the setup-time
// registry lookup. The claim gated by TestStoreZeroAlloc is 0
// allocs/op.
func BenchmarkStoreLookupCached(b *testing.B) {
	st := openBench(b, Options{})
	if err := st.PutProfile(Profile{Name: "dev-1", Features: []string{"cf"}}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.Lookup("dev-1"); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkStoreAppendCDR measures the write-heavy CDR workload (the
// in-memory accept; durability is group-committed off-path). The claim
// gated by TestStoreZeroAlloc is at most 1 alloc/op.
func BenchmarkStoreAppendCDR(b *testing.B) {
	st := openBench(b, Options{})
	c := CDR{Local: "dev-1", Peer: "dev-2", Channel: "ch0", SetupNS: 1, TornNS: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.AppendCDR(c); !ok {
			b.Fatal("append refused")
		}
	}
}

// TestStoreZeroAlloc is the CI alloc-gate for the paths the live
// runtime rides on every call: the disabled (nil-store) path and the
// registry lookup must be allocation-free so wiring the store into
// setup cannot regress the runtime's own 0 allocs/op dispatch gate,
// and the teardown-time CDR append may cost at most 1 alloc/op.
func TestStoreZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}

	t.Run("disabled path", func(t *testing.T) {
		var st *Store
		b := (*Binder)(nil)
		if a := testing.AllocsPerRun(1000, func() {
			st.Lookup("dev-1")
			st.AppendCDR(CDR{Local: "a", Peer: "b", Channel: "c"})
			b.ChannelSetup("a", "b", "c")
			b.ChannelTeardown("a", "b", "c", time.Time{})
		}); a != 0 {
			t.Fatalf("disabled path allocates %.1f allocs/op, want 0", a)
		}
	})

	t.Run("unbound binder", func(t *testing.T) {
		b := NewBinder(nil)
		if a := testing.AllocsPerRun(1000, func() {
			b.ChannelSetup("a", "b", "c")
			b.ChannelTeardown("a", "b", "c", time.Time{})
		}); a != 0 {
			t.Fatalf("unbound binder allocates %.1f allocs/op, want 0", a)
		}
	})

	t.Run("cached lookup", func(t *testing.T) {
		st, err := Open(t.TempDir(), Options{FsyncInterval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if err := st.PutProfile(Profile{Name: "dev-1", Features: []string{"cf"}}); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(1000, func() {
			if _, ok := st.Lookup("dev-1"); !ok {
				t.Fatal("miss")
			}
		}); a != 0 {
			t.Fatalf("cached lookup allocates %.1f allocs/op, want 0", a)
		}
	})

	t.Run("append CDR", func(t *testing.T) {
		st, err := Open(t.TempDir(), Options{FsyncInterval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		c := CDR{Local: "dev-1", Peer: "dev-2", Channel: "ch0", SetupNS: 1, TornNS: 2}
		// Warm up the record buffer and the WAL's batch buffers.
		for i := 0; i < 1000; i++ {
			st.AppendCDR(c)
		}
		if a := testing.AllocsPerRun(1000, func() {
			if _, ok := st.AppendCDR(c); !ok {
				t.Fatal("append refused")
			}
		}); a > 1 {
			t.Fatalf("AppendCDR allocates %.1f allocs/op, want <= 1", a)
		}
	})
}
