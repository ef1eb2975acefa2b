package store

import (
	"fmt"
	"os"
	"testing"
	"time"

	"ipmedia/internal/telemetry"
)

func openAppend(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	if opts.FsyncInterval == 0 {
		opts.FsyncInterval = time.Millisecond
	}
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return st
}

func TestStoreProfileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{})
	want := Profile{Name: "alice", Features: []string{"cf", "prepaid"}}
	if err := st.PutProfile(want); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Lookup("alice")
	if !ok || got.Name != "alice" || len(got.Features) != 2 {
		t.Fatalf("Lookup = %+v, %v", got, ok)
	}
	if st.Profiles() != 1 {
		t.Fatalf("Profiles = %d", st.Profiles())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the profile must survive via WAL replay.
	st2 := openTest(t, dir, Options{})
	defer st2.Close()
	got, ok = st2.Lookup("alice")
	if !ok || got.Name != "alice" || len(got.Features) != 2 ||
		got.Features[0] != "cf" || got.Features[1] != "prepaid" {
		t.Fatalf("after reopen: Lookup = %+v, %v", got, ok)
	}
	if rs := st2.Recovery(); rs.Records != 1 || rs.Truncated != 0 {
		t.Fatalf("Recovery = %+v", rs)
	}
}

// TestStoreLookupMissDegraded pins the defined degraded behavior for
// unknown subscribers: the default (featureless) profile, ok=false,
// and a store.lookup_miss count — never a failure.
func TestStoreLookupMissDegraded(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)

	st := openTest(t, t.TempDir(), Options{})
	defer st.Close()
	st.PutProfile(Profile{Name: "known"})

	missBefore := reg.Counter(MetricLookupMiss).Value()
	lookBefore := reg.Counter(MetricLookups).Value()

	p, ok := st.Lookup("ghost")
	if ok {
		t.Fatal("Lookup(ghost) reported a hit")
	}
	if p.Name != "ghost" || len(p.Features) != 0 {
		t.Fatalf("degraded profile = %+v, want bare default", p)
	}
	if _, ok := st.Lookup("known"); !ok {
		t.Fatal("Lookup(known) missed")
	}

	if got := reg.Counter(MetricLookupMiss).Value() - missBefore; got != 1 {
		t.Fatalf("lookup_miss delta = %d, want 1", got)
	}
	if got := reg.Counter(MetricLookups).Value() - lookBefore; got != 2 {
		t.Fatalf("lookups delta = %d, want 2", got)
	}

	// The nil store degrades the same way.
	var nilStore *Store
	p, ok = nilStore.Lookup("anyone")
	if ok || p.Name != "anyone" {
		t.Fatalf("nil store Lookup = %+v, %v", p, ok)
	}
}

func TestStoreDebitIdempotence(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{})
	if err := st.SetBalance("alice", 500); err != nil {
		t.Fatal(err)
	}

	tok := st.NextToken("alice")
	bal, applied := st.Debit("alice", 120, tok)
	if !applied || bal != 380 {
		t.Fatalf("first debit: bal=%d applied=%v", bal, applied)
	}
	// The same token again — the crashed-client retry — must not apply.
	bal, applied = st.Debit("alice", 120, tok)
	if applied || bal != 380 {
		t.Fatalf("retried debit: bal=%d applied=%v", bal, applied)
	}
	// Overdraw does not apply.
	bal, applied = st.Debit("alice", 1000, st.NextToken("alice"))
	if applied || bal != 380 {
		t.Fatalf("overdraw: bal=%d applied=%v", bal, applied)
	}
	// Credit then spend.
	bal, applied = st.Credit("alice", 20, st.NextToken("alice"))
	if !applied || bal != 400 {
		t.Fatalf("credit: bal=%d applied=%v", bal, applied)
	}
	st.Close()

	// Balance and token watermark survive recovery: re-issuing the old
	// token after reopen still does not double-debit.
	st2 := openTest(t, dir, Options{})
	defer st2.Close()
	if bal, ok := st2.Balance("alice"); !ok || bal != 400 {
		t.Fatalf("after reopen: bal=%d ok=%v", bal, ok)
	}
	if bal, applied := st2.Debit("alice", 120, tok); applied || bal != 400 {
		t.Fatalf("replayed-token debit after reopen: bal=%d applied=%v", bal, applied)
	}
	if st2.NextToken("alice") <= tok {
		t.Fatalf("NextToken did not advance past %d", tok)
	}
}

// TestSyncSeesDurableCount: once Sync returns, DurableCDRs counts every
// CDR appended before it — the per-record durability callbacks have
// run by the time the watermark that releases Sync moves.
func TestSyncSeesDurableCount(t *testing.T) {
	st := openTest(t, t.TempDir(), Options{FsyncInterval: 50 * time.Microsecond})
	defer st.Close()
	const perRound = 25
	for round := 1; round <= 200; round++ {
		for i := 0; i < perRound; i++ {
			if _, ok := st.AppendCDR(CDR{Local: "a", Peer: "b", Channel: "c"}); !ok {
				t.Fatalf("round %d: AppendCDR %d failed", round, i)
			}
		}
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		if got, want := st.DurableCDRs(), uint64(round*perRound); got != want {
			t.Fatalf("round %d: Sync returned with %d of %d CDRs counted durable", round, got, want)
		}
	}
}

// TestStoreCDRAcknowledgedSurvivesCrash: once Sync returns, a power cut
// loses no acknowledged CDR. Recovery lands on at least the durable
// count — exactly on it when nothing was appended after the Sync —
// restores every loaded profile, every lookup hits before and after,
// and sequence numbers continue past the recovered end. The second
// case is a log of the live shape: a 500-profile registry and 5 000
// CDRs across several group commits.
func TestStoreCDRAcknowledgedSurvivesCrash(t *testing.T) {
	for _, tc := range []struct{ profiles, cdrs, late int }{
		{profiles: 0, cdrs: 10, late: 2},
		{profiles: 500, cdrs: 5000},
	} {
		t.Run(fmt.Sprintf("profiles=%d,cdrs=%d", tc.profiles, tc.cdrs), func(t *testing.T) {
			dir := t.TempDir()
			st := openTest(t, dir, Options{})
			lookupAll := func(st *Store, when string) {
				for i := 0; i < tc.profiles; i++ {
					if _, ok := st.Lookup(fmt.Sprint("sub-", i)); !ok {
						t.Fatalf("%s: Lookup(sub-%d) missed a loaded profile", when, i)
					}
				}
			}
			for i := 0; i < tc.profiles; i++ {
				if err := st.PutProfile(Profile{Name: fmt.Sprint("sub-", i), Features: []string{"cf", "prepaid"}}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < tc.cdrs; i++ {
				if _, ok := st.AppendCDR(CDR{Local: "a", Peer: "b", Channel: fmt.Sprint(i)}); !ok {
					t.Fatalf("AppendCDR %d failed", i)
				}
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			acked := st.DurableCDRs()
			if acked != uint64(tc.cdrs) {
				t.Fatalf("DurableCDRs = %d, want %d", acked, tc.cdrs)
			}
			lookupAll(st, "before the crash")
			// More appends, never synced, then the power goes out.
			for i := 0; i < tc.late; i++ {
				st.AppendCDR(CDR{Local: "a", Peer: "b", Channel: fmt.Sprint("late-", i)})
			}
			st.Crash()

			st2 := openTest(t, dir, Options{})
			defer st2.Close()
			if got := uint64(st2.CDRCount()); got < acked || (tc.late == 0 && got != acked) {
				t.Fatalf("recovered %d CDRs, %d acknowledged durable and %d appended after", got, acked, tc.late)
			}
			if got := st2.Profiles(); got != tc.profiles {
				t.Fatalf("recovered %d profiles, loaded %d", got, tc.profiles)
			}
			lookupAll(st2, "after recovery")
			// Sequence numbers continue past the recovered end without collision.
			seq, ok := st2.AppendCDR(CDR{Local: "a", Peer: "b", Channel: "post"})
			if !ok || seq != uint64(st2.CDRCount()) {
				t.Fatalf("post-recovery seq=%d count=%d", seq, st2.CDRCount())
			}
			var seqs []uint64
			st2.EachCDR(func(c CDR) bool { seqs = append(seqs, c.Seq); return true })
			for i, s := range seqs {
				if s != uint64(i+1) {
					t.Fatalf("CDR sequence gap at %d: %v", i, seqs[max(i-3, 0):i+1])
				}
			}
		})
	}
}

// TestStoreRecoveryIdempotent opens the same log twice (read-only
// semantics: close without writes) and checks the recovered states
// match — replay is deterministic.
func TestStoreRecoveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{})
	st.PutProfile(Profile{Name: "alice", Features: []string{"cf"}})
	st.PutProfile(Profile{Name: "bob"})
	st.PutProfile(Profile{Name: "alice", Features: []string{"cfb"}}) // overwrite
	st.SetBalance("alice", 300)
	st.Debit("alice", 100, st.NextToken("alice"))
	st.AppendCDR(CDR{Local: "x", Peer: "y", Channel: "ch"})
	st.Close()

	snapshot := func() (int, int, int64, []string) {
		s := openTest(t, dir, Options{})
		defer s.Close()
		bal, _ := s.Balance("alice")
		p, _ := s.Lookup("alice")
		return s.Profiles(), s.CDRCount(), bal, p.Features
	}
	p1, c1, b1, f1 := snapshot()
	p2, c2, b2, f2 := snapshot()
	if p1 != p2 || c1 != c2 || b1 != b2 || fmt.Sprint(f1) != fmt.Sprint(f2) {
		t.Fatalf("recovery not idempotent: (%d,%d,%d,%v) vs (%d,%d,%d,%v)",
			p1, c1, b1, f1, p2, c2, b2, f2)
	}
	if p1 != 2 || c1 != 1 || b1 != 200 || fmt.Sprint(f1) != "[cfb]" {
		t.Fatalf("recovered state wrong: %d profiles, %d cdrs, bal %d, feats %v", p1, c1, b1, f1)
	}
}

func TestStoreNilSafety(t *testing.T) {
	var st *Store
	if err := st.PutProfile(Profile{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.AppendCDR(CDR{}); ok {
		t.Fatal("nil AppendCDR reported ok")
	}
	if bal, applied := st.Debit("x", 1, 1); bal != 0 || applied {
		t.Fatal("nil Debit applied")
	}
	if st.NextToken("x") != 1 {
		t.Fatal("nil NextToken != 1")
	}
	if st.Profiles() != 0 || st.CDRCount() != 0 || st.DurableCDRs() != 0 {
		t.Fatal("nil counts nonzero")
	}
	st.EachCDR(func(CDR) bool { t.Fatal("nil EachCDR visited"); return false })
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st.Crash()

	var b *Binder
	b.ChannelSetup("a", "b", "ch")
	b.ChannelTeardown("a", "b", "ch", time.Now())
	if b.Issued() != 0 || b.Missed() != 0 || b.Store() != nil || b.Swap(nil) != nil {
		t.Fatal("nil Binder not inert")
	}
}

func TestBinderSwapAcrossCrash(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{})
	st.PutProfile(Profile{Name: "dev-1", Features: []string{"cf"}})

	var profiles int
	b := NewBinder(st)
	b.OnProfile = func(local string, p Profile, ok bool) {
		if ok {
			profiles++
		}
	}
	b.ChannelSetup("dev-1", "dev-2", "ch0")
	setup := time.Now()
	b.ChannelTeardown("dev-1", "dev-2", "ch0", setup)
	if profiles != 1 || b.Issued() != 1 {
		t.Fatalf("profiles=%d issued=%d", profiles, b.Issued())
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	// Crash. Teardowns during the unbound window count as missed.
	old := b.Swap(nil)
	old.Crash()
	b.ChannelTeardown("dev-1", "dev-2", "ch1", setup)
	if b.Missed() != 1 {
		t.Fatalf("Missed = %d, want 1", b.Missed())
	}

	// Recover, swap in, and traffic continues.
	st2 := openTest(t, dir, Options{})
	defer st2.Close()
	if got := st2.CDRCount(); got != 1 {
		t.Fatalf("recovered CDRs = %d, want 1", got)
	}
	b.Swap(st2)
	b.ChannelTeardown("dev-1", "dev-2", "ch2", setup)
	if b.Issued() != 2 {
		t.Fatalf("Issued after swap = %d, want 2", b.Issued())
	}
	if got := st2.CDRCount(); got != 2 {
		t.Fatalf("CDRs after swap = %d, want 2", got)
	}
}

// TestStoreTruncatedTailRecovery writes a log, corrupts its tail on
// disk, and checks Open recovers the good prefix and truncates the
// rest so the next session appends cleanly.
func TestStoreTruncatedTailRecovery(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{})
	st.PutProfile(Profile{Name: "alice"})
	st.AppendCDR(CDR{Local: "a", Peer: "b", Channel: "ch"})
	st.Close()

	// Append garbage, as a torn write would leave.
	walPath := dir + "/wal.log"
	f, err := openAppend(walPath)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x09, 0x00, 0x00, 0x00, 0xde, 0xad}) // truncated frame
	f.Close()

	st2 := openTest(t, dir, Options{})
	rs := st2.Recovery()
	if rs.Records != 2 || rs.Truncated != 6 {
		t.Fatalf("Recovery = %+v, want 2 records, 6 truncated bytes", rs)
	}
	// The next append lands on the clean prefix and survives reopen.
	st2.AppendCDR(CDR{Local: "a", Peer: "b", Channel: "post"})
	st2.Close()
	st3 := openTest(t, dir, Options{})
	defer st3.Close()
	if got := st3.CDRCount(); got != 2 {
		t.Fatalf("CDRs after torn-write recovery = %d, want 2", got)
	}
	if rs := st3.Recovery(); rs.Truncated != 0 {
		t.Fatalf("second recovery still truncating: %+v", rs)
	}
}
