package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// storeModel is the plain reference the store must agree with: the
// registry as a map, balances as a map, and the CDR log as a slice whose
// i-th entry carries seq i+1.
type storeModel struct {
	profiles map[string][]string
	bal      map[string]balance
	cdrs     []CDR
}

// adjust mirrors Store.applyAdjust: a token at or below the last
// applied one is a no-op, and so is a debit that would overdraw.
func (m *storeModel) adjust(name string, delta int64, token uint64) (int64, bool) {
	b := m.bal[name]
	if token <= b.LastToken || (delta < 0 && b.Cents+delta < 0) {
		return b.Cents, false
	}
	b.Cents += delta
	b.LastToken = token
	m.bal[name] = b
	return b.Cents, true
}

// check compares every read the store offers with the model.
func (m *storeModel) check(t *testing.T, st *Store, names []string, when string) {
	t.Helper()
	if got, want := st.Profiles(), len(m.profiles); got != want {
		t.Fatalf("%s: Profiles = %d, want %d", when, got, want)
	}
	for _, n := range names {
		p, ok := st.Lookup(n)
		feats, want := m.profiles[n]
		if ok != want || p.Name != n || fmt.Sprint(p.Features) != fmt.Sprint(feats) {
			t.Fatalf("%s: Lookup(%s) = %+v, %v; want features %v, %v", when, n, p, ok, feats, want)
		}
		cents, ok := st.Balance(n)
		b, want := m.bal[n]
		if ok != want || cents != b.Cents {
			t.Fatalf("%s: Balance(%s) = %d, %v; want %d, %v", when, n, cents, ok, b.Cents, want)
		}
		if got := st.NextToken(n); got != b.LastToken+1 {
			t.Fatalf("%s: NextToken(%s) = %d, want %d", when, n, got, b.LastToken+1)
		}
	}
	if got, want := st.CDRCount(), len(m.cdrs); got != want {
		t.Fatalf("%s: CDRCount = %d, want %d", when, got, want)
	}
	var got []CDR
	st.EachCDR(func(c CDR) bool { got = append(got, c); return true })
	if !slices.Equal(got, m.cdrs) {
		t.Fatalf("%s: EachCDR = %+v, want %+v", when, got, m.cdrs)
	}
}

// TestStoreModelRandomOps drives a seeded mix of every write the store
// takes against storeModel. At random points it syncs, crashes and
// reopens the store, and after each reopen every read must agree with
// the model: a synced store loses nothing to a crash, and replay
// rebuilds exactly the state the live writes built.
func TestStoreModelRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			names := []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"}
			feats := []string{"cf", "cfb", "prepaid", "ctd"}
			m := &storeModel{profiles: map[string][]string{}, bal: map[string]balance{}}
			st := openTest(t, dir, Options{})
			reopens := 0
			for op := 0; op < 3000; op++ {
				name := names[rng.Intn(len(names))]
				switch r := rng.Intn(100); {
				case r < 15:
					var fs []string
					for _, f := range feats {
						if rng.Intn(2) == 0 {
							fs = append(fs, f)
						}
					}
					if err := st.PutProfile(Profile{Name: name, Features: fs}); err != nil {
						t.Fatal(err)
					}
					m.profiles[name] = fs
				case r < 25:
					cents := rng.Int63n(1000)
					if err := st.SetBalance(name, cents); err != nil {
						t.Fatal(err)
					}
					m.adjust(name, cents-m.bal[name].Cents, m.bal[name].LastToken+1)
				case r < 60:
					// Mostly the next token, sometimes a stale one (the
					// crashed-client retry) or one that skips ahead.
					token := st.NextToken(name)
					switch rng.Intn(4) {
					case 0:
						token = uint64(rng.Int63n(int64(token))) + 1
					case 1:
						token += uint64(rng.Intn(3))
					}
					cents := rng.Int63n(300)
					var gotBal, wantBal int64
					var gotOK, wantOK bool
					if rng.Intn(3) == 0 {
						gotBal, gotOK = st.Credit(name, cents, token)
						wantBal, wantOK = m.adjust(name, cents, token)
					} else {
						gotBal, gotOK = st.Debit(name, cents, token)
						wantBal, wantOK = m.adjust(name, -cents, token)
					}
					if gotBal != wantBal || gotOK != wantOK {
						t.Fatalf("op %d: adjust(%s, %d, token %d) = %d, %v; model %d, %v",
							op, name, cents, token, gotBal, gotOK, wantBal, wantOK)
					}
				default:
					c := CDR{Local: name, Peer: names[rng.Intn(len(names))], Channel: fmt.Sprint("ch", op),
						SetupNS: int64(op), TornNS: int64(op) + rng.Int63n(1000)}
					seq, ok := st.AppendCDR(c)
					c.Seq = uint64(len(m.cdrs) + 1)
					if !ok || seq != c.Seq {
						t.Fatalf("op %d: AppendCDR = %d, %v; want seq %d", op, seq, ok, c.Seq)
					}
					m.cdrs = append(m.cdrs, c)
				}
				if rng.Intn(150) == 0 {
					if err := st.Sync(); err != nil {
						t.Fatal(err)
					}
					st.Crash()
					st = openTest(t, dir, Options{})
					reopens++
					m.check(t, st, names, fmt.Sprintf("op %d, reopen %d", op, reopens))
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st = openTest(t, dir, Options{})
			defer st.Close()
			m.check(t, st, names, "final reopen")
			if reopens == 0 {
				t.Fatal("the seed never crashed the store")
			}
		})
	}
}

// TestStoreCDRReplayLastWins pins how replay treats a hand-written log
// whose CDR seqs repeat and arrive out of order: the last record for a
// seq wins, the count is the number of distinct seqs, EachCDR ascends,
// and appends resume past the highest seq.
func TestStoreCDRReplayLastWins(t *testing.T) {
	dir := t.TempDir()
	var log []byte
	for _, c := range []CDR{
		{Seq: 3, Local: "a", Channel: "first"},
		{Seq: 5, Local: "b", Channel: "five"},
		{Seq: 1, Local: "c", Channel: "one"},
		{Seq: 3, Local: "d", Channel: "second"},
		{Seq: 2, Local: "e", Channel: "two"},
	} {
		log = appendWALRecord(log, recCDR, appendCDR(nil, &c))
	}
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), log, 0o644); err != nil {
		t.Fatal(err)
	}

	st := openTest(t, dir, Options{})
	defer st.Close()
	if got := st.CDRCount(); got != 4 {
		t.Fatalf("CDRCount = %d, want 4 distinct seqs", got)
	}
	var got []string
	st.EachCDR(func(c CDR) bool {
		got = append(got, fmt.Sprint(c.Seq, c.Channel))
		return true
	})
	if want := []string{"1one", "2two", "3second", "5five"}; !slices.Equal(got, want) {
		t.Fatalf("EachCDR = %v, want %v", got, want)
	}
	if seq, ok := st.AppendCDR(CDR{Local: "f", Channel: "next"}); !ok || seq != 6 {
		t.Fatalf("AppendCDR after replay = %d, %v; want seq 6", seq, ok)
	}
}
