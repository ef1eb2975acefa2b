// Package store is the durable state layer of the system: a subscriber
// registry consulted on every signaling-channel setup, an append-heavy
// call-detail-record (CDR) log fed by every teardown, and prepaid
// balances debited idempotently — held in plain maps and recovered
// from a write-ahead log with fsync batching and crash recovery.
//
// The package follows the telemetry package's nil-safe discipline:
// every method of a nil *Store is a no-op (the "store disabled" path
// costs nothing and allocates nothing), so instrumented runtimes never
// branch on a "store enabled" flag.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ipmedia/internal/telemetry"
)

// Options configures a Store.
type Options struct {
	// FsyncInterval is the WAL group-commit window (default 2ms): an
	// append is acknowledged as durable only after the fsync that
	// closes its window.
	FsyncInterval time.Duration
}

// RecoveryStats reports what Open found in the write-ahead log.
type RecoveryStats struct {
	Records   int   // well-formed records replayed
	GoodBytes int64 // length of the well-formed prefix
	Truncated int64 // corrupt/truncated tail bytes discarded
}

// Store is the durable state layer: a subscriber registry (point
// lookup on every path setup), prepaid balances (idempotent
// token-guarded debits), and an append-heavy CDR log — all recovered
// from the write-ahead log on Open.
//
// All methods are safe for concurrent use and are no-ops on a nil
// receiver, so a runtime wired for durable state runs unchanged (and
// without cost) when the store is disabled.
type Store struct {
	wal *wal

	// mu serializes writes and guards bal and cdrs. The hot read path
	// does not take it: registry lookups go through reg under regMu,
	// which writers take inside mu.
	mu     sync.Mutex
	bal    map[string]balance
	cdrs   map[uint64]CDR
	cdrSeq uint64 // highest seq issued or replayed
	recBuf []byte

	regMu sync.RWMutex
	reg   map[string]Profile

	cdrDurable   atomic.Uint64
	recovery     RecoveryStats
	mLookups     *telemetry.Counter
	mMiss        *telemetry.Counter
	mAppends     *telemetry.Counter
	mDebits      *telemetry.Counter
	mReplay      *telemetry.Counter
	mLookupLat   *telemetry.Histogram
	mAppendLat   *telemetry.Histogram
	onCDRDurable func() // test/harness hook, set before traffic
}

// Open opens (or creates) a store rooted at dir, replaying the
// write-ahead log to a consistent state: the well-formed prefix is
// applied, a corrupt or truncated tail is cut off, and appends resume
// from the recovered end.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}

	s := &Store{
		bal:        map[string]balance{},
		cdrs:       map[uint64]CDR{},
		reg:        map[string]Profile{},
		mLookups:   telemetry.C(MetricLookups),
		mMiss:      telemetry.C(MetricLookupMiss),
		mAppends:   telemetry.C(MetricCDRAppends),
		mDebits:    telemetry.C(MetricDebits),
		mReplay:    telemetry.C(MetricReplayRecords),
		mLookupLat: telemetry.H(MetricLookupLatency),
		mAppendLat: telemetry.H(MetricAppendLatency),
	}

	good, err := replayWAL(f, func(typ byte, body []byte) error {
		s.recovery.Records++
		return s.apply(typ, body)
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	s.mReplay.Add(uint64(s.recovery.Records))
	s.recovery.GoodBytes = good
	if end, err := f.Seek(0, 2); err == nil && end > good {
		s.recovery.Truncated = end - good
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncating corrupt tail: %w", err)
		}
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	// Every record replayed from disk is durable by definition.
	s.cdrDurable.Add(uint64(len(s.cdrs)))
	s.wal = newWAL(f, opts.FsyncInterval, s.recordDurable)
	return s, nil
}

// recordDurable runs on the WAL flusher after each fsync, once per
// record in the batch.
func (s *Store) recordDurable(typ byte) {
	if typ == recCDR {
		s.cdrDurable.Add(1)
		if s.onCDRDurable != nil {
			s.onCDRDurable()
		}
	}
}

// Recovery returns what Open found in the log.
func (s *Store) Recovery() RecoveryStats {
	if s == nil {
		return RecoveryStats{}
	}
	return s.recovery
}

// --- apply: shared by live writes and WAL replay ---
// Every apply is idempotent: profile puts are last-wins, CDR puts are
// keyed by their seq (the last record for a seq wins), and balance
// adjustments are guarded by the monotone token. Replaying a prefix twice therefore reaches the
// same state — the property FuzzWALReplay and the crash tests pin.

// apply mutates in-memory state from one record. Caller holds mu (or
// is Open, before concurrency starts).
func (s *Store) apply(typ byte, body []byte) error {
	switch typ {
	case recProfile:
		p, err := decodeProfile(body)
		if err != nil {
			return err
		}
		s.applyProfile(p)
	case recAdjust:
		a, err := decodeAdjust(body)
		if err != nil {
			return err
		}
		s.applyAdjust(a)
	case recCDR:
		c, err := decodeCDR(body)
		if err != nil {
			return err
		}
		s.applyCDR(c)
	default:
		return fmt.Errorf("store: unknown record type %d", typ)
	}
	return nil
}

func (s *Store) applyProfile(p Profile) {
	s.regMu.Lock()
	s.reg[p.Name] = p
	s.regMu.Unlock()
}

// applyAdjust applies a token-guarded balance change: only a token
// strictly greater than the last applied one takes effect, and a debit
// may not take the balance below zero. Both rules are deterministic,
// so replay reproduces exactly the original outcomes.
func (s *Store) applyAdjust(a adjust) bool {
	b := s.bal[a.Name]
	if a.Token <= b.LastToken {
		return false // already applied (replay, or a crashed client's retry)
	}
	if a.Delta < 0 && b.Cents+a.Delta < 0 {
		return false // insufficient funds: the debit does not apply
	}
	b.Cents += a.Delta
	b.LastToken = a.Token
	s.bal[a.Name] = b
	return true
}

func (s *Store) applyCDR(c CDR) {
	s.cdrs[c.Seq] = c
	if c.Seq > s.cdrSeq {
		s.cdrSeq = c.Seq
	}
}

// --- registry ---

// PutProfile upserts a subscriber profile: logged, then visible to
// lookups.
func (s *Store) PutProfile(p Profile) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	body := appendProfile(nil, &p)
	if _, ok := s.wal.append(recProfile, body); !ok {
		return fmt.Errorf("store: closed")
	}
	s.applyProfile(p)
	return nil
}

// Lookup is the setup hot path: the subscriber's feature profile by
// name. It takes a shared lock and allocates nothing. A miss returns
// the degraded-mode default profile with ok=false and counts
// store.lookup_miss — setup proceeds featureless rather than failing
// (there is no panic path for an unknown subscriber).
func (s *Store) Lookup(name string) (Profile, bool) {
	if s == nil {
		return DefaultProfile(name), false
	}
	start := time.Now()
	s.mLookups.Inc()
	s.regMu.RLock()
	p, ok := s.reg[name]
	s.regMu.RUnlock()
	s.mLookupLat.Observe(time.Since(start))
	if !ok {
		s.mMiss.Inc()
		return DefaultProfile(name), false
	}
	return p, true
}

// Profiles returns the number of registered subscribers.
func (s *Store) Profiles() int {
	if s == nil {
		return 0
	}
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	return len(s.reg)
}

// --- balances ---

// NextToken returns the next unused adjustment token for a subscriber.
// A caller that records its intended token before issuing the debit
// can re-issue the same debit after a crash with no risk of applying
// it twice.
func (s *Store) NextToken(name string) uint64 {
	if s == nil {
		return 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bal[name].LastToken + 1
}

// SetBalance initializes or resets a subscriber's balance.
func (s *Store) SetBalance(name string, cents int64) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// An absolute reset is a delta from the current state under the
	// next token, so it logs and replays like any other adjustment.
	b := s.bal[name]
	a := adjust{Name: name, Delta: cents - b.Cents, Token: b.LastToken + 1}
	body := appendAdjust(nil, &a)
	if _, ok := s.wal.append(recAdjust, body); !ok {
		return fmt.Errorf("store: closed")
	}
	s.applyAdjust(a)
	return nil
}

// Debit subtracts cents under a monotone token. It returns the
// resulting balance and whether this call applied: a token at or below
// the last applied one is an idempotent no-op (the crashed-retry
// case), and a debit that would overdraw does not apply.
func (s *Store) Debit(name string, cents int64, token uint64) (int64, bool) {
	return s.adjustBy(name, -cents, token)
}

// Credit adds cents under a monotone token (the "paid" event).
func (s *Store) Credit(name string, cents int64, token uint64) (int64, bool) {
	return s.adjustBy(name, cents, token)
}

func (s *Store) adjustBy(name string, delta int64, token uint64) (int64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a := adjust{Name: name, Delta: delta, Token: token}
	body := appendAdjust(nil, &a)
	if _, ok := s.wal.append(recAdjust, body); !ok {
		return s.bal[name].Cents, false
	}
	applied := s.applyAdjust(a)
	if applied {
		s.mDebits.Inc()
	}
	return s.bal[name].Cents, applied
}

// Balance returns a subscriber's balance in cents.
func (s *Store) Balance(name string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.bal[name]
	return b.Cents, ok
}

// --- CDRs ---

// AppendCDR logs one call-detail record, assigning its sequence
// number. The record is acknowledged (counted durable) only after its
// WAL batch fsyncs; callers needing a durability barrier use Sync.
// On a nil or closed store the record is dropped and ok is false.
func (s *Store) AppendCDR(c CDR) (uint64, bool) {
	if s == nil {
		return 0, false
	}
	start := time.Now()
	s.mu.Lock()
	c.Seq = s.cdrSeq + 1
	s.recBuf = appendCDR(s.recBuf[:0], &c)
	if _, ok := s.wal.append(recCDR, s.recBuf); !ok {
		s.mu.Unlock()
		return 0, false
	}
	s.applyCDR(c)
	s.mu.Unlock()
	s.mAppends.Inc()
	s.mAppendLat.Observe(time.Since(start))
	return c.Seq, true
}

// CDRCount returns the number of distinct CDR seqs held (issued,
// durable or not; after Open it is exactly the recovered count).
func (s *Store) CDRCount() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cdrs)
}

// DurableCDRs returns the number of CDR appends acknowledged by an
// fsync — the count a crash is guaranteed not to lose.
func (s *Store) DurableCDRs() uint64 {
	if s == nil {
		return 0
	}
	return s.cdrDurable.Load()
}

// EachCDR iterates the CDR log in sequence order. It sorts the seqs
// on every call: it is the reconciliation audit, not a hot path.
func (s *Store) EachCDR(fn func(CDR) bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seqs := make([]uint64, 0, len(s.cdrs))
	for seq := range s.cdrs {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	for _, seq := range seqs {
		if !fn(s.cdrs[seq]) {
			return
		}
	}
}

// --- lifecycle ---

// Sync blocks until everything issued so far is fsynced.
func (s *Store) Sync() error {
	if s == nil {
		return nil
	}
	return s.wal.sync()
}

// Close flushes and closes the store.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	return s.wal.close()
}

// Crash simulates a power cut for the crash-recovery tests and the
// chaos test: buffered, unacknowledged WAL records are abandoned
// and the file closes without a final flush. Durable state on disk is
// untouched; reopen with Open to recover it.
func (s *Store) Crash() {
	if s == nil {
		return
	}
	s.wal.crash()
}
