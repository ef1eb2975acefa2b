package store

import (
	"sync/atomic"
	"time"
)

// Binder adapts a Store to the box runtime's lifecycle hooks: channel
// setup consults the subscriber registry, channel teardown appends a
// CDR. It satisfies box.Lifecycle structurally — this package never
// imports the runtime, the runtime imports this.
//
// The store reference is swappable at runtime, which is how the chaos
// test survives a simulated crash: Crash() the old store, Open a
// fresh one over the same directory, Swap it in, and traffic continues
// against recovered state. A nil *Binder is inert.
type Binder struct {
	st     atomic.Pointer[Store]
	issued atomic.Uint64 // CDR appends accepted by the store
	missed atomic.Uint64 // teardowns observed while no store was bound

	// OnProfile, if set before traffic starts, observes every setup-time
	// registry lookup. It runs on the box goroutine and must not block.
	OnProfile func(local string, p Profile, ok bool)
}

// NewBinder wraps st (which may be nil — bind later with Swap).
func NewBinder(st *Store) *Binder {
	b := &Binder{}
	if st != nil {
		b.st.Store(st)
	}
	return b
}

// Store returns the currently bound store, or nil.
func (b *Binder) Store() *Store {
	if b == nil {
		return nil
	}
	return b.st.Load()
}

// Swap rebinds the binder to st (nil unbinds) and returns the previous
// store. In-flight lifecycle callbacks see either the old or the new
// store, never a torn mix.
func (b *Binder) Swap(st *Store) *Store {
	if b == nil {
		return nil
	}
	return b.st.Swap(st)
}

// Issued returns the number of CDR appends the bound store accepted.
// The chaos test reconciles this against DurableCDRs and the
// recovered CDR count after a crash.
func (b *Binder) Issued() uint64 {
	if b == nil {
		return 0
	}
	return b.issued.Load()
}

// Missed returns teardowns observed while no store was bound (e.g. the
// window between Crash and Swap) — CDRs that were never issued, so the
// reconciliation gate can account for them.
func (b *Binder) Missed() uint64 {
	if b == nil {
		return 0
	}
	return b.missed.Load()
}

// ChannelSetup implements box.Lifecycle: the registry point lookup on
// the path-setup hot path.
func (b *Binder) ChannelSetup(local, peer, channel string) {
	if b == nil {
		return
	}
	st := b.st.Load()
	if st == nil {
		return
	}
	p, ok := st.Lookup(local)
	if b.OnProfile != nil {
		b.OnProfile(local, p, ok)
	}
}

// ChannelTeardown implements box.Lifecycle: one CDR per torn-down
// signaling channel.
func (b *Binder) ChannelTeardown(local, peer, channel string, setupAt time.Time) {
	if b == nil {
		return
	}
	st := b.st.Load()
	if st == nil {
		b.missed.Add(1)
		return
	}
	_, ok := st.AppendCDR(CDR{
		Local:   local,
		Peer:    peer,
		Channel: channel,
		SetupNS: setupAt.UnixNano(),
		TornNS:  time.Now().UnixNano(),
	})
	if ok {
		b.issued.Add(1)
	} else {
		b.missed.Add(1)
	}
}
