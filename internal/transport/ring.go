// SPSC ring ports: the cross-shard seam of the sharded box runtime.
//
// A ring port is one end of an in-process signaling channel whose
// receive side is a bounded single-producer/single-consumer ring
// (a Lamport queue) drained *inline* by the owning runtime shard
// instead of a per-port pump goroutine. Delivery is edge-triggered:
// the producer raises one readiness notification (SetReady callback)
// when the ring goes empty→non-empty, the consumer drains with
// TryRecvBatch until empty, and the notification flag is re-armed on
// the way out. A port therefore costs no goroutine, no per-envelope
// channel handoff, and — in steady state — no lock on either side.
//
// The SPSC contract: exactly one goroutine sends on a given port
// (for runner-owned ports this is the owning shard loop) and exactly
// one drains it (the peer's shard loop, via the readiness callback).
// Sends never block: when the ring is momentarily full the envelope
// overflows into a mutex-guarded spill list that the consumer drains
// after the ring, preserving FIFO order (a producer that has spilled
// keeps spilling until the consumer has emptied the spill, so ring
// entries are always older than spill entries).
//
// Placement-agnosticism is the point: a runner's channel may be
// same-shard (the notification lands in the producer's own inbox),
// cross-shard (it lands in another shard's inbox), or remote TCP (a
// BatchPort behind a pump) — the box above cannot tell.
package transport

import (
	"strconv"
	"sync"
	"sync/atomic"

	"ipmedia/internal/sig"
	"ipmedia/internal/telemetry"
)

// ringCap is the per-direction ring capacity, fixed at compile time so
// the slots sit inline in the channel's store. A parked channel holds
// its store — both rings, 1.7 KB — for as long as it lives, so this is
// what a host with a hundred thousand idle channels pays per channel;
// a closed one hands it to the next Dial. Four is sized against
// measurement, not guessed: a call puts fourteen envelopes on its two
// channels, three or four per direction per channel over the channel's
// whole life, and transport.ring_occupancy.<n> (what each drain found
// waiting) has never read past three, with transport.ring_spills at
// zero, on one shard or across four (EXPERIMENTS.md "Channel churn"). A
// burst past the ring takes the spill path.
const (
	ringCap  = 4
	ringMask = ringCap - 1
)

// ringMetrics are the instruments every pipe of one network shares,
// resolved once rather than on every Dial.
type ringMetrics struct {
	framesIn, framesOut, spills *telemetry.Counter
	// occupancy[n-1] counts drains that found n envelopes in the ring.
	occupancy [ringCap]*telemetry.Counter
}

func newRingMetrics() *ringMetrics {
	m := &ringMetrics{
		framesIn:  telemetry.C(MetricFramesIn),
		framesOut: telemetry.C(MetricFramesOut),
		spills:    telemetry.C(MetricRingSpills),
	}
	for i := range m.occupancy {
		m.occupancy[i] = telemetry.C(MetricRingOccupancyPrefix + strconv.Itoa(i+1))
	}
	return m
}

// spscRing is the receive side of one direction of a ring channel: a
// Lamport queue (the producer owns tail, the consumer owns head, and
// each reads the other's index before touching a slot) plus the spill.
type spscRing struct {
	head  atomic.Uint64 // next index to pop; consumer-owned
	tail  atomic.Uint64 // next index to push; producer-owned
	slots [ringCap]sig.Envelope

	mu        sync.Mutex
	spill     []sig.Envelope // FIFO overflow, always younger than ring content
	spillHead int            // spill[:spillHead] is drained; compacted away once it outweighs the rest
	spillN    atomic.Int64   // undrained spill length, readable without the lock
	closed    atomic.Bool

	notified atomic.Bool  // an edge notification is outstanding
	ready    atomic.Value // func(): the consumer's readiness callback
	m        *ringMetrics
}

// nonEmpty reports whether data is pending. Consumer goroutine only
// (it reads the consumer-owned head).
func (r *spscRing) nonEmpty() bool {
	return r.head.Load() != r.tail.Load() || r.spillN.Load() > 0
}

// push enqueues e, spilling when the ring is full or a spill is
// already in progress (FIFO across the ring/spill boundary). The spill
// slice stays with the ring once grown, so a channel that keeps
// bursting allocates for its first spill only. Producer goroutine only.
func (r *spscRing) push(e sig.Envelope) error {
	if r.closed.Load() {
		return ErrClosed
	}
	if r.spillN.Load() == 0 {
		if t := r.tail.Load(); t-r.head.Load() < ringCap {
			r.slots[t&ringMask] = e
			r.tail.Store(t + 1)
			r.notify()
			return nil
		}
	}
	r.mu.Lock()
	if r.closed.Load() {
		r.mu.Unlock()
		return ErrClosed
	}
	r.spill = append(r.spill, e)
	r.spillN.Store(int64(len(r.spill) - r.spillHead))
	r.mu.Unlock()
	r.m.spills.Inc()
	r.notify()
	return nil
}

// notify raises the edge notification if none is outstanding. It may
// run on the producer goroutine (push, close) or the consumer's
// (setReady catching up); the CAS makes duplicates harmless — an
// extra wake-up finds an empty ring and returns.
func (r *spscRing) notify() {
	if r.notified.CompareAndSwap(false, true) {
		if fn, _ := r.ready.Load().(func()); fn != nil {
			fn()
		}
		// No callback registered yet: the flag stays raised and
		// setReady delivers the wake-up on registration.
	}
}

// setReady installs the consumer's readiness callback. If data, a
// close, or an undelivered notification is already pending, the
// callback fires immediately (on this goroutine). Consumer only.
func (r *spscRing) setReady(fn func()) {
	r.ready.Store(fn)
	if r.notified.Load() || r.nonEmpty() || r.closed.Load() {
		r.notified.Store(true)
		fn()
	}
}

// tryRecvBatch moves up to len(buf) pending envelopes into buf without
// blocking. It returns (0, true) when the ring is empty but open —
// the notification edge has been re-armed, so the producer's next push
// wakes the consumer — and (0, false) once the ring is closed and
// fully drained. Consumer goroutine only.
func (r *spscRing) tryRecvBatch(buf []sig.Envelope) (int, bool) {
	for {
		// Read the spill count before the ring: from the moment it is
		// nonzero the producer stays off the ring until this goroutine
		// has emptied the spill, so a ring drained after this load holds
		// nothing younger than the spill.
		spilled := r.spillN.Load() > 0
		h := r.head.Load()
		avail := int(r.tail.Load() - h)
		n := min(avail, len(buf))
		for i := 0; i < n; i++ {
			s := &r.slots[(h+uint64(i))&ringMask]
			buf[i] = *s
			*s = sig.Envelope{} // drop Meta references promptly
		}
		if n > 0 {
			r.head.Store(h + uint64(n))
			r.m.occupancy[avail-1].Inc()
		}
		if spilled && n == avail && n < len(buf) {
			// Drain from the head index: a consumer far behind a fast
			// producer takes its batches out of a long spill without
			// shifting the rest down each time. The drained prefix is
			// reclaimed once it outweighs the backlog (always, when the
			// spill empties): the copy moves fewer envelopes than were
			// drained since the last one, so the drain stays O(n), and a
			// backlog that never reaches zero cannot grow the slice with
			// total traffic.
			r.mu.Lock()
			k := copy(buf[n:], r.spill[r.spillHead:])
			clear(r.spill[r.spillHead : r.spillHead+k]) // drop Meta references promptly
			if r.spillHead += k; r.spillHead > len(r.spill)/2 {
				live := copy(r.spill, r.spill[r.spillHead:])
				clear(r.spill[live:]) // the moved tail's old slots
				r.spill, r.spillHead = r.spill[:live], 0
			}
			r.spillN.Store(int64(len(r.spill) - r.spillHead))
			r.mu.Unlock()
			n += k
		}
		if n > 0 {
			return n, true
		}
		// Empty: disarm the edge, then re-check. Data that raced in is
		// either claimed by re-arming the flag ourselves (continue
		// draining) or the producer won the CAS and its notification
		// is already in flight (safe to report empty).
		r.notified.Store(false)
		if r.nonEmpty() {
			if r.notified.CompareAndSwap(false, true) {
				continue
			}
			return 0, true
		}
		if r.closed.Load() {
			if r.nonEmpty() {
				continue // late data slipped in before the close
			}
			return 0, false
		}
		return 0, true
	}
}

// close marks the ring closed and wakes the consumer, which drains
// what is left and then sees ok=false.
func (r *spscRing) close() {
	r.mu.Lock()
	was := r.closed.Swap(true)
	r.mu.Unlock()
	if !was {
		r.notify()
	}
}

// InlinePort is the receive contract of ring ports: a Port drained
// inline by the consumer's scheduler instead of a pump goroutine.
// SetReady registers an edge-triggered readiness callback — invoked
// from the producer's goroutine whenever the receive side goes
// empty→non-empty (and on close), so it must be cheap and non-blocking
// (runtime shards post an inbox notification). TryRecvBatch never
// blocks; ok is false once the port is closed and drained.
type InlinePort interface {
	Port
	SetReady(fn func())
	TryRecvBatch(buf []sig.Envelope) (n int, ok bool)
}

// ringPort is one end of an SPSC ring channel. recv and send point into
// the pipe's store, and are used only while the port is open: once it
// has closed, its store may belong to another channel.
type ringPort struct {
	peerName   string
	recv, send *spscRing // our receive side; the peer's
	pipe       *ringPipe
}

// ringPipe is a ring channel's identity: its two ports, which ends have
// closed, and the storage the ports use while open. Every Dial makes a
// fresh one — the runner tells a channel's port from its redial's by
// comparing ports — but the storage is recycled once both ends have
// closed.
type ringPipe struct {
	ports  [2]ringPort
	closed atomic.Uint32 // bit i set: ports[i] has closed
	store  *ringStore
}

// ringStore is a ring channel's storage: both rings, slots inline.
//
// A store is reused only after both ends have closed. Under the SPSC
// contract an end's Close runs on its owner goroutine after that
// goroutine's last Send and its last drain, and the last Close finds the
// other end's bit already set, so by the time the store is reset nothing
// can still be storing into it or reading from it. A port that has
// closed checks its own bit before touching the store, so a stale handle
// gets ErrClosed or (0, false) and never reaches a store a later channel
// now owns. Recycling on the first Close would not be safe: the open end
// may be inside Send, past its ring's closed flag, and its envelope
// would land in a stranger's channel.
type ringStore struct {
	rings [2]spscRing
}

// ringStores holds reset stores for the next Dial.
var ringStores = sync.Pool{New: func() any { return new(ringStore) }}

// reset returns a ring to its freshly made state: slots the consumer
// never drained cleared, indices zeroed, spill dropped, no close, no
// outstanding notification, no callback. Both ends are closed, so
// nothing else touches the ring.
func (r *spscRing) reset() {
	for h, t := r.head.Load(), r.tail.Load(); h != t; h++ {
		r.slots[h&ringMask] = sig.Envelope{}
	}
	r.head.Store(0)
	r.tail.Store(0)
	r.spill, r.spillHead = nil, 0
	r.spillN.Store(0)
	r.closed.Store(false)
	r.notified.Store(false)
	r.ready.Store((func())(nil))
}

// RingPipe creates an in-memory SPSC ring channel and returns its two
// ports. Each end must be sent on by one goroutine and drained by one
// goroutine (see the package comment), and closed by the goroutine that
// sends and drains it once it no longer does either; box runners
// satisfy this by construction. aName and bName label the ends for
// diagnostics.
func RingPipe(aName, bName string) (Port, Port) {
	return newRingPipe(aName, bName, newRingMetrics())
}

func newRingPipe(aName, bName string, m *ringMetrics) (*ringPort, *ringPort) {
	pp := &ringPipe{store: ringStores.Get().(*ringStore)}
	rings := &pp.store.rings
	a, b := &pp.ports[0], &pp.ports[1]
	a.peerName, a.recv, a.send, a.pipe = bName, &rings[0], &rings[1], pp
	b.peerName, b.recv, b.send, b.pipe = aName, &rings[1], &rings[0], pp
	rings[0].m, rings[1].m = m, m
	return a, b
}

// end is the port's bit in its pipe's closed mask.
func (p *ringPort) end() uint32 {
	if p == &p.pipe.ports[0] {
		return 1
	}
	return 2
}

// isClosed reports whether this end has closed (not the peer).
func (p *ringPort) isClosed() bool { return p.pipe.closed.Load()&p.end() != 0 }

func (p *ringPort) Send(e sig.Envelope) error {
	if p.isClosed() {
		return ErrClosed
	}
	if err := p.send.push(e); err != nil {
		return err
	}
	p.send.m.framesOut.Inc()
	return nil
}

// SetReady implements InlinePort. On a closed port it does nothing.
func (p *ringPort) SetReady(fn func()) {
	if !p.isClosed() {
		p.recv.setReady(fn)
	}
}

// TryRecvBatch implements InlinePort. A closed port reports (0, false)
// at once: what the peer left in the ring is dropped with the channel.
func (p *ringPort) TryRecvBatch(buf []sig.Envelope) (int, bool) {
	if p.isClosed() {
		return 0, false
	}
	n, ok := p.recv.tryRecvBatch(buf)
	if n > 0 {
		p.recv.m.framesIn.Add(uint64(n))
	}
	return n, ok
}

// Close closes both directions and marks this end closed; a second
// Close does nothing. The end that closes last resets the store and
// hands it to the next Dial.
func (p *ringPort) Close() error {
	if p.isClosed() {
		return nil
	}
	p.send.close()
	p.recv.close()
	pp, bit := p.pipe, p.end()
	for {
		was := pp.closed.Load()
		if pp.closed.CompareAndSwap(was, was|bit) {
			if was != 0 { // the peer closed first: nothing uses the store now
				st := pp.store
				st.rings[0].reset()
				st.rings[1].reset()
				ringStores.Put(st)
			}
			return nil
		}
	}
}

func (p *ringPort) Peer() string { return p.peerName }
