// SPSC ring ports: the cross-shard seam of the sharded box runtime.
//
// A ring port is one end of an in-process signaling channel whose
// receive side is a bounded single-producer/single-consumer ring
// (a Lamport queue) drained *inline* by the owning runtime shard, with
// no goroutine per port. Delivery is edge-triggered:
// the producer raises one readiness notification (SetReady callback)
// when the ring goes empty→non-empty, the consumer drains with
// TryRecvBatch until empty, and the notification flag is re-armed on
// the way out. A port therefore costs no goroutine, no per-envelope
// channel handoff, and — in steady state — no lock on either side.
//
// A ring holds envelope slots only while it holds envelopes: the
// producer leases a slot buffer from a pool when the ring goes
// empty→non-empty, and the consumer returns it when it drains the ring
// empty. An idle channel — a parked call's — keeps its rings' indices,
// flags and callback, not their slots.
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
// queue port whose reader goroutine raises the same edge) — the box
// above cannot tell.
package transport

import (
	"strconv"
	"sync"
	"sync/atomic"

	"ipmedia/internal/sig"
	"ipmedia/internal/telemetry"
)

// ringCap is the per-direction ring capacity, fixed at compile time so
// a burst's slots are one leased buffer (ringBuf, 480 B). A parked
// channel holds its store — both rings' control fields, 208 B, and no
// slots — for as long as it lives, so this is what a host with a
// hundred thousand idle channels pays per channel; a closed one hands
// the store to the next Dial. Four is sized against measurement, not
// guessed: a call puts fourteen envelopes on its two channels, three or
// four per direction per channel over the channel's whole life, and
// transport.ring_occupancy.<n> (what each drain found waiting) has
// never read past three, with transport.ring_spills at zero, on one
// shard or across four (EXPERIMENTS.md "Channel churn"). A burst past
// the ring takes the spill path.
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

// ringBuf is a ring's slots, leased for one burst: from the push that
// finds the ring empty to the drain that empties it.
type ringBuf struct {
	slots [ringCap]sig.Envelope
}

// ringBufs holds the slot buffers no ring has leased. A buffer goes back
// with every slot cleared.
var ringBufs = sync.Pool{New: func() any { return new(ringBuf) }}

// The bits of spscRing.tw beside the tail index.
const (
	ringLeased    = 1 << 0 // buf holds the ring's leased slot buffer
	ringWriting   = 1 << 1 // the producer is writing a slot: the buffer may not be returned
	ringTailShift = 2
)

// spscRing is the receive side of one direction of a ring channel: a
// Lamport queue (the producer owns tail, the consumer owns head, and
// each reads the other's index before touching a slot) plus the spill.
//
// The slots are a leased ringBuf. Tail shares one word with a leased
// bit and a writing bit, and the invariant is that an unleased ring is
// empty (head == tail). The producer claims every write by setting
// writing with a CAS, attaches a buffer if none is leased, writes the
// slot and publishes tail+1 with leased set. The consumer, finding the
// ring empty, detaches with one CAS that expects leased, not writing
// and tail == head — so the producer never writes into a buffer it no
// longer holds — then clears buf if no new lease replaced it, and only
// then returns the buffer to the pool.
type spscRing struct {
	head atomic.Uint64           // next index to pop; consumer-owned
	tw   atomic.Uint64           // tail<<ringTailShift | ringWriting | ringLeased; tail is producer-owned
	buf  atomic.Pointer[ringBuf] // the leased slots; nil while the ring is unleased and idle

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
	return r.head.Load() != r.tail() || r.spillN.Load() > 0
}

// tail is the next index to push.
func (r *spscRing) tail() uint64 { return r.tw.Load() >> ringTailShift }

// push enqueues e, spilling when the ring is full or a spill is
// already in progress (FIFO across the ring/spill boundary). The spill
// slice stays with the ring once grown, so a channel that keeps
// bursting allocates for its first spill only. Producer goroutine only.
func (r *spscRing) push(e sig.Envelope) error {
	if r.closed.Load() {
		return ErrClosed
	}
	if r.spillN.Load() == 0 {
		w := r.claim()
		if t := w >> ringTailShift; t-r.head.Load() < ringCap {
			b := r.buf.Load()
			if w&ringLeased == 0 { // empty and unleased: lease for this burst
				b = ringBufs.Get().(*ringBuf)
				r.buf.Store(b)
			}
			b.slots[t&ringMask] = e
			r.tw.Store((t+1)<<ringTailShift | ringLeased)
			r.notify()
			return nil
		}
		r.tw.Store(w) // full: give the claim back and spill
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

// claim sets the writing bit and returns the word it was set on, which
// the consumer cannot change until the producer stores the word again.
// Only the consumer's detach can make the CAS fail, and it cannot do so
// twice in a row: it needs the leased bit that only this goroutine sets.
// Producer goroutine only.
func (r *spscRing) claim() uint64 {
	for {
		w := r.tw.Load()
		if r.tw.CompareAndSwap(w, w|ringWriting) {
			return w
		}
	}
}

// release returns the slot buffer of a ring the consumer has found
// empty at head h, unless the ring is unleased, the producer is writing
// or an envelope has arrived. Nothing changes buf while the ring is
// leased, so the buffer read before the detach is the one detached. The producer may lease a new buffer the moment the
// detach lands; buf is cleared only if it has not. Consumer goroutine
// only.
func (r *spscRing) release(h uint64) {
	w := h<<ringTailShift | ringLeased
	if r.tw.Load() != w {
		return
	}
	b := r.buf.Load()
	if r.tw.CompareAndSwap(w, h<<ringTailShift) {
		r.buf.CompareAndSwap(b, nil)
		ringBufs.Put(b)
	}
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
		avail := int(r.tail() - h)
		n := min(avail, len(buf))
		if n > 0 {
			// A non-empty ring is leased, and stays so: only this
			// goroutine detaches.
			b := r.buf.Load()
			for i := 0; i < n; i++ {
				s := &b.slots[(h+uint64(i))&ringMask]
				buf[i] = *s
				*s = sig.Envelope{} // drop Meta references promptly
			}
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
		// Empty: hand the slots back for the next burst, disarm the
		// edge, then re-check. Data that raced in is either claimed by
		// re-arming the flag ourselves (continue draining) or the
		// producer won the CAS and its notification is already in
		// flight (safe to report empty).
		r.release(h)
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

// InlinePort is the receive contract of ring ports, and of the
// queue-backed ports fed by a goroutine of their own (TCP, rel, mux):
// a Port drained inline by the consumer's scheduler, with no goroutine
// per port. SetReady registers an edge-triggered readiness callback —
// invoked from the producer's goroutine (a ring's sender, a queue
// port's sender or reader: a TCP socket's, a carrier's demux) whenever
// the receive side goes empty→non-empty, and on close, so it must be
// cheap and non-blocking, and must not call the port (the reliable
// layer raises it holding the channel's lock; runtime shards post an
// inbox notification); it fires at once if envelopes or a close are
// already pending.
// TryRecvBatch never blocks; when it finds the port empty it re-arms
// the edge, and ok is false once the port is closed and drained. On a
// queue port the edge and RecvBatch are two ways to read one queue: a
// consumer uses one of them.
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

// ringStore is a ring channel's storage: both rings, whose slots are
// leased per burst (see spscRing).
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
// never drained cleared and their buffer returned, indices zeroed,
// spill dropped, no close, no outstanding notification, no callback.
// Both ends are closed, so nothing else touches the ring.
func (r *spscRing) reset() {
	if b := r.buf.Load(); b != nil {
		for h, t := r.head.Load(), r.tail(); h != t; h++ {
			b.slots[h&ringMask] = sig.Envelope{}
		}
		r.buf.Store(nil)
		ringBufs.Put(b)
	}
	r.head.Store(0)
	r.tw.Store(0)
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
