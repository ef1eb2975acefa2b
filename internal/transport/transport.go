// Package transport provides signaling channels between boxes: two-way,
// FIFO, and reliable (paper Section III-A). A typical signaling channel
// between two physical components is implemented by TCP; a typical
// signaling channel within a physical component is implemented by two
// software queues. Both implementations are provided here behind the
// same Port interface, together with a Network abstraction that lets
// box runtimes dial and listen uniformly.
//
// Sending is the same on every port; receiving comes in two contracts.
// An InlinePort raises a readiness edge and the consumer's own
// scheduler drains it with TryRecvBatch, with no goroutine per port; a
// BatchPort gives the consumer a goroutine to block in RecvBatch. Ring
// ports (RingPipe, NewRingMemNetwork) are InlinePorts only. TCP ports
// and the reliable and mux layers — and fault injection over them —
// carry both contracts over one queue: box runners drain them inline,
// while a layer stacked on them blocks in RecvBatch. In-memory queue
// pipes (Pipe, NewMemNetwork) are BatchPorts only, and a runner pumps
// them. A consumer that meets a port with no contract it can read by
// closes the port and reports an error.
package transport

import (
	"errors"
	"fmt"
	"sync"

	"ipmedia/internal/sig"
	"ipmedia/internal/telemetry"
)

// ErrClosed reports use of a closed port, listener, or network.
var ErrClosed = errors.New("transport: closed")

// ErrBacklog reports a send rejected because the port's bounded send
// queue is full: the peer has stalled past the cap and the port is
// being failed rather than buffering without limit.
var ErrBacklog = errors.New("transport: send queue full")

// Telemetry instrument names exported by this package. queue_depth
// counts envelopes accepted by Send but not yet handed to a receiver,
// across all receive queues in the process; its high-water mark is the
// visibility the unbounded queues otherwise lack — a slow reader shows
// up as a growing depth. send_queue_depth is the same accounting for
// the bounded TCP send queues (envelopes accepted but not yet written
// to a socket).
const (
	MetricFramesOut      = "transport.frames_out"
	MetricFramesIn       = "transport.frames_in"
	MetricBytesOut       = "transport.bytes_out"
	MetricBytesIn        = "transport.bytes_in"
	MetricQueueDepth     = "transport.queue_depth"
	MetricSendQueueDepth = "transport.send_queue_depth"
	MetricDials          = "transport.dials"
	MetricAccepts        = "transport.accepts"
	// MetricBacklogDropped counts envelopes discarded because a bounded
	// send queue was full when Send was called — the frames that a
	// backlog teardown loses, previously dropped without a trace.
	MetricBacklogDropped = "transport.backlog_dropped"
	// MetricFaultsInjected counts faults injected by a FaultNetwork:
	// drops, duplications, delays, reorder holds, and link severs.
	MetricFaultsInjected = "transport.faults_injected"
	// MetricReconnects counts successful re-dials by the reliable layer
	// after an underlying channel died.
	MetricReconnects = "transport.reconnects"
	// MetricGiveups counts reliable channels abandoned after the bounded
	// recovery budget was exhausted; each one surfaces to the box
	// runtime as a channel loss and drives the path's slots to closed.
	MetricGiveups = "path.giveups"
	// MetricResets counts reliable channels failed fast by a rel/reset:
	// the dialer tried to resume a channel whose identity the acceptor
	// no longer knows (the accepting process restarted and lost its
	// channel state). Unlike a giveup, a reset is a prompt, clean
	// failure — the peer is alive, only the channel is unrecoverable.
	MetricResets = "transport.resets"
	// MetricRingSpills counts envelopes that found a ring port's ring
	// full and took the spill list; MetricRingOccupancyPrefix + "<n>"
	// counts drains that found n envelopes waiting in the ring. Together
	// they are the evidence the ring capacity is sized against.
	MetricRingSpills          = "transport.ring_spills"
	MetricRingOccupancyPrefix = "transport.ring_occupancy."
)

// Port is one end of a signaling channel. Sends never block: receive
// queues are unbounded, preserving the FIFO reliable abstraction boxes
// are written against (TCP send queues are bounded and fail the port
// rather than block, see ErrBacklog). The receive side is the port's
// InlinePort or BatchPort half, or both.
type Port interface {
	// Send queues an envelope for the far end.
	Send(e sig.Envelope) error
	// Close tears the signaling channel down. It is idempotent.
	Close() error
	// Peer describes the far end for diagnostics.
	Peer() string
}

// BatchPort is the blocking receive contract of queue-backed ports
// (mem, TCP, rel, mux, fault), for a consumer that gives a goroutine to
// the port. RecvBatch blocks until at least one envelope is available,
// fills buf, and returns the count; ok is false once the port is closed
// and drained. A port is read through one contract at a time.
type BatchPort interface {
	RecvBatch(buf []sig.Envelope) (n int, ok bool)
}

// queuePort is a port with both receive contracts over one queue.
type queuePort interface {
	InlinePort
	BatchPort
}

var (
	_ queuePort = (*tcpPort)(nil)
	_ queuePort = (*muxPort)(nil)
	_ queuePort = (*RelPort)(nil)
	_ queuePort = faultInlinePort{}
)

// batchOf returns the blocking receive side a layer's goroutine reads
// under from. A port without one (a ring port: edge-triggered, and
// single-producer, which a layer sending from timer callbacks is not)
// cannot carry the layer: it is closed and refused.
func batchOf(under Port, layer string) (BatchPort, error) {
	bp, ok := under.(BatchPort)
	if !ok {
		under.Close()
		return nil, fmt.Errorf("transport: %s needs a BatchPort underneath, %T is not one", layer, under)
	}
	return bp, nil
}

// Listener accepts incoming signaling channels.
type Listener interface {
	// Accept blocks until a new channel arrives or the listener closes.
	Accept() (Port, error)
	// Close stops accepting. It is idempotent.
	Close() error
	// Addr returns the listening address.
	Addr() string
}

// acceptQueue is a listener's backlog: the accepted ports Accept has
// not taken yet, at most max of them. Close hangs up every port still
// queued, and a port offered after Close is hung up instead of queued,
// both under the queue's lock, so no port is stranded in a closed
// listener with its dialer waiting on a channel nobody reads.
type acceptQueue struct {
	mu     sync.Mutex
	cond   sync.Cond // signals a queued port, a taken one, or the close
	ports  []Port
	max    int
	closed bool
}

func (q *acceptQueue) init(max int) {
	q.max = max
	q.cond.L = &q.mu
}

// offer queues p for Accept. A full queue refuses it with ErrBacklog,
// or with wait set, waits until Accept takes a port; a closed one
// refuses it with ErrClosed. A refused port is closed.
func (q *acceptQueue) offer(p Port, wait bool) error {
	q.mu.Lock()
	for !q.closed && len(q.ports) >= q.max && wait {
		q.cond.Wait()
	}
	var err error
	switch {
	case q.closed:
		err = ErrClosed
	case len(q.ports) >= q.max:
		err = ErrBacklog
	default:
		q.ports = append(q.ports, p)
		q.cond.Broadcast()
	}
	q.mu.Unlock()
	if err != nil {
		p.Close()
	}
	return err
}

// take blocks until a port is queued, and returns the oldest, or until
// the queue is closed.
func (q *acceptQueue) take() (Port, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.ports) == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return nil, ErrClosed
	}
	p := q.ports[0]
	n := copy(q.ports, q.ports[1:])
	q.ports[n] = nil
	q.ports = q.ports[:n]
	q.cond.Broadcast()
	return p, nil
}

// close closes the queue and hangs up the ports in it. It reports
// whether this call closed it.
func (q *acceptQueue) close() bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.closed = true
	ports := q.ports
	q.ports = nil
	q.cond.Broadcast()
	q.mu.Unlock()
	for _, p := range ports {
		p.Close()
	}
	return true
}

// Network abstracts channel establishment so the same box runtime runs
// over in-memory queues or TCP.
type Network interface {
	Listen(addr string) (Listener, error)
	Dial(addr string) (Port, error)
}

// queue is a FIFO of envelopes. Every queue tracks its occupancy in a
// process-wide depth gauge; deliver, if non-nil, counts envelopes
// actually handed to the consumer. max, if positive, bounds the queue:
// push fails with ErrBacklog when full. Ports embed their queues (see
// init), so a queue costs no allocation of its own. The envelopes live
// in a circular buffer, so a push or a pop costs the same however deep
// the backlog behind it. An idle queue holds no buffer: a push that
// finds none leases a queueInitCap one from queueBufs, and the take
// that drains the queue empty gives it back. A buffer grown past that
// size by a burst stays with its queue.
//
// A queue has one consumer, which reads it one of two ways: a goroutine
// blocking in popBatch, or a scheduler draining with tryPopBatch on the
// readiness edge installed by setReady — the contract ring ports have
// (see InlinePort). The edge is armed only while the consumer has found
// the queue empty, so a burst costs one callback however many pushes
// it holds, and the callback runs outside q.mu.
type queue struct {
	mu     sync.Mutex
	cond   sync.Cond
	ring   []sig.Envelope // circular buffer: n envelopes from ring[head]; nil or leased while it has queueInitCap slots
	head   int
	n      int
	closed bool
	armed  bool   // the consumer found the queue empty: the next push or close fires ready
	ready  func() // the consumer's readiness callback (setReady)
	max    int

	depth   *telemetry.Gauge
	deliver *telemetry.Counter
}

// queueInitCap is the size of the buffer a queue leases for a burst. A
// signaling channel rarely holds more than a couple of envelopes
// between drains, so a buffer of this size serves most bursts; a larger
// one raised calls-mux's live heap with no fewer allocations. Only this
// size is leased: dropping a grown buffer when its queue drained, so
// that a bursty channel grew a new one each burst, more than doubled
// calls-mux's allocated bytes per call.
const queueInitCap = 2

// queueBufs holds the initial-size buffers of drained queues.
var queueBufs = sync.Pool{New: func() any { return new([queueInitCap]sig.Envelope) }}

func newQueue(depth *telemetry.Gauge, deliver *telemetry.Counter, max int) *queue {
	q := &queue{}
	q.init(depth, deliver, max)
	return q
}

// init readies a zero queue in place; the queue must not move after.
func (q *queue) init(depth *telemetry.Gauge, deliver *telemetry.Counter, max int) {
	q.max, q.depth, q.deliver = max, depth, deliver
	q.cond.L = &q.mu
}

func (q *queue) push(e sig.Envelope) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return ErrClosed
	}
	if q.max > 0 && q.n >= q.max {
		q.mu.Unlock()
		return ErrBacklog
	}
	if q.n == len(q.ring) {
		q.grow()
	}
	tail := q.head + q.n
	if tail >= len(q.ring) {
		tail -= len(q.ring)
	}
	q.ring[tail] = e
	q.n++
	if q.n == 1 {
		q.cond.Signal()
	}
	fire := q.edge()
	q.mu.Unlock()
	q.depth.Inc()
	if fire != nil {
		fire()
	}
	return nil
}

// edge disarms the readiness edge and returns the callback to fire, nil
// if the consumer is not waiting for one. Caller holds q.mu.
func (q *queue) edge() func() {
	if !q.armed {
		return nil
	}
	q.armed = false
	return q.ready
}

// grow leases an initial-size buffer for an empty queue, or doubles
// the full one, unwrapping the queued envelopes to its front and giving
// a leased buffer it outgrew back. Caller holds q.mu.
func (q *queue) grow() {
	if q.ring == nil {
		q.ring = queueBufs.Get().(*[queueInitCap]sig.Envelope)[:]
		return
	}
	ring := make([]sig.Envelope, 2*len(q.ring))
	k := copy(ring, q.ring[q.head:])
	copy(ring[k:], q.ring[:q.head])
	q.lendBack()
	q.ring, q.head = ring, 0
}

// lendBack gives a leased buffer, which holds no envelopes, back to
// queueBufs; a grown one is kept. Caller holds q.mu.
func (q *queue) lendBack() {
	if len(q.ring) == queueInitCap {
		clear(q.ring)
		queueBufs.Put((*[queueInitCap]sig.Envelope)(q.ring))
		q.ring, q.head = nil, 0
	}
}

// popBatch blocks until the queue is non-empty or closed, then moves
// up to len(buf) envelopes into buf. ok is false only when the queue
// is closed and fully drained.
func (q *queue) popBatch(buf []sig.Envelope) (int, bool) {
	q.mu.Lock()
	for q.n == 0 {
		if q.closed {
			q.mu.Unlock()
			return 0, false
		}
		q.cond.Wait()
	}
	return q.take(buf), true
}

// tryPopBatch is popBatch without the wait: it moves up to len(buf)
// pending envelopes into buf, and on an empty queue returns (0, true)
// with the readiness edge re-armed, so the next push fires it, or
// (0, false) once the queue is closed and fully drained.
func (q *queue) tryPopBatch(buf []sig.Envelope) (int, bool) {
	q.mu.Lock()
	if q.n == 0 {
		open := !q.closed
		q.armed = open
		q.mu.Unlock()
		return 0, open
	}
	return q.take(buf), true
}

// take moves up to len(buf) envelopes of a non-empty queue into buf
// and releases q.mu, which the caller holds.
func (q *queue) take(buf []sig.Envelope) int {
	n := min(len(buf), q.n)
	// At most two runs: to the end of the buffer, then from its start.
	// Moved-out slots are cleared so the buffer pins no consumed Meta.
	first := q.ring[q.head:min(q.head+n, len(q.ring))]
	k := copy(buf, first)
	clear(first)
	second := q.ring[:n-k]
	copy(buf[k:], second)
	clear(second)
	q.head += n
	if q.head >= len(q.ring) {
		q.head -= len(q.ring)
	}
	q.n -= n
	if q.n == 0 {
		q.lendBack()
	}
	q.mu.Unlock()
	q.depth.Add(int64(-n))
	q.deliver.Add(uint64(n))
	return n
}

// setReady installs the consumer's readiness callback. If envelopes or
// a close are already pending it fires at once, on this goroutine;
// otherwise the edge is armed for the next push or close.
func (q *queue) setReady(fn func()) {
	q.mu.Lock()
	q.ready = fn
	pending := q.n > 0 || q.closed
	q.armed = !pending
	q.mu.Unlock()
	if pending {
		fn()
	}
}

func (q *queue) close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	q.cond.Broadcast()
	fire := q.edge()
	q.mu.Unlock()
	if fire != nil {
		fire()
	}
}

// memPort is one end of an in-memory signaling channel.
type memPort struct {
	peerName  string
	sendTo    *queue // far end's receive queue
	recvFrom  *queue // our receive queue
	once      sync.Once
	framesOut *telemetry.Counter
}

// memPipe is a whole in-memory channel — both ends and both queues — in
// one allocation.
type memPipe struct {
	a, b   memPort
	qa, qb queue // a's and b's receive queues
}

// Pipe creates an in-memory signaling channel and returns its two
// ports. aName and bName label the ends for diagnostics.
func Pipe(aName, bName string) (Port, Port) {
	framesIn := telemetry.C(MetricFramesIn)
	framesOut := telemetry.C(MetricFramesOut)
	depth := telemetry.G(MetricQueueDepth)
	mp := &memPipe{}
	mp.qa.init(depth, framesIn, 0)
	mp.qb.init(depth, framesIn, 0)
	mp.a.peerName, mp.a.sendTo, mp.a.recvFrom, mp.a.framesOut = bName, &mp.qb, &mp.qa, framesOut
	mp.b.peerName, mp.b.sendTo, mp.b.recvFrom, mp.b.framesOut = aName, &mp.qa, &mp.qb, framesOut
	return &mp.a, &mp.b
}

func (p *memPort) Send(e sig.Envelope) error {
	p.framesOut.Inc()
	return p.sendTo.push(e)
}

// RecvBatch implements BatchPort.
func (p *memPort) RecvBatch(buf []sig.Envelope) (int, bool) {
	return p.recvFrom.popBatch(buf)
}

func (p *memPort) Close() error {
	p.once.Do(func() {
		p.recvFrom.close()
		p.sendTo.close()
	})
	return nil
}

func (p *memPort) Peer() string { return p.peerName }

// memStripeCount is the number of independent listener-registry
// stripes in a MemNetwork. With one registry mutex, every Dial and
// Listen in the process serializes on a single lock — the mem fabric
// becomes the bottleneck the moment runners are sharded across cores.
// Striping by address hash keeps dial storms from different shards on
// different locks.
const memStripeCount = 16

type memStripe struct {
	mu        sync.Mutex
	listeners map[string]*memListener
}

// MemNetwork is an in-process Network: addresses are plain strings in
// a lock-striped registry. With ring ports enabled (NewRingMemNetwork)
// dialed channels are SPSC ring channels, which box runners drain
// inline; otherwise they are queue pipes, which any number of
// goroutines may send on and a runner pumps.
type MemNetwork struct {
	rings   *ringMetrics // non-nil: dial ring pipes
	stripes [memStripeCount]memStripe
}

// NewMemNetwork creates an empty in-process network with queue-pipe
// channels.
func NewMemNetwork() *MemNetwork {
	n := &MemNetwork{}
	for i := range n.stripes {
		n.stripes[i].listeners = map[string]*memListener{}
	}
	return n
}

// NewRingMemNetwork creates an in-process network whose channels are
// SPSC ring ports (see RingPipe): a send or a drain takes no lock in
// steady state, an idle channel holds no slots, and a runner drains it
// on its shard loop, with no goroutine per port. Each port end must
// have a single sending goroutine — true for channels owned by box
// runners, not necessarily for layered transports (the reliability
// layer also sends from timer callbacks), which should stay on
// NewMemNetwork, whose queue pipes any goroutine may send on.
func NewRingMemNetwork() *MemNetwork {
	n := NewMemNetwork()
	n.rings = newRingMetrics()
	return n
}

// stripe maps an address to its registry stripe (FNV-1a).
func (n *MemNetwork) stripe(addr string) *memStripe {
	h := uint32(2166136261)
	for i := 0; i < len(addr); i++ {
		h ^= uint32(addr[i])
		h *= 16777619
	}
	return &n.stripes[h%memStripeCount]
}

type memListener struct {
	addr    string
	stripe  *memStripe
	accepts acceptQueue
}

// Listen implements Network.
func (n *MemNetwork) Listen(addr string) (Listener, error) {
	s := n.stripe(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.listeners[addr]; ok {
		return nil, fmt.Errorf("transport: address %q already in use", addr)
	}
	l := &memListener{addr: addr, stripe: s}
	l.accepts.init(16)
	s.listeners[addr] = l
	return l, nil
}

// Dial implements Network.
func (n *MemNetwork) Dial(addr string) (Port, error) {
	s := n.stripe(addr)
	s.mu.Lock()
	l, ok := s.listeners[addr]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no listener at %q", addr)
	}
	var near, far Port
	if n.rings != nil {
		near, far = newRingPipe(addr, "dialer", n.rings)
	} else {
		near, far = Pipe(addr, "dialer")
	}
	if err := l.accepts.offer(far, true); err != nil {
		near.Close()
		return nil, err
	}
	telemetry.C(MetricDials).Inc()
	return near, nil
}

func (l *memListener) Accept() (Port, error) {
	p, err := l.accepts.take()
	if err == nil {
		telemetry.C(MetricAccepts).Inc()
	}
	return p, err
}

func (l *memListener) Close() error {
	if l.accepts.close() {
		l.stripe.mu.Lock()
		delete(l.stripe.listeners, l.addr)
		l.stripe.mu.Unlock()
	}
	return nil
}

func (l *memListener) Addr() string { return l.addr }
