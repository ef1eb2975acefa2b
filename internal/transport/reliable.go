// The reliable layer: at-least-once retransmission, duplicate
// suppression, and transparent reconnection over lossy, severable
// links. The slot FSM (paper Figures 9/10) and the Section V temporal
// formulas are proved over two-way FIFO reliable channels; RelNetwork
// restores exactly that abstraction when the wire underneath drops,
// duplicates, reorders, or dies. Stacked as RelNetwork(FaultNetwork(
// mem|tcp)) it is the recovery half of the chaos story: the fault
// layer breaks the wire, this layer repairs the channel, and the box
// runtime above sees at most a delivery blip.
//
// Protocol. Every data envelope is stamped with a per-channel sequence
// number (slot.SendTracker) and retained until cumulatively acked.
// The receiver (slot.RecvTracker) delivers in order, absorbs
// reordering, and drops duplicates, counting them under
// slot.dup_dropped. Acks are cumulative and delayed: a short wheel
// timer batches them, and every AckEvery deliveries forces one out
// immediately. A rexmit timer resends the unacked suffix once the
// oldest retained envelope has gone a full RexmitInterval without ack
// progress (it restarts on every ack that releases something), counted
// under slot.retransmits. Control traffic (hello, ack) travels as
// MetaApp envelopes with no multiplexer channel id, consumed by this
// layer; boxes never see it, and delivered envelopes have their
// sequence stripped, so nothing above this layer changes. Envelopes
// that carry a channel id belong to a mux riding this channel and
// pass through whatever they say. Envelopes the wire format cannot
// carry are refused at Send.
//
// Reconnection. The dialing side owns recovery: when the underlying
// port dies it re-dials with exponential backoff plus jitter on the
// shared timer wheel, then replays a hello carrying the channel id and
// its cumulative ack. The accepting side rebinds a hello with a known
// id to the existing RelPort — same identity, same queues — so
// runners see a blip rather than a portLost. Both sides trim their
// send buffers from the hello acks and retransmit the rest. Recovery
// is bounded: a channel that stays down past GiveUpAfter is abandoned
// (path.giveups), its receive queue closes, and the runner's portLost
// path drives the slots to closed — degraded, but never wedged.
package transport

import (
	"math/rand"
	"strconv"
	"sync"
	"time"

	"ipmedia/internal/sig"
	"ipmedia/internal/slot"
	"ipmedia/internal/telemetry"
	"ipmedia/internal/timerwheel"
)

// Control envelope application names, never delivered to boxes.
const (
	relHelloApp = "rel/hello"
	relAckApp   = "rel/ack"
	// relResetApp is the acceptor's refusal of a resume hello whose
	// channel identity it does not know: the acceptor lost its channel
	// state (typically a process restart), so the dialer's sequence
	// space is meaningless to it. The dialer must fail the channel
	// cleanly rather than re-adopt it — re-adopting would wedge the
	// receiver behind sequence numbers that will never arrive.
	relResetApp = "rel/reset"
)

// resetMeta is the shared payload of every reset envelope.
var resetMeta = &sig.Meta{Kind: sig.MetaApp, App: relResetApp}

// ackMeta is the shared payload of every ack envelope; the cumulative
// ack rides in the envelope's Seq field, so acking allocates nothing.
var ackMeta = &sig.Meta{Kind: sig.MetaApp, App: relAckApp}

// ownMeta returns e's meta-signal if it addresses this channel itself,
// nil otherwise. An envelope with a multiplexer channel id (Chan != 0)
// belongs to a logical channel riding this one: whatever its meta says,
// it is neither this layer's control traffic nor a teardown of this
// channel — a box's teardown crossing a carrier must not mark the
// carrier as closing.
func ownMeta(e sig.Envelope) *sig.Meta {
	if e.Chan != 0 {
		return nil
	}
	return e.Meta
}

// RelConfig tunes the reliable layer. The zero value gets defaults
// sized for the shared 5ms timer wheel.
type RelConfig struct {
	// RexmitInterval is how long the send side waits without ack
	// progress before it retransmits the unacked envelopes. Default
	// 60ms.
	RexmitInterval time.Duration
	// AckDelay is how long a cumulative ack may wait to batch with
	// later deliveries. Default 15ms (must be well under
	// RexmitInterval or every envelope retransmits once).
	AckDelay time.Duration
	// AckEvery forces an immediate ack after this many deliveries.
	// Default 32.
	AckEvery int
	// RedialMin/RedialMax bound the exponential reconnect backoff.
	// Defaults 10ms and 640ms.
	RedialMin time.Duration
	RedialMax time.Duration
	// GiveUpAfter bounds recovery: a channel continuously down this
	// long is abandoned. Default 10s.
	GiveUpAfter time.Duration
	// Seed seeds the backoff jitter PRNG.
	Seed int64
}

func (c RelConfig) withDefaults() RelConfig {
	if c.RexmitInterval <= 0 {
		c.RexmitInterval = 60 * time.Millisecond
	}
	if c.AckDelay <= 0 {
		c.AckDelay = 15 * time.Millisecond
	}
	if c.AckEvery <= 0 {
		c.AckEvery = 32
	}
	if c.RedialMin <= 0 {
		c.RedialMin = 10 * time.Millisecond
	}
	if c.RedialMax < c.RedialMin {
		c.RedialMax = 640 * time.Millisecond
	}
	if c.GiveUpAfter <= 0 {
		c.GiveUpAfter = 10 * time.Second
	}
	return c
}

// RelNetwork layers reliability over any Network. Both ends of a
// channel must run the layer: its ports speak the hello/ack protocol.
type RelNetwork struct {
	under Network
	cfg   RelConfig
	wheel *timerwheel.Wheel

	mu     sync.Mutex
	rng    *rand.Rand
	nextID uint64

	reconnects *telemetry.Counter
	giveups    *telemetry.Counter
	resets     *telemetry.Counter
	retransmit *telemetry.Counter
	dupDropped *telemetry.Counter
}

// NewRelNetwork wraps under with the reliable layer.
func NewRelNetwork(under Network, cfg RelConfig) *RelNetwork {
	return &RelNetwork{
		under:      under,
		cfg:        cfg.withDefaults(),
		wheel:      procWheel(),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		reconnects: telemetry.C(MetricReconnects),
		giveups:    telemetry.C(MetricGiveups),
		resets:     telemetry.C(MetricResets),
		retransmit: telemetry.C(slot.MetricRetransmits),
		dupDropped: telemetry.C(slot.MetricDupDropped),
	}
}

func (n *RelNetwork) jitter(d time.Duration) time.Duration {
	n.mu.Lock()
	j := time.Duration(n.rng.Int63n(int64(d)/2 + 1))
	n.mu.Unlock()
	return d + j
}

func (n *RelNetwork) newChannelID(addr string) string {
	n.mu.Lock()
	id := n.nextID
	n.nextID++
	salt := n.rng.Uint32()
	n.mu.Unlock()
	return addr + "#" + strconv.FormatUint(id, 10) + "." + strconv.FormatUint(uint64(salt), 16)
}

// Dial implements Network: it dials the underlying network, announces
// a fresh channel identity, and returns the reliable port.
func (n *RelNetwork) Dial(addr string) (Port, error) {
	under, in, err := n.dialUnder(addr)
	if err != nil {
		return nil, err
	}
	p := newRelPort(n, n.newChannelID(addr), addr, true)
	p.adopt(under, in, 0)
	return p, nil
}

// dialUnder dials the underlying network for a wire the layer's pump
// can read.
func (n *RelNetwork) dialUnder(addr string) (Port, BatchPort, error) {
	under, err := n.under.Dial(addr)
	if err != nil {
		return nil, nil, err
	}
	in, err := batchOf(under, "the reliable layer")
	return under, in, err
}

// Listen implements Network.
func (n *RelNetwork) Listen(addr string) (Listener, error) {
	under, err := n.under.Listen(addr)
	if err != nil {
		return nil, err
	}
	l := &relListener{
		under: under,
		net:   n,
		byID:  map[string]*RelPort{},
	}
	l.accepts.init(16)
	go l.run()
	return l, nil
}

// relListener greets every accepted underlying channel and either
// surfaces a new RelPort or rebinds a reconnect to its existing one.
type relListener struct {
	under   Listener
	net     *RelNetwork
	accepts acceptQueue

	mu   sync.Mutex
	byID map[string]*RelPort
}

func (l *relListener) run() {
	for {
		p, err := l.under.Accept()
		if err != nil {
			l.Close()
			return
		}
		go l.greet(p)
	}
}

// greet reads the hello that opens every reliable channel and routes
// the connection: a known id rebinds, an unknown one is a new channel.
// The hello may have been dropped by a faulty wire while data behind
// it survived, so greet skips a bounded amount of non-hello traffic —
// the dialer retries its hello, and the skipped data is sequenced, so
// retransmission replays it once the channel is bound.
func (l *relListener) greet(under Port) {
	in, err := batchOf(under, "the reliable layer")
	if err != nil {
		return // the dialing side reports it
	}
	var buf [1]sig.Envelope
	for skipped := 0; ; skipped++ {
		if skipped > 1024 {
			under.Close() // not speaking the reliable protocol
			return
		}
		if c, ok := in.RecvBatch(buf[:]); !ok || c == 0 {
			under.Close()
			return
		}
		if m := ownMeta(buf[0]); m != nil && m.Kind == sig.MetaApp && m.App == relHelloApp {
			break
		}
	}
	hello := buf[0]
	m := hello.Meta
	id := m.Get("id")
	resume := m.Get("mode") == "resume"
	peerAck64, _ := strconv.ParseUint(m.Get("ack"), 10, 32)
	peerAck := uint32(peerAck64)
	hello.Release() // layer control, consumed here (attr strings stay valid)

	l.mu.Lock()
	p, known := l.byID[id]
	if !known && resume {
		// The dialer is resuming a channel we have no state for: this
		// process restarted since the channel was established. Adopting
		// it as new would wedge the dialer's receive window behind
		// sequence numbers that died with the old process — refuse with
		// a reset so the dialer fails the channel fast and redials a
		// fresh one.
		l.mu.Unlock()
		under.Send(sig.Envelope{Meta: resetMeta})
		under.Close()
		return
	}
	if !known {
		p = newRelPort(l.net, id, "", false)
		p.lst = l
		l.byID[id] = p
	}
	l.mu.Unlock()

	if known {
		p.rebind(under, in, peerAck)
		return
	}
	p.adopt(under, in, peerAck)
	l.accepts.offer(p, true)
}

func (l *relListener) forget(id string) {
	l.mu.Lock()
	delete(l.byID, id)
	l.mu.Unlock()
}

func (l *relListener) Accept() (Port, error) { return l.accepts.take() }

func (l *relListener) Close() error {
	if l.accepts.close() {
		l.under.Close()
	}
	return nil
}

func (l *relListener) Addr() string { return l.under.Addr() }

// RelPort is one end of a reliable signaling channel. It implements
// Port, BatchPort and InlinePort; its identity survives reconnection of
// the underlying transport.
type RelPort struct {
	net *RelNetwork
	cfg RelConfig
	id  string

	dialer bool
	addr   string       // redial target (dialer side)
	lst    *relListener // registry to leave on close (acceptor side)

	up *queue // in-order deliveries, Seq stripped

	mu          sync.Mutex
	under       Port // nil while disconnected
	gen         int  // bumps on every (re)bind; stales old pumps
	resumed     bool // dialer side: at least one redial happened; hellos carry mode=resume
	st          slot.SendTracker
	rt          slot.RecvTracker
	closing     bool // clean shutdown observed; do not recover or count a giveup
	closed      bool
	lingering   bool // Close deferred until the unacked tail is delivered
	greeted     bool // the current binding has seen incoming traffic
	rexmitArmed bool
	rexmitFrom  time.Time // start of the current wait for ack progress
	ackPending  bool
	sinceAck    int
	downSince   time.Time
}

func newRelPort(n *RelNetwork, id, addr string, dialer bool) *RelPort {
	return &RelPort{
		net:    n,
		cfg:    n.cfg,
		id:     id,
		dialer: dialer,
		addr:   addr,
		up:     newQueue(telemetry.G(MetricQueueDepth), nil, 0),
	}
}

// adopt binds the first underlying port: sends our hello, trims from
// the peer's ack, and starts the pump.
func (p *RelPort) adopt(under Port, in BatchPort, peerAck uint32) {
	p.mu.Lock()
	p.under = under
	p.gen++
	gen := p.gen
	p.greeted = false
	p.st.Ack(peerAck)
	p.sendHelloLocked(under)
	p.armHelloRetryLocked(gen, 0)
	p.mu.Unlock()
	go p.pump(under, in, gen)
}

// rebind swaps a reconnected underlying port into a live channel:
// hello back, trim, retransmit the unacked suffix, restart the pump.
// Boxes above notice nothing.
func (p *RelPort) rebind(under Port, in BatchPort, peerAck uint32) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		under.Close()
		return
	}
	if old := p.under; old != nil {
		// A reconnect raced a live binding (e.g. the peer redialed
		// before our pump saw the death): the newest wire wins.
		old.Close()
	}
	if p.dialer {
		p.resumed = true
	}
	p.under = under
	p.gen++
	gen := p.gen
	p.greeted = false
	p.downSince = time.Time{}
	p.st.Ack(peerAck)
	p.sendHelloLocked(under)
	p.armHelloRetryLocked(gen, 0)
	p.resendUnackedLocked(under)
	p.armRexmitLocked()
	p.mu.Unlock()
	go p.pump(under, in, gen)
}

// sendHelloLocked announces identity and receive progress on a fresh
// underlying port. A dialer that has redialed at least once marks its
// hello mode=resume, licensing the acceptor to reset the channel if it
// no longer knows the identity. Caller holds p.mu.
func (p *RelPort) sendHelloLocked(under Port) {
	mode := "new"
	if p.resumed {
		mode = "resume"
	}
	under.Send(sig.Envelope{Meta: &sig.Meta{
		Kind: sig.MetaApp,
		App:  relHelloApp,
		Attrs: sig.NewAttrs(
			"id", p.id,
			"ack", strconv.FormatUint(uint64(p.rt.CumAck()), 10),
			"mode", mode,
		),
	}})
}

// maxHelloTries bounds hello retransmission; past it the ordinary
// give-up machinery owns the outcome.
const maxHelloTries = 8

// armHelloRetryLocked guards the one unsequenced envelope of the
// protocol: the hello that announces a binding. A lossy wire may eat
// it, leaving the acceptor never learning the channel exists, so the
// hello is re-sent on the wheel until the binding sees any incoming
// traffic — proof the peer knows us. Caller holds p.mu.
func (p *RelPort) armHelloRetryLocked(gen, tries int) {
	if tries >= maxHelloTries {
		return
	}
	p.net.wheel.Schedule(p.cfg.RexmitInterval, func() { p.onHelloRetry(gen, tries) })
}

func (p *RelPort) onHelloRetry(gen, tries int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.greeted || p.gen != gen || p.under == nil {
		return
	}
	p.sendHelloLocked(p.under)
	p.armHelloRetryLocked(gen, tries+1)
}

// resendUnackedLocked retransmits every retained envelope and
// restarts the wait for ack progress. Caller holds p.mu.
func (p *RelPort) resendUnackedLocked(under Port) {
	p.rexmitFrom = time.Now()
	n := 0
	p.st.Unacked(func(e sig.Envelope) bool {
		n++
		return under.Send(e) == nil
	})
	if n > 0 {
		p.net.retransmit.Add(uint64(n))
	}
}

// Send implements Port. Every envelope is stamped and retained until
// acked; while the channel is between wires the envelope is only
// retained, and the eventual rebind replays it. An envelope the wire
// format cannot carry is refused before it is stamped, with an error
// wrapping sig.ErrUnencodable: retained, it would fail every wire it
// was replayed on, and the channel would redial forever.
func (p *RelPort) Send(e sig.Envelope) error {
	if err := e.Validate(); err != nil {
		return err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if m := ownMeta(e); m != nil && m.Kind == sig.MetaTeardown {
		// The box is tearing the channel down cleanly; losing the wire
		// after this is not a fault worth recovering.
		p.closing = true
	}
	if p.st.Len() == 0 {
		p.rexmitFrom = time.Now() // nothing was waiting: the wait starts with this envelope
	}
	stamped := p.st.Stamp(e)
	under := p.under
	p.armRexmitLocked()
	p.mu.Unlock()
	if under == nil {
		return nil
	}
	// The envelope is in the send tracker: even if this wire dies mid-
	// send, the retransmit path delivers it over the next one. A wire
	// error here is not a channel error — the pump notices the loss and
	// redials — so the reliable contract ("accepted for delivery")
	// holds and Send reports success.
	under.Send(stamped)
	return nil
}

// armRexmitLocked keeps exactly one retransmit timer alive while
// anything is unacked, due a full RexmitInterval after the wait for
// ack progress last restarted. Caller holds p.mu.
func (p *RelPort) armRexmitLocked() {
	if p.rexmitArmed || p.closed || p.st.Len() == 0 {
		return
	}
	p.rexmitArmed = true
	p.net.wheel.Schedule(p.cfg.RexmitInterval-time.Since(p.rexmitFrom), p.onRexmit)
}

// onRexmit resends only if a full interval passed without ack
// progress; an ack (or a first envelope into an empty tracker) since
// the timer was armed just moves the deadline, so a loss-free channel
// never retransmits however steadily it sends.
func (p *RelPort) onRexmit() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rexmitArmed = false
	if p.closed || p.st.Len() == 0 {
		return
	}
	if time.Since(p.rexmitFrom) >= p.cfg.RexmitInterval {
		if under := p.under; under != nil {
			p.resendUnackedLocked(under)
		} else {
			p.rexmitFrom = time.Now() // between wires: the rebind replays
		}
	}
	p.armRexmitLocked()
}

// pump drains one underlying port (in is its receive side) into the
// channel. One pump runs per binding; gen stales it after a rebind.
func (p *RelPort) pump(under Port, in BatchPort, gen int) {
	buf := make([]sig.Envelope, 64)
	for {
		n, ok := in.RecvBatch(buf)
		if !ok {
			break
		}
		for i := 0; i < n; i++ {
			p.handleIn(buf[i], gen)
		}
	}
	p.wireLost(under, gen)
}

// handleIn routes one arriving envelope: layer control is consumed
// here, data goes through the receive tracker to the up queue. gen
// identifies the binding the envelope arrived on, so stale pumps
// cannot mark a fresh binding as greeted.
func (p *RelPort) handleIn(e sig.Envelope, gen int) {
	m := ownMeta(e)
	if m != nil && m.Kind == sig.MetaApp {
		switch m.App {
		case relAckApp:
			e.Release() // layer control, consumed here
			p.mu.Lock()
			if gen == p.gen {
				p.greeted = true
			}
			if p.st.Ack(e.Seq) > 0 {
				p.rexmitFrom = time.Now()
			}
			done := p.lingering && p.st.Len() == 0
			p.mu.Unlock()
			if done {
				p.closeNow() // the lingering tail is delivered; finish the close
			}
			return
		case relResetApp:
			// The acceptor does not know this channel (its process
			// restarted): the channel is unrecoverable. Fail it now —
			// the up queue closes, the runner sees portLost and
			// synthesizes a teardown, and the box above redials a fresh
			// channel with a fresh identity.
			e.Release() // layer control, consumed here
			p.reset(gen)
			return
		case relHelloApp:
			// A hello on a live binding is the peer's reply after a
			// reconnect: trim and replay what it still lacks.
			ack64, _ := strconv.ParseUint(m.Get("ack"), 10, 32)
			e.Release() // layer control, consumed here
			p.mu.Lock()
			if gen == p.gen {
				p.greeted = true
			}
			p.st.Ack(uint32(ack64))
			if under := p.under; under != nil {
				p.resendUnackedLocked(under)
				p.armRexmitLocked()
			}
			p.mu.Unlock()
			return
		}
	}
	p.mu.Lock()
	if gen == p.gen {
		p.greeted = true
	}
	if m != nil && m.Kind == sig.MetaTeardown {
		// The peer is tearing down cleanly: the wire dying next is
		// expected, not a fault to recover.
		p.closing = true
	}
	if p.rt.Accept(e, p.deliver) {
		e.Release() // duplicate: dropped without delivery
		p.net.dupDropped.Inc()
	}
	p.scheduleAckLocked()
	p.mu.Unlock()
}

// deliver hands one in-order envelope to the box side, sequence
// stripped so everything above this layer sees the paper's wire.
// Called by rt.Accept with p.mu held.
func (p *RelPort) deliver(e sig.Envelope) {
	e.Seq = 0
	p.up.push(e)
}

// scheduleAckLocked batches cumulative acks: a short timer sweeps up
// a burst, and every AckEvery deliveries forces one out now. Caller
// holds p.mu.
func (p *RelPort) scheduleAckLocked() {
	p.sinceAck++
	if p.sinceAck >= p.cfg.AckEvery {
		p.sendAckLocked()
		return
	}
	if !p.ackPending {
		p.ackPending = true
		p.net.wheel.Schedule(p.cfg.AckDelay, p.flushAck)
	}
}

func (p *RelPort) flushAck() {
	p.mu.Lock()
	p.ackPending = false
	if !p.closed && p.sinceAck > 0 {
		p.sendAckLocked()
	}
	p.mu.Unlock()
}

// sendAckLocked emits the cumulative ack in the envelope's Seq field
// over a shared static meta: acking allocates nothing. Caller holds
// p.mu.
func (p *RelPort) sendAckLocked() {
	p.sinceAck = 0
	cum := p.rt.CumAck()
	if cum == 0 || p.under == nil {
		return
	}
	p.under.Send(sig.Envelope{Seq: cum, Meta: ackMeta})
}

// wireLost is the pump's parting report: the underlying port died.
// Dialer side starts the backoff redial ladder; acceptor side waits
// for the peer to come back, bounded by the give-up budget either way.
func (p *RelPort) wireLost(under Port, gen int) {
	p.mu.Lock()
	if p.gen != gen || p.under != under {
		p.mu.Unlock()
		return // a rebind already replaced this wire
	}
	p.under = nil
	// The wire is dead for receiving but its send side may still hold
	// resources (a TCP writer goroutine, a socket fd): release it.
	under.Close()
	if p.closed || p.closing {
		closed := p.closed
		p.closed = true
		p.mu.Unlock()
		if !closed {
			p.finish()
		}
		return
	}
	p.downSince = time.Now()
	p.mu.Unlock()
	if p.dialer {
		p.net.wheel.Schedule(p.net.jitter(p.cfg.RedialMin), func() {
			go p.tryRedial(gen, p.cfg.RedialMin, time.Now().Add(p.cfg.GiveUpAfter))
		})
	} else {
		p.net.wheel.Schedule(p.cfg.GiveUpAfter, func() { p.giveupIfDown(gen) })
	}
}

// tryRedial attempts one reconnect; failures climb the backoff ladder
// on the timer wheel until the give-up deadline passes. Runs on its
// own goroutine (dials block).
func (p *RelPort) tryRedial(gen int, backoff time.Duration, deadline time.Time) {
	p.mu.Lock()
	stale := p.closed || p.closing || p.gen != gen || p.under != nil
	p.mu.Unlock()
	if stale {
		return
	}
	under, in, err := p.net.dialUnder(p.addr)
	if err == nil {
		p.net.reconnects.Inc()
		p.rebind(under, in, p.peerAckUnknown())
		return
	}
	if time.Now().After(deadline) {
		p.giveupIfDown(gen)
		return
	}
	next := backoff * 2
	if next > p.cfg.RedialMax {
		next = p.cfg.RedialMax
	}
	p.net.wheel.Schedule(p.net.jitter(next), func() {
		go p.tryRedial(gen, next, deadline)
	})
}

// peerAckUnknown: a re-dial does not yet know the peer's progress, so
// it trims nothing and lets the hello reply do it.
func (p *RelPort) peerAckUnknown() uint32 { return 0 }

// reset fails the channel promptly after the peer refused to resume
// it: unlike a giveup there is nothing to wait for — the peer is alive
// and has authoritatively disowned the identity.
func (p *RelPort) reset(gen int) {
	p.mu.Lock()
	if p.closed || p.gen != gen {
		p.mu.Unlock()
		return
	}
	p.closed = true
	under := p.under
	p.under = nil
	p.mu.Unlock()
	if under != nil {
		under.Close()
	}
	p.net.resets.Inc()
	p.finish()
}

// giveupIfDown abandons the channel if it has been continuously down
// since generation gen: recovery is bounded, degradation is not
// silent.
func (p *RelPort) giveupIfDown(gen int) {
	p.mu.Lock()
	if p.closed || p.closing || p.gen != gen || p.under != nil {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.net.giveups.Inc()
	p.finish()
}

// finish releases everything once the channel is over: the up queue
// closes (runners see portLost and synthesize teardown) and the
// listener registry forgets the identity.
func (p *RelPort) finish() {
	p.up.close()
	if p.lst != nil {
		p.lst.forget(p.id)
	}
}

// RecvBatch implements BatchPort.
func (p *RelPort) RecvBatch(buf []sig.Envelope) (int, bool) {
	return p.up.popBatch(buf)
}

// SetReady implements InlinePort: the layer's reader of the wire below
// raises the edge.
func (p *RelPort) SetReady(fn func()) { p.up.setReady(fn) }

// TryRecvBatch implements InlinePort.
func (p *RelPort) TryRecvBatch(buf []sig.Envelope) (int, bool) {
	return p.up.tryPopBatch(buf)
}

// lingerFactor bounds how long a closing port may keep its wire alive
// to finish delivering the unacked tail, in retransmit intervals.
const lingerFactor = 4

// Close implements Port: a local, clean teardown of the channel. The
// box runtime closes a port immediately after sending its teardown;
// if that tail is still unacked — it may have been dropped by the
// wire — the port lingers briefly, retransmitting, so a clean close
// under loss does not degrade into the peer's giveup.
func (p *RelPort) Close() error {
	p.mu.Lock()
	if p.closed || p.lingering {
		p.mu.Unlock()
		return nil
	}
	p.closing = true
	p.up.close() // the local box is done receiving either way
	if p.st.Len() > 0 && p.under != nil {
		p.lingering = true
		p.armRexmitLocked()
		p.net.wheel.Schedule(lingerFactor*p.cfg.RexmitInterval, p.closeNow)
		p.mu.Unlock()
		return nil
	}
	p.mu.Unlock()
	p.closeNow()
	return nil
}

// closeNow completes a close: cut the wire, release everything.
func (p *RelPort) closeNow() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	under := p.under
	p.under = nil
	p.mu.Unlock()
	if under != nil {
		under.Close()
	}
	p.finish()
}

// Peer implements Port.
func (p *RelPort) Peer() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.under != nil {
		return p.under.Peer()
	}
	if p.addr != "" {
		return p.addr + " (reconnecting)"
	}
	return p.id + " (reconnecting)"
}

// ID returns the channel identity carried across reconnects; it names
// the channel in diagnostics.
func (p *RelPort) ID() string { return p.id }
