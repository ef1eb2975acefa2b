// Inter-shard tunnel multiplexing. A Mux carries many logical
// signaling channels over one carrier channel per remote peer, so a
// fleet of shard processes needs O(shards²) TCP connections rather
// than O(paths): every cross-shard box channel is a lightweight
// virtual channel (a channel id and a receive queue, one allocation)
// riding a shared carrier.
//
// The carrier is expected to be a reliable channel — in the cluster
// runtime it is RelNetwork over TCPNetwork — so the mux inherits FIFO
// reliable delivery per carrier and, transitively, per logical
// channel. A carrier outage shorter than the reliable layer's give-up
// budget is invisible here: the rel layer retransmits and re-dials
// underneath, and every logical channel rides out the blip. A carrier
// that dies for real (give-up, rel/reset after the peer lost its
// channel state, or explicit invalidation when a restarted shard comes
// back on a new address) takes all its logical channels down at once;
// each surfaces to its box runner as an ordinary port loss.
//
// Wire protocol. The logical channel id rides in the envelope header
// (sig.Envelope.Chan, a header word of the channel-tagged wire tags):
//
//	Chan=cid, any envelope          one envelope of channel cid, as sent
//	Chan=0, t<cid>:open(<logical>)  open channel cid toward listener
//	Chan=0, t<cid>:close            either side hangs up cid
//
// A logical channel's envelope is handed to the carrier as it is, with
// only Chan set: one encode and one decode per envelope, by the
// carrier's own wire, and nothing copied in between. The receiving mux
// clears Chan and queues the envelope for the logical channel. Frames
// without a channel id are the mux's own: tunnel signals whose tunnel
// index is the channel id, the open's medium naming the logical
// listener. Nothing a box sends can be mistaken for them, nor for the
// reliable layer's control traffic, which also travels without one.
//
// Only the side that dialed a carrier opens logical channels on it
// (each shard dials its own carrier toward every peer), so channel ids
// are allocated by one side per carrier and cannot collide.
package transport

import (
	"fmt"
	"sync"

	"ipmedia/internal/sig"
	"ipmedia/internal/telemetry"
)

// Telemetry instrument names exported by the mux.
const (
	// MetricMuxChannels counts logical channels opened over carriers
	// (both directions of every cross-shard box channel).
	MetricMuxChannels = "transport.mux_channels"
	// MetricMuxDrops counts carrier envelopes that could not be routed:
	// data or close for an unknown channel id (the channel raced a
	// carrier death), or an open for a logical listener that does not
	// exist on this peer.
	MetricMuxDrops = "transport.mux_drops"
)

// Mux multiplexes logical signaling channels over per-peer carrier
// channels. One Mux serves both roles: it accepts carriers from peers
// (ListenCarrier + Listen) and dials carriers toward peers (Dial).
type Mux struct {
	under Network

	mu        sync.Mutex
	closed    bool
	carriers  map[string]*muxCarrier // dialed carriers by remote addr
	listeners map[string]*muxListener
	lst       Listener // carrier accept listener, nil until ListenCarrier

	channels *telemetry.Counter
	drops    *telemetry.Counter
}

// NewMux creates a mux over the carrier network. under should provide
// reliable channels (RelNetwork in production); the mux adds no
// retransmission of its own.
func NewMux(under Network) *Mux {
	return &Mux{
		under:     under,
		carriers:  map[string]*muxCarrier{},
		listeners: map[string]*muxListener{},
		channels:  telemetry.C(MetricMuxChannels),
		drops:     telemetry.C(MetricMuxDrops),
	}
}

// ListenCarrier starts accepting carrier channels from peers at addr
// and returns the bound address (useful with ":0").
func (m *Mux) ListenCarrier(addr string) (string, error) {
	l, err := m.under.Listen(addr)
	if err != nil {
		return "", err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		l.Close()
		return "", ErrClosed
	}
	m.lst = l
	m.mu.Unlock()
	go func() {
		for {
			p, err := l.Accept()
			if err != nil {
				return
			}
			if in, err := batchOf(p, "the mux"); err == nil {
				go newMuxCarrier(m, "", p).serve(in)
			}
		}
	}()
	return l.Addr(), nil
}

// Listen registers a logical listener: peers dialing this name over
// any carrier reach it.
func (m *Mux) Listen(logical string) (Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if _, ok := m.listeners[logical]; ok {
		return nil, fmt.Errorf("transport: mux: logical address %q already in use", logical)
	}
	l := &muxListener{m: m, name: logical}
	l.accepts.init(muxAcceptBacklog)
	m.listeners[logical] = l
	// Opens name the listener: seed the decoder so a carrier's open
	// frames decode without allocating.
	sig.InternSeed(logical)
	return l, nil
}

// Dial opens a logical channel toward the listener named logical on
// the peer whose carrier address is carrierAddr, dialing the carrier
// itself on first use. The open is optimistic: if the peer has no such
// listener it hangs the channel up, which the caller observes as a
// port loss.
func (m *Mux) Dial(carrierAddr, logical string) (Port, error) {
	c, err := m.carrier(carrierAddr)
	if err != nil {
		return nil, err
	}
	p := newMuxPort(c, 0, logical)
	if !c.open(p) {
		return nil, ErrClosed
	}
	if err := c.port.Send(muxOpen(p.cid, logical)); err != nil {
		c.unregister(p)
		return nil, err
	}
	m.channels.Inc()
	return p, nil
}

// carrier returns the dialed carrier toward addr, establishing it on
// first use.
func (m *Mux) carrier(addr string) (*muxCarrier, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := m.carriers[addr]; ok {
		m.mu.Unlock()
		return c, nil
	}
	m.mu.Unlock()

	// Dial outside the lock (it blocks); racers may both dial, the
	// loser's carrier is closed.
	p, err := m.under.Dial(addr)
	if err != nil {
		return nil, err
	}
	in, err := batchOf(p, "the mux")
	if err != nil {
		return nil, err
	}
	c := newMuxCarrier(m, addr, p)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		p.Close()
		return nil, ErrClosed
	}
	if prior, ok := m.carriers[addr]; ok {
		m.mu.Unlock()
		p.Close()
		return prior, nil
	}
	m.carriers[addr] = c
	m.mu.Unlock()
	go c.serve(in)
	return c, nil
}

// Invalidate tears down the dialed carrier toward addr, failing every
// logical channel on it. The cluster router calls it when a restarted
// shard reappears on a different address: redials climbing the backoff
// ladder toward the dead address would otherwise pin those channels
// down until the reliable layer's give-up budget expires.
func (m *Mux) Invalidate(addr string) {
	m.mu.Lock()
	c := m.carriers[addr]
	delete(m.carriers, addr)
	m.mu.Unlock()
	if c != nil {
		c.close()
	}
}

// Close tears the mux down: the carrier listener, every carrier, and
// every logical channel.
func (m *Mux) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	lst := m.lst
	carriers := make([]*muxCarrier, 0, len(m.carriers))
	for _, c := range m.carriers {
		carriers = append(carriers, c)
	}
	m.carriers = map[string]*muxCarrier{}
	listeners := make([]*muxListener, 0, len(m.listeners))
	for _, l := range m.listeners {
		listeners = append(listeners, l)
	}
	m.mu.Unlock()
	if lst != nil {
		lst.Close()
	}
	for _, c := range carriers {
		c.close()
	}
	for _, l := range listeners {
		l.Close()
	}
}

func (m *Mux) lookupListener(name string) *muxListener {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.listeners[name]
}

func (m *Mux) forgetListener(name string) {
	m.mu.Lock()
	delete(m.listeners, name)
	m.mu.Unlock()
}

// forgetCarrier drops a dead dialed carrier from the table so the next
// Dial establishes a fresh one.
func (m *Mux) forgetCarrier(c *muxCarrier) {
	if c.addr == "" {
		return // accepted carrier, never in the table
	}
	m.mu.Lock()
	if m.carriers[c.addr] == c {
		delete(m.carriers, c.addr)
	}
	m.mu.Unlock()
}

// muxAcceptBacklog is how many accepted logical channels a listener
// queues for Accept before it refuses opens.
const muxAcceptBacklog = 256

// muxListener hands accepted logical channels to the box runtime.
type muxListener struct {
	m       *Mux
	name    string
	accepts acceptQueue
}

func (l *muxListener) Accept() (Port, error) { return l.accepts.take() }

func (l *muxListener) Close() error {
	if l.accepts.close() {
		l.m.forgetListener(l.name)
	}
	return nil
}

func (l *muxListener) Addr() string { return l.name }

// muxCarrier is one carrier channel and the logical channels riding
// it. addr is the remote carrier address for dialed carriers, "" for
// accepted ones.
type muxCarrier struct {
	m    *Mux
	addr string
	port Port

	mu      sync.Mutex
	ports   map[uint32]*muxPort
	lastCID uint32 // dialing side: the channel id allocated last
	closed  bool
}

func newMuxCarrier(m *Mux, addr string, p Port) *muxCarrier {
	return &muxCarrier{m: m, addr: addr, port: p, ports: map[uint32]*muxPort{}}
}

// open registers a dialed logical channel under the next free channel
// id, which it assigns to p. Ids are never 0 (that is the carrier's
// own traffic) and, after the 32-bit space wraps, skip ids still open.
func (c *muxCarrier) open(p *muxPort) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	for {
		c.lastCID++
		if _, taken := c.ports[c.lastCID]; c.lastCID != 0 && !taken {
			break
		}
	}
	p.cid = c.lastCID
	c.ports[p.cid] = p
	return true
}

// register records an accepted logical channel under the id the peer
// chose for it.
func (c *muxCarrier) register(p *muxPort) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	c.ports[p.cid] = p
	return true
}

// unregister forgets p, unless its id already names another channel.
func (c *muxCarrier) unregister(p *muxPort) {
	c.mu.Lock()
	if c.ports[p.cid] == p {
		delete(c.ports, p.cid)
	}
	c.mu.Unlock()
}

func (c *muxCarrier) lookup(cid uint32) *muxPort {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ports[cid]
}

// serve drains the carrier (in is its port's receive side), routing
// control and data to logical channels, until the carrier dies; then
// every logical channel on it dies too.
func (c *muxCarrier) serve(in BatchPort) {
	buf := make([]sig.Envelope, 64)
	for {
		n, ok := in.RecvBatch(buf)
		if !ok {
			break
		}
		for i := 0; i < n; i++ {
			c.handle(buf[i])
		}
	}
	c.close()
}

// handle routes one carrier envelope: a channel's own envelope to its
// queue, as received and with the channel id cleared; a frame without
// a channel id to the open/close protocol.
func (c *muxCarrier) handle(e sig.Envelope) {
	if e.Chan != 0 {
		p := c.lookup(e.Chan)
		if p == nil {
			e.Release()
			c.m.drops.Inc()
			return
		}
		e.Chan = 0
		p.up.push(e)
		return
	}
	cid := uint32(e.Tunnel)
	switch {
	case e.IsMeta() || cid == 0:
		e.Release()
		c.m.drops.Inc()
	case e.Sig.Kind == sig.KindOpen:
		c.accept(cid, string(e.Sig.Medium))
	case e.Sig.Kind == sig.KindClose:
		if p := c.lookup(cid); p != nil {
			c.unregister(p)
			p.up.close()
		}
	default:
		c.m.drops.Inc()
	}
}

// accept opens the peer's channel cid toward the named listener, or
// hangs it up if there is no such listener or its backlog is full.
func (c *muxCarrier) accept(cid uint32, logical string) {
	l := c.m.lookupListener(logical)
	if l == nil {
		c.m.drops.Inc()
		c.port.Send(muxClose(cid))
		return
	}
	p := newMuxPort(c, cid, logical)
	if !c.register(p) {
		return
	}
	c.m.channels.Inc()
	// A full backlog refuses rather than stalls the carrier — every
	// other logical channel on it would head-of-line block — and so
	// does a listener closed since the lookup; either hangs p up.
	if l.accepts.offer(p, false) != nil {
		c.m.drops.Inc()
	}
}

// muxOpen is the carrier frame opening channel cid toward the listener
// named logical.
func muxOpen(cid uint32, logical string) sig.Envelope {
	return sig.Envelope{Tunnel: int(cid), Sig: sig.Signal{Kind: sig.KindOpen, Medium: sig.Medium(logical)}}
}

// muxClose is the carrier frame hanging channel cid up.
func muxClose(cid uint32) sig.Envelope {
	return sig.Envelope{Tunnel: int(cid), Sig: sig.Close()}
}

// close tears the carrier down and fails every logical channel on it.
func (c *muxCarrier) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	ports := make([]*muxPort, 0, len(c.ports))
	for _, p := range c.ports {
		ports = append(ports, p)
	}
	c.ports = map[uint32]*muxPort{}
	c.mu.Unlock()
	c.port.Close()
	for _, p := range ports {
		p.up.close()
	}
	c.m.forgetCarrier(c)
}

// muxPort is one end of a logical channel: envelopes go out on the
// carrier tagged with the channel id, and arrive in order on the up
// queue. The port and its queue are one allocation.
type muxPort struct {
	c       *muxCarrier
	cid     uint32
	logical string // the listener's name, for Peer
	once    sync.Once
	up      queue
}

func newMuxPort(c *muxCarrier, cid uint32, logical string) *muxPort {
	p := &muxPort{c: c, cid: cid, logical: logical}
	p.up.init(telemetry.G(MetricQueueDepth), nil, 0)
	return p
}

// Send implements Port: the envelope goes to the carrier as it is, with
// the channel id set — the carrier's wire encodes it once, and the
// carrier's reliable layer owns retransmission. As on every port, the
// envelope's Meta goes with it: the sender must not modify it until the
// transport is done with it. An envelope the wire format cannot carry
// is refused here, before it can reach the carrier every other logical
// channel shares.
func (p *muxPort) Send(e sig.Envelope) error {
	if err := e.Validate(); err != nil {
		return err
	}
	e.Chan = p.cid
	return p.c.port.Send(e)
}

// RecvBatch implements BatchPort.
func (p *muxPort) RecvBatch(buf []sig.Envelope) (int, bool) {
	return p.up.popBatch(buf)
}

// SetReady implements InlinePort: the carrier's reader raises the edge.
func (p *muxPort) SetReady(fn func()) { p.up.setReady(fn) }

// TryRecvBatch implements InlinePort.
func (p *muxPort) TryRecvBatch(buf []sig.Envelope) (int, bool) {
	return p.up.tryPopBatch(buf)
}

func (p *muxPort) Close() error {
	p.once.Do(func() {
		p.c.unregister(p)
		p.up.close()
		p.c.port.Send(muxClose(p.cid))
	})
	return nil
}

// Peer implements Port.
func (p *muxPort) Peer() string {
	if p.c.addr == "" {
		return "peer/" + p.logical
	}
	return p.c.addr + "/" + p.logical
}
