// Inter-shard tunnel multiplexing. A Mux carries many logical
// signaling channels over one carrier channel per remote peer, so a
// fleet of shard processes needs O(shards²) TCP connections rather
// than O(paths): every cross-shard box channel is a lightweight
// virtual channel (a channel id plus two queues) riding a shared
// carrier.
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
// Wire protocol, all MetaApp envelopes on the carrier:
//
//	mux/open  c=<cid> to=<logical>   open channel cid toward listener
//	mux/data  c=<cid> b=<bytes>      one envelope, binary-encoded
//	mux/close c=<cid>                either side hangs up cid
//
// Only the side that dialed a carrier opens logical channels on it
// (each shard dials its own carrier toward every peer), so channel ids
// are allocated by one side per carrier and cannot collide.
package transport

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"ipmedia/internal/sig"
	"ipmedia/internal/telemetry"
)

// Mux control envelope application names, never delivered to boxes.
const (
	muxOpenApp  = "mux/open"
	muxDataApp  = "mux/data"
	muxCloseApp = "mux/close"
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
	nextCID   atomic.Uint64

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
	l := &muxListener{m: m, name: logical, accept: make(chan Port, 256), done: make(chan struct{})}
	m.listeners[logical] = l
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
	cid := m.nextCID.Add(1)
	p := newMuxPort(c, cid, carrierAddr+"/"+logical)
	if !c.register(cid, p) {
		return nil, ErrClosed
	}
	err = c.port.Send(sig.Envelope{Meta: &sig.Meta{
		Kind: sig.MetaApp,
		App:  muxOpenApp,
		Attrs: sig.NewAttrs(
			"c", strconv.FormatUint(cid, 10),
			"to", logical,
		),
	}})
	if err != nil {
		c.unregister(cid)
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

// muxListener hands accepted logical channels to the box runtime.
type muxListener struct {
	m      *Mux
	name   string
	accept chan Port
	done   chan struct{}
	once   sync.Once
}

func (l *muxListener) Accept() (Port, error) {
	select {
	case p, ok := <-l.accept:
		if !ok {
			return nil, ErrClosed
		}
		return p, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *muxListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.m.forgetListener(l.name)
	})
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

	mu     sync.Mutex
	ports  map[uint64]*muxPort
	closed bool
}

func newMuxCarrier(m *Mux, addr string, p Port) *muxCarrier {
	return &muxCarrier{m: m, addr: addr, port: p, ports: map[uint64]*muxPort{}}
}

func (c *muxCarrier) register(cid uint64, p *muxPort) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	c.ports[cid] = p
	return true
}

func (c *muxCarrier) unregister(cid uint64) {
	c.mu.Lock()
	delete(c.ports, cid)
	c.mu.Unlock()
}

func (c *muxCarrier) lookup(cid uint64) *muxPort {
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

// handle routes one carrier envelope.
func (c *muxCarrier) handle(e sig.Envelope) {
	m := e.Meta
	if m == nil || m.Kind != sig.MetaApp {
		e.Release()
		c.m.drops.Inc()
		return
	}
	switch m.App {
	case muxOpenApp:
		cid, _ := strconv.ParseUint(m.Get("c"), 10, 64)
		logical := m.Get("to")
		e.Release()
		l := c.m.lookupListener(logical)
		if l == nil || cid == 0 {
			c.m.drops.Inc()
			c.sendClose(cid)
			return
		}
		p := newMuxPort(c, cid, "peer/"+logical)
		if !c.register(cid, p) {
			return
		}
		c.m.channels.Inc()
		select {
		case l.accept <- p:
		default:
			// Accept backlog full: refuse rather than stall the carrier —
			// every other logical channel on it would head-of-line block.
			c.unregister(cid)
			c.m.drops.Inc()
			c.sendClose(cid)
		}
	case muxDataApp:
		cid, _ := strconv.ParseUint(m.Get("c"), 10, 64)
		blob := m.Get("b")
		p := c.lookup(cid)
		if p == nil {
			e.Release()
			c.m.drops.Inc()
			return
		}
		inner, err := sig.UnmarshalEnvelope([]byte(blob))
		e.Release()
		if err != nil {
			c.m.drops.Inc()
			return
		}
		p.up.push(inner)
	case muxCloseApp:
		cid, _ := strconv.ParseUint(m.Get("c"), 10, 64)
		e.Release()
		if p := c.lookup(cid); p != nil {
			c.unregister(cid)
			p.up.close()
		}
	default:
		e.Release()
		c.m.drops.Inc()
	}
}

// sendClose tells the peer cid is dead (best-effort).
func (c *muxCarrier) sendClose(cid uint64) {
	c.port.Send(sig.Envelope{Meta: &sig.Meta{
		Kind:  sig.MetaApp,
		App:   muxCloseApp,
		Attrs: sig.NewAttrs("c", strconv.FormatUint(cid, 10)),
	}})
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
	c.ports = map[uint64]*muxPort{}
	c.mu.Unlock()
	c.port.Close()
	for _, p := range ports {
		p.up.close()
	}
	c.m.forgetCarrier(c)
}

// muxPort is one end of a logical channel: envelopes are binary-framed
// into mux/data envelopes on the carrier on the way out, and arrive
// in order on the up queue on the way in.
type muxPort struct {
	c      *muxCarrier
	cid    uint64
	cidStr string
	peer   string
	up     *queue
	once   sync.Once
}

func newMuxPort(c *muxCarrier, cid uint64, peer string) *muxPort {
	return &muxPort{
		c:      c,
		cid:    cid,
		cidStr: strconv.FormatUint(cid, 10),
		peer:   peer,
		up:     newQueue(telemetry.G(MetricQueueDepth), nil, 0),
	}
}

// Send implements Port: the envelope is encoded into a carrier data
// envelope. The carrier's reliable layer owns retransmission.
func (p *muxPort) Send(e sig.Envelope) error {
	buf, err := e.AppendBinary(nil)
	if err != nil {
		return err
	}
	return p.c.port.Send(sig.Envelope{Meta: &sig.Meta{
		Kind: sig.MetaApp,
		App:  muxDataApp,
		Attrs: sig.NewAttrs(
			"b", string(buf),
			"c", p.cidStr,
		),
	}})
}

// RecvBatch implements BatchPort.
func (p *muxPort) RecvBatch(buf []sig.Envelope) (int, bool) {
	return p.up.popBatch(buf)
}

func (p *muxPort) Close() error {
	p.once.Do(func() {
		p.c.unregister(p.cid)
		p.up.close()
		p.c.sendClose(p.cid)
	})
	return nil
}

func (p *muxPort) Peer() string { return p.peer }
