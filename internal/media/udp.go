// A media plane carried over real UDP datagrams on the local host:
// the production-shaped counterpart of the in-memory Plane. Media is
// high-bandwidth and loss-tolerant, so "it is common to use RTP for
// media streams, because limited packet loss is preferable to delay"
// (paper Section I); this carrier plays the RTP role with a minimal
// binary header (source address, codec, sequence number).
//
// The transmit pipeline is persistent and batched: each transmitting
// agent owns one connected UDP socket (re-dialed only when the target
// changes), packets are encoded append-style into a per-sender arena,
// and a whole batch leaves in one sendmmsg on platforms that have it —
// one syscall per burst instead of a dial+write+close per packet. The
// receive side mirrors it: per-socket reader goroutines drain batches
// with recvmmsg into a reused buffer arena and classify datagrams
// straight from the wire bytes. A portable per-datagram loop backs
// both directions and is selected at runtime (SetBatchIO) or wherever
// the batched syscalls are unavailable.
package media

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ipmedia/internal/telemetry"
)

// Registry is the media-plane interface endpoints program against:
// both the in-memory Plane and the UDPPlane implement it.
type Registry interface {
	// Agent creates and registers an agent receiving at origin.
	Agent(name string, origin AddrPort) *Agent
}

// PacedPlane is implemented by planes that can stream an agent's
// outgoing media continuously on a dedicated transmitter (the UDP
// plane). Endpoints use it to keep media flowing without external
// Tick driving.
type PacedPlane interface {
	Registry
	StartPacer(a *Agent, interval time.Duration, batch int) *Pacer
}

var (
	_ Registry   = (*Plane)(nil)
	_ Registry   = (*UDPPlane)(nil)
	_ PacedPlane = (*UDPPlane)(nil)
)

// batchSize is the number of datagrams staged per sendmmsg/recvmmsg
// call — the syscall amortization factor of the fast path.
const batchSize = 32

// UDPPlane registers agents on real UDP sockets. Agent origins must
// use IP addresses (e.g. 127.0.0.1); packets are sent as datagrams and
// classified by the receiving agent exactly as on the in-memory plane.
type UDPPlane struct {
	mu      sync.Mutex
	agents  map[AddrPort]*Agent
	conns   []*net.UDPConn
	senders map[*Agent]*udpSender
	pacers  []*Pacer
	errs    []error
	wg      sync.WaitGroup
	closed  bool

	batch            atomic.Bool // sendmmsg/recvmmsg fast path enabled
	decodeErrLogged  atomic.Bool // first undecodable datagram recorded in errs
	framingErrLogged atomic.Bool // first payload-integrity failure recorded in errs

	framing FramingFactory

	mDecodeErr *telemetry.Counter
}

// NewUDPPlane creates an empty UDP media plane. The batched syscall
// fast path is on wherever the platform supports it.
func NewUDPPlane() *UDPPlane {
	p := &UDPPlane{
		agents:     map[AddrPort]*Agent{},
		senders:    map[*Agent]*udpSender{},
		mDecodeErr: telemetry.C(MetricDecodeErrors),
	}
	p.batch.Store(batchIOSupported)
	return p
}

// SetBatchIO selects between the batched sendmmsg/recvmmsg fast path
// and the portable per-datagram loop at runtime. Forcing it on where
// the platform lacks the syscalls is a no-op. Call it before traffic
// flows: readers already parked in a batched receive finish that batch
// on the old setting.
func (p *UDPPlane) SetBatchIO(on bool) {
	p.batch.Store(on && batchIOSupported)
}

// SetFraming installs a framing factory: every agent created after
// this call gets its own Framing instance, installed before the
// agent's reader starts. Call before endpoints register their agents.
func (p *UDPPlane) SetFraming(f FramingFactory) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.framing = f
}

// Errs returns socket errors recorded during operation.
func (p *UDPPlane) Errs() []error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]error(nil), p.errs...)
}

func (p *UDPPlane) fail(err error) {
	p.mu.Lock()
	p.errs = append(p.errs, err)
	p.mu.Unlock()
}

func (p *UDPPlane) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Agent implements Registry: it binds origin's UDP socket and starts a
// reader that classifies incoming datagrams.
func (p *UDPPlane) Agent(name string, origin AddrPort) *Agent {
	a := NewAgent(name, origin)
	p.mu.Lock()
	f := p.framing
	p.mu.Unlock()
	if f != nil {
		a.SetFraming(f())
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.ParseIP(origin.Addr), Port: origin.Port})
	if err != nil {
		p.fail(fmt.Errorf("media: bind %s: %w", origin, err))
		return a
	}
	// A deep receive buffer absorbs paced bursts while the reader is
	// descheduled; best-effort, some kernels clamp it.
	_ = conn.SetReadBuffer(1 << 20)
	p.mu.Lock()
	p.agents[origin] = a
	p.conns = append(p.conns, conn)
	p.mu.Unlock()
	p.wg.Add(1)
	go p.readLoop(a, conn, newBatchIO(conn, batchSize, maxDatagram))
	return a
}

// readLoop drains one agent's socket until it closes. The batched leg
// pulls up to batchSize datagrams per recvmmsg into the reader's
// arena; the portable leg reads one datagram at a time into a single
// reused buffer. Either way no allocation happens per datagram.
func (p *UDPPlane) readLoop(a *Agent, conn *net.UDPConn, bio *batchIO) {
	defer p.wg.Done()
	var buf []byte // portable leg's reused buffer, allocated on first use
	for {
		if bio != nil && p.batch.Load() {
			_, err := bio.recv(func(dgram []byte) { p.deliverDatagram(a, dgram) })
			if err != nil {
				if !errors.Is(err, net.ErrClosed) && !p.isClosed() {
					p.fail(fmt.Errorf("media: recv %s: %w", a.Origin(), err))
				}
				return
			}
			continue
		}
		if buf == nil {
			buf = make([]byte, maxDatagram)
		}
		n, _, err := conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		p.deliverDatagram(a, buf[:n])
	}
}

// deliverDatagram classifies one datagram at an agent. Undecodable
// datagrams are counted (media.decode_errors) and the first one is
// recorded in the plane's error list so tests and operators see why a
// stream is silent instead of a blind drop; payload-integrity failures
// are counted separately by the framing (ts.crc_errors et al.) with
// their own first-occurrence record.
func (p *UDPPlane) deliverDatagram(a *Agent, b []byte) {
	err := a.deliverWire(b)
	if err == nil {
		return
	}
	if errors.Is(err, ErrFraming) {
		if p.framingErrLogged.CompareAndSwap(false, true) {
			p.fail(fmt.Errorf("media: payload integrity failure at %s: %w", a.Name(), err))
		}
		return
	}
	p.mDecodeErr.Inc()
	if p.decodeErrLogged.CompareAndSwap(false, true) {
		p.fail(fmt.Errorf("media: undecodable datagram for %s: %w", a.Name(), err))
	}
}

// senderFor returns the agent's persistent transmitter, creating it on
// first use.
func (p *UDPPlane) senderFor(a *Agent) *udpSender {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.senders[a]
	if s == nil {
		s = &udpSender{
			plane: p,
			agent: a,
			arena: make([]byte, batchSize*maxDatagram),
			msgs:  make([][]byte, batchSize),
		}
		p.senders[a] = s
	}
	return s
}

// udpSender is one agent's transmit half: a connected socket kept open
// across packets (re-dialed only when the target changes) plus the
// staging arena batches are encoded into. All sends for one agent are
// serialized by mu (pacer vs. Tick).
type udpSender struct {
	mu    sync.Mutex
	plane *UDPPlane
	agent *Agent
	dst   AddrPort
	conn  *net.UDPConn
	bio   *batchIO
	arena []byte
	msgs  [][]byte
}

// send transmits up to n packets, in batches of batchSize, stopping
// early if the agent is not (or stops) transmitting.
func (s *udpSender) send(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.plane.isClosed() {
		return
	}
	for sent := 0; sent < n; {
		want := n - sent
		if want > batchSize {
			want = batchSize
		}
		k, to := s.agent.emitBatchInto(s.arena, s.msgs, want)
		if k == 0 {
			return
		}
		if err := s.ensureConn(to); err != nil {
			s.plane.fail(err)
			return
		}
		if !s.flush(s.msgs[:k]) {
			return
		}
		sent += k
	}
}

// ensureConn points the sender's connected socket at to, dialing only
// when the target changed.
func (s *udpSender) ensureConn(to AddrPort) error {
	if s.conn != nil && to == s.dst {
		return nil
	}
	if s.conn != nil {
		s.conn.Close()
		s.conn, s.bio = nil, nil
	}
	conn, err := net.DialUDP("udp", nil, &net.UDPAddr{IP: net.ParseIP(to.Addr), Port: to.Port})
	if err != nil {
		return fmt.Errorf("media: dial %s: %w", to, err)
	}
	_ = conn.SetWriteBuffer(1 << 20)
	s.conn, s.dst = conn, to
	s.bio = newBatchIO(conn, batchSize, 0) // send side: headers only, no receive arena
	s.plane.trackConn(conn)
	return nil
}

// trackConn records a sender socket for Close; a socket dialed while
// the plane is closing is closed immediately instead of leaking.
func (p *UDPPlane) trackConn(c *net.UDPConn) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		return
	}
	p.conns = append(p.conns, c)
	p.mu.Unlock()
}

// flush sends one staged batch, via sendmmsg when the fast path is on
// and the portable per-datagram loop otherwise. Returns false after
// recording an error.
func (s *udpSender) flush(msgs [][]byte) bool {
	if s.bio != nil && s.plane.batch.Load() {
		if err := s.bio.send(msgs); err != nil {
			if !errors.Is(err, net.ErrClosed) && !s.plane.isClosed() {
				s.plane.fail(fmt.Errorf("media: send %s: %w", s.dst, err))
			}
			return false
		}
		return true
	}
	for _, m := range msgs {
		if _, err := s.conn.Write(m); err != nil {
			if !errors.Is(err, net.ErrClosed) && !s.plane.isClosed() {
				s.plane.fail(err)
			}
			return false
		}
	}
	return true
}

// Pacer streams one agent's outgoing media continuously: a dedicated
// goroutine transmitting a batch of packets every interval through the
// agent's persistent sender. It self-gates on the agent's transmission
// state — while the agent is not sending, ticks are no-ops — so it can
// be started once and left running across reconfigurations.
type Pacer struct {
	s    *udpSender
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// StartPacer starts a pacer for a: every interval it transmits up to
// batch packets (batch < 1 is treated as 1). The pacer is stopped by
// Pacer.Stop or plane Close.
func (p *UDPPlane) StartPacer(a *Agent, interval time.Duration, batch int) *Pacer {
	if batch < 1 {
		batch = 1
	}
	pc := &Pacer{s: p.senderFor(a), stop: make(chan struct{}), done: make(chan struct{})}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		close(pc.done)
		return pc
	}
	p.pacers = append(p.pacers, pc)
	p.mu.Unlock()
	go pc.run(interval, batch)
	return pc
}

func (pc *Pacer) run(interval time.Duration, batch int) {
	defer close(pc.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-pc.stop:
			return
		case <-t.C:
			pc.s.send(batch)
		}
	}
}

// Stop halts the pacer and waits for its goroutine. Idempotent.
func (pc *Pacer) Stop() {
	pc.once.Do(func() { close(pc.stop) })
	<-pc.done
}

// Tick is a compatibility shim over the persistent-socket pipeline:
// every transmitting agent sends n packets, batched through its
// persistent connected socket. Delivery is asynchronous; use
// AwaitStats-style polling in tests.
func (p *UDPPlane) Tick(n int) {
	for _, a := range p.sortedAgents() {
		p.senderFor(a).send(n)
	}
}

func (p *UDPPlane) sortedAgents() []*Agent {
	p.mu.Lock()
	agents := make([]*Agent, 0, len(p.agents))
	for _, a := range p.agents {
		agents = append(agents, a)
	}
	p.mu.Unlock()
	sort.Slice(agents, func(i, j int) bool { return agents[i].name < agents[j].name })
	return agents
}

// Flows mirrors Plane.Flows over the registered agents.
func (p *UDPPlane) Flows() []Flow {
	p.mu.Lock()
	agents := make([]*Agent, 0, len(p.agents))
	byAddr := make(map[AddrPort]string, len(p.agents))
	for _, a := range p.agents {
		agents = append(agents, a)
		byAddr[a.Origin()] = a.name
	}
	p.mu.Unlock()
	return flowGraph(agents, byAddr)
}

// HasFlow mirrors Plane.HasFlow.
func (p *UDPPlane) HasFlow(from, to string) bool {
	for _, f := range p.Flows() {
		if f.From == from && f.To == to {
			return true
		}
	}
	return false
}

// Close stops the pacers, shuts all sockets down, and waits for the
// readers.
func (p *UDPPlane) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	pacers := p.pacers
	conns := p.conns
	p.mu.Unlock()
	for _, pc := range pacers {
		pc.Stop()
	}
	for _, c := range conns {
		c.Close()
	}
	p.wg.Wait()
}
