// TCP transport: signaling channels over real sockets, using the
// framed binary encoding of package sig. Signaling is low-bandwidth
// but demands reliability, which is why the paper assumes TCP for
// inter-component channels (Section I).
package transport

import (
	"bufio"
	"io"
	"net"
	"sync"

	"ipmedia/internal/sig"
	"ipmedia/internal/telemetry"
)

// SendQueueCap bounds each TCP port's send queue. A peer that stops
// reading cannot make the local process buffer without limit: once
// this many envelopes are queued unwritten, Send fails with ErrBacklog
// and the port is torn down, which the box runtime turns into the same
// channel-loss teardown as a broken socket. Set before creating ports.
var SendQueueCap = 4096

// countingWriter adds every written byte to a counter. The counter is
// nil-safe, so the wrapper costs one nil check when telemetry is off.
type countingWriter struct {
	w io.Writer
	c *telemetry.Counter
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(uint64(n))
	return n, err
}

// countingReader adds every read byte to a counter.
type countingReader struct {
	r io.Reader
	c *telemetry.Counter
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(uint64(n))
	return n, err
}

// tcpPort adapts a net.Conn to the Port interface. Outgoing envelopes
// are queued (bounded by SendQueueCap) and written by a dedicated
// goroutine so Send never blocks on the socket; incoming frames are
// decoded by a reader goroutine. The writer drains the queue in
// batches through a buffered writer, so a burst of N envelopes costs
// one syscall, not N.
type tcpPort struct {
	conn net.Conn
	out  *queue // envelopes awaiting write to the socket
	in   *queue // envelopes decoded from the socket
	once sync.Once
	wg   sync.WaitGroup

	framesOut *telemetry.Counter
	framesIn  *telemetry.Counter
	wireOut   countingWriter
	wireIn    countingReader
}

// NewTCPPort wraps an established connection as a signaling-channel
// port.
func NewTCPPort(conn net.Conn) Port {
	p := &tcpPort{
		conn:      conn,
		out:       newQueue(telemetry.G(MetricSendQueueDepth), nil, SendQueueCap),
		in:        newQueue(telemetry.G(MetricQueueDepth), nil, 0),
		framesOut: telemetry.C(MetricFramesOut),
		framesIn:  telemetry.C(MetricFramesIn),
		wireOut:   countingWriter{w: conn, c: telemetry.C(MetricBytesOut)},
		wireIn:    countingReader{r: conn, c: telemetry.C(MetricBytesIn)},
	}
	p.wg.Add(2)
	go p.writer()
	go p.reader()
	return p
}

func (p *tcpPort) writer() {
	defer p.wg.Done()
	bw := bufio.NewWriter(p.wireOut)
	buf := make([]sig.Envelope, 64)
	for {
		n, ok := p.out.popBatch(buf)
		if !ok {
			break
		}
		for i := 0; i < n; i++ {
			if err := sig.WriteFrame(bw, buf[i]); err != nil {
				p.Close()
				return
			}
			p.framesOut.Inc()
		}
		if err := bw.Flush(); err != nil {
			p.Close()
			return
		}
	}
	bw.Flush()
	// Queue closed: half-close the write side if possible so the peer's
	// reader sees EOF after the last frame.
	if tc, ok := p.conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
}

func (p *tcpPort) reader() {
	defer p.wg.Done()
	// One FrameReader per connection: it reads whatever the socket holds
	// into one reused buffer and decodes every complete frame from it,
	// so a burst costs one read(2). The decoded Envelope owns its
	// strings/slices, so reusing the buffer between frames is safe.
	fr := sig.NewFrameReader(p.wireIn)
	for {
		e, err := fr.ReadFrame()
		if err != nil {
			p.in.close()
			return
		}
		p.framesIn.Inc()
		if p.in.push(e) != nil {
			return
		}
	}
}

// Send implements Port. An envelope the wire format cannot carry is
// refused here, with an error wrapping sig.ErrUnencodable, rather than
// queued: the writer would fail on it after Send had reported success,
// and take the channel down with it.
func (p *tcpPort) Send(e sig.Envelope) error {
	if err := e.Validate(); err != nil {
		return err
	}
	err := p.out.push(e)
	if err == ErrBacklog {
		// The peer has stalled past the cap: fail the whole channel. The
		// runtime observes the port loss and synthesizes teardowns for the
		// tunnels that were using it, exactly as for a broken socket.
		telemetry.C(MetricBacklogDropped).Inc()
		p.Close()
	}
	return err
}

// RecvBatch implements BatchPort.
func (p *tcpPort) RecvBatch(buf []sig.Envelope) (int, bool) {
	return p.in.popBatch(buf)
}

// SetReady implements InlinePort: the reader goroutine raises the edge.
func (p *tcpPort) SetReady(fn func()) { p.in.setReady(fn) }

// TryRecvBatch implements InlinePort.
func (p *tcpPort) TryRecvBatch(buf []sig.Envelope) (int, bool) {
	return p.in.tryPopBatch(buf)
}

func (p *tcpPort) Close() error {
	p.once.Do(func() {
		p.out.close()
		p.in.close()
		p.conn.Close()
	})
	return nil
}

func (p *tcpPort) Peer() string { return p.conn.RemoteAddr().String() }

// TCPNetwork implements Network over the operating system's TCP stack.
type TCPNetwork struct{}

type tcpListener struct {
	l net.Listener
}

// Listen implements Network. Use addr ":0" to bind an ephemeral port
// and read it back from Addr.
func (TCPNetwork) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l}, nil
}

// Dial implements Network.
func (TCPNetwork) Dial(addr string) (Port, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	telemetry.C(MetricDials).Inc()
	return NewTCPPort(conn), nil
}

func (l *tcpListener) Accept() (Port, error) {
	conn, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	telemetry.C(MetricAccepts).Inc()
	return NewTCPPort(conn), nil
}

func (l *tcpListener) Close() error { return l.l.Close() }

func (l *tcpListener) Addr() string { return l.l.Addr().String() }
