package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ipmedia/internal/sig"
)

func env(tunnel int, seq uint32) sig.Envelope {
	return sig.Envelope{Tunnel: tunnel, Sig: sig.Describe(&sig.Descriptor{
		ID: sig.DescID{Origin: "t", Seq: seq}, Addr: "a", Port: 1, Codecs: []sig.Codec{sig.G711},
	})}
}

// recvWithin returns the next envelope from p through whichever receive
// contract p carries; ok is false once p is closed and drained. Neither
// happening within d fails the test.
func recvWithin(t testing.TB, p Port, d time.Duration) (sig.Envelope, bool) {
	t.Helper()
	var buf [1]sig.Envelope
	timeout := time.After(d)
	switch rp := p.(type) {
	case InlinePort:
		wake := make(chan struct{}, 1)
		rp.SetReady(func() {
			select {
			case wake <- struct{}{}:
			default:
			}
		})
		for {
			if n, ok := rp.TryRecvBatch(buf[:]); n == 1 || !ok {
				return buf[0], n == 1
			}
			select {
			case <-wake:
			case <-timeout:
				t.Fatalf("nothing received from %s within %v", p.Peer(), d)
			}
		}
	case BatchPort:
		got := make(chan bool, 1)
		go func() {
			n, _ := rp.RecvBatch(buf[:])
			got <- n == 1
		}()
		select {
		case ok := <-got:
			return buf[0], ok
		case <-timeout:
			t.Fatalf("nothing received from %s within %v", p.Peer(), d)
		}
	default:
		t.Fatalf("%T is neither an InlinePort nor a BatchPort", p)
	}
	return sig.Envelope{}, false
}

func recvOne(t *testing.T, p Port) sig.Envelope {
	t.Helper()
	e, ok := recvWithin(t, p, 5*time.Second)
	if !ok {
		t.Fatal("port closed")
	}
	return e
}

func testPortPair(t *testing.T, a, b Port) {
	t.Helper()
	// FIFO in both directions, interleaved.
	const n = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := a.Send(env(0, uint32(i))); err != nil {
				t.Errorf("a.Send: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := b.Send(env(1, uint32(i))); err != nil {
				t.Errorf("b.Send: %v", err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		e := recvOne(t, b)
		if e.Sig.Desc.ID.Seq != uint32(i) {
			t.Fatalf("b received seq %d, want %d (FIFO violated)", e.Sig.Desc.ID.Seq, i)
		}
		e = recvOne(t, a)
		if e.Sig.Desc.ID.Seq != uint32(i) {
			t.Fatalf("a received seq %d, want %d (FIFO violated)", e.Sig.Desc.ID.Seq, i)
		}
	}
	wg.Wait()

	// Close propagates to the peer's receive side.
	a.Close()
	for {
		if _, ok := recvWithin(t, b, 5*time.Second); !ok {
			return
		}
	}
}

func TestMemPipeFIFO(t *testing.T) {
	a, b := Pipe("a", "b")
	testPortPair(t, a, b)
}

func TestTCPPortFIFO(t *testing.T) {
	var tn TCPNetwork
	l, err := tn.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var b Port
	var acceptErr error
	done := make(chan struct{})
	go func() {
		b, acceptErr = l.Accept()
		close(done)
	}()
	a, err := tn.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if acceptErr != nil {
		t.Fatal(acceptErr)
	}
	testPortPair(t, a, b)
}

func TestMemNetworkDialListen(t *testing.T) {
	n := NewMemNetwork()
	l, err := n.Listen("pbx")
	if err != nil {
		t.Fatal(err)
	}
	if l.Addr() != "pbx" {
		t.Fatalf("addr = %q", l.Addr())
	}
	go func() {
		p, err := n.Dial("pbx")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		p.Send(env(0, 42))
	}()
	p, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if e := recvOne(t, p); e.Sig.Desc.ID.Seq != 42 {
		t.Fatalf("got seq %d", e.Sig.Desc.ID.Seq)
	}
}

func TestMemNetworkDialUnknown(t *testing.T) {
	n := NewMemNetwork()
	if _, err := n.Dial("nobody"); err == nil {
		t.Fatal("dial to unknown address must fail")
	}
}

func TestMemNetworkDuplicateListen(t *testing.T) {
	n := NewMemNetwork()
	if _, err := n.Listen("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("x"); err == nil {
		t.Fatal("duplicate listen must fail")
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	n := NewMemNetwork()
	l, _ := n.Listen("x")
	errc := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	l.Close()
	select {
	case err := <-errc:
		if err != ErrClosed {
			t.Fatalf("accept error = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("accept did not unblock")
	}
	// Address is reusable after close.
	if _, err := n.Listen("x"); err != nil {
		t.Fatalf("relisten after close: %v", err)
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	a, b := Pipe("a", "b")
	a.Close()
	if err := a.Send(env(0, 1)); err == nil {
		t.Fatal("send after close must fail")
	}
	_ = b
}

func TestUnboundedSendNeverBlocks(t *testing.T) {
	// A box must be able to queue arbitrarily many signals without a
	// reader; this is what makes the FIFO-reliable abstraction safe
	// against two boxes sending to each other simultaneously.
	a, _ := Pipe("a", "b")
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10000; i++ {
			a.Send(env(0, uint32(i)))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sends blocked without a reader")
	}
}

func TestTCPRoundTripAllSignalKinds(t *testing.T) {
	var tn TCPNetwork
	l, err := tn.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		p, err := l.Accept()
		if err != nil {
			return
		}
		in, buf := p.(BatchPort), make([]sig.Envelope, 8)
		for {
			n, ok := in.RecvBatch(buf)
			if !ok {
				return
			}
			for _, e := range buf[:n] {
				p.Send(e) // echo
			}
		}
	}()
	a, err := tn.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	d := &sig.Descriptor{ID: sig.DescID{Origin: "x", Seq: 1}, Addr: "h", Port: 9, Codecs: []sig.Codec{sig.G711}}
	msgs := []sig.Envelope{
		{Tunnel: 0, Sig: sig.Open(sig.Audio, d)},
		{Tunnel: 1, Sig: sig.Oack(d)},
		{Tunnel: 2, Sig: sig.Close()},
		{Tunnel: 3, Sig: sig.CloseAck()},
		{Tunnel: 4, Sig: sig.Describe(d)},
		{Tunnel: 5, Sig: sig.Select(sig.Selector{Answers: d.ID, Addr: "h2", Port: 10, Codec: sig.G711})},
		{Meta: &sig.Meta{Kind: sig.MetaApp, App: "paid"}},
	}
	for _, m := range msgs {
		if err := a.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got := recvOne(t, a)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("echo %d: got %v want %v", i, got, want)
		}
	}
}

// TestQueueReadyEdgeRace: a queue's readiness edge — the InlinePort
// side of TCP, rel and mux ports — under producers racing each other
// and a close. Eight producers send 2 000 tagged envelopes each into
// one in-memory pipe end while the consumer drains the queue behind
// the other only when its edge fires; in one round one producer closes
// the pipe halfway through its envelopes, while the others are
// sending. Every envelope whose Send succeeded arrives exactly once and
// in its producer's order, and the consumer, woken by nothing but
// edges, sees the end of the channel: no wake-up is lost.
func TestQueueReadyEdgeRace(t *testing.T) {
	const producers, each = 8, 2000
	for _, racing := range []bool{false, true} {
		a, b := Pipe("producers", "consumer")
		q := b.(*memPort).recvFrom
		wake := make(chan struct{}, 1)
		q.setReady(func() {
			select {
			case wake <- struct{}{}:
			default:
			}
		})

		var sent [producers]int
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if a.Send(sig.Envelope{Tunnel: p, Seq: uint32(i)}) != nil {
						return
					}
					sent[p]++
					if racing && p == 0 && i == each/2 {
						a.Close()
					}
				}
			}(p)
		}

		var got [producers]int
		total := 0
		var bad []string
		buf := make([]sig.Envelope, 64)
		deadline := time.After(10 * time.Second)
	consume:
		for {
			select {
			case <-wake:
			case <-deadline:
				t.Fatalf("racing=%v: no edge for the rest of the channel: got %v", racing, got)
			}
			for {
				n, ok := q.tryPopBatch(buf)
				for _, e := range buf[:n] {
					if int(e.Seq) != got[e.Tunnel] {
						bad = append(bad, fmt.Sprintf("producer %d: envelope %d arrived as number %d", e.Tunnel, e.Seq, got[e.Tunnel]))
					}
					got[e.Tunnel]++
				}
				total += n
				if !ok {
					break consume
				}
				if n == 0 {
					break // re-armed: wait for the next edge
				}
			}
			if !racing && total == producers*each {
				a.Close()
			}
		}
		wg.Wait()
		for _, s := range bad[:min(len(bad), 5)] {
			t.Error(s)
		}
		if got != sent {
			t.Errorf("racing=%v: received %v, sent %v", racing, got, sent)
		}
		b.Close()
	}
}

// TestQueueIdleHoldsNoBuffer: a queue leases its buffer for a burst
// only. A pipe end drained empty after a burst of 1 or 2 envelopes — a
// drain of the blocking or the readiness contract — holds no buffer; a
// queue a burst of 5 grew keeps its grown buffer, so a bursty channel
// does not allocate a new one every burst.
func TestQueueIdleHoldsNoBuffer(t *testing.T) {
	a, b := Pipe("a", "b")
	defer a.Close()
	q := b.(*memPort).recvFrom
	if q.ring != nil {
		t.Fatal("a new pipe end holds a buffer")
	}
	var buf [8]sig.Envelope
	for _, c := range []struct {
		burst  int
		inline bool // drain with tryPopBatch, not RecvBatch
		keeps  bool
	}{{1, false, false}, {2, false, false}, {1, true, false}, {2, true, false}, {5, false, true}} {
		for i := 0; i < c.burst; i++ {
			if err := a.Send(env(1, uint32(i))); err != nil {
				t.Fatal(err)
			}
		}
		if q.ring == nil {
			t.Fatalf("a queue holding %d envelopes holds no buffer", c.burst)
		}
		grown := len(q.ring)
		for got := 0; got < c.burst; {
			var n int
			if c.inline {
				n, _ = q.tryPopBatch(buf[:])
			} else {
				n, _ = b.(BatchPort).RecvBatch(buf[:])
			}
			got += n
		}
		switch {
		case !c.keeps && q.ring != nil:
			t.Errorf("after a burst of %d (inline drain: %v) a queue drained empty holds %d slots", c.burst, c.inline, len(q.ring))
		case c.keeps && len(q.ring) != grown:
			t.Errorf("after a burst of %d a queue drained empty holds %d slots, want the %d it grew", c.burst, len(q.ring), grown)
		}
		for _, e := range q.ring {
			if e.Sig.Desc != nil {
				t.Fatalf("a drained queue's buffer still references an envelope")
			}
		}
	}
	if len(q.ring) <= queueInitCap {
		t.Fatalf("a burst of 5 left a buffer of %d slots: the grown case shows nothing", len(q.ring))
	}
}

// TestQueueSendDrainZeroAlloc: a send that leases a queue's buffer and
// the drain that empties the queue and gives it back allocate nothing
// in steady state, on an in-memory pipe and on a mux channel, whose
// carrier's reader goroutine fills the queue.
func TestQueueSendDrainZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	pa, pb := Pipe("a", "b")
	defer pa.Close()
	_, _, _, ma, mb := muxChannel(t, NewMemNetwork(), "carrier")
	for _, c := range []struct {
		name      string
		near, far Port
	}{{"pipe", pa, pb}, {"mux", ma, mb}} {
		bp := c.far.(BatchPort)
		var buf [4]sig.Envelope
		cycle := func() {
			c.near.Send(sig.Envelope{Tunnel: 1, Sig: sig.Close()})
			c.near.Send(sig.Envelope{Tunnel: 2, Sig: sig.Close()})
			for got := 0; got < 2; {
				n, ok := bp.RecvBatch(buf[:])
				if !ok {
					t.Fatalf("%s: channel closed", c.name)
				}
				got += n
			}
		}
		cycle()
		if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
			t.Errorf("%s: a send-drain cycle allocates %.2f times, want 0", c.name, allocs)
		}
	}
}

// TestListenerCloseHangsUpBacklog: closing a listener hangs up the
// channels queued in its accept backlog. Over an in-memory network of
// queue pipes or of rings, a mux and the reliable layer, three channels are dialed and queued,
// none accepted; once the listener closes, each dialer sees its channel
// close within a second — over the reliable layer, once its redials
// give up, there being no listener left. A port offered to a closed
// backlog is hung up, not queued.
func TestListenerCloseHangsUpBacklog(t *testing.T) {
	const dials = 3
	for _, c := range []struct {
		name string
		net  func(t *testing.T) Network
	}{
		{"mem", func(*testing.T) Network { return NewMemNetwork() }},
		{"ring", func(*testing.T) Network { return NewRingMemNetwork() }},
		{"mux", func(t *testing.T) Network {
			a, b, addr := muxPair(t, NewMemNetwork())
			return muxDialer{a, b, addr}
		}},
		{"rel", func(*testing.T) Network {
			return NewRelNetwork(NewMemNetwork(), RelConfig{GiveUpAfter: 200 * time.Millisecond})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := c.net(t)
			l, err := n.Listen("x")
			if err != nil {
				t.Fatal(err)
			}
			ports := make([]Port, dials)
			for i := range ports {
				if ports[i], err = n.Dial(l.Addr()); err != nil {
					t.Fatal(err)
				}
			}
			q := backlogOf(l)
			deadline := time.Now().Add(2 * time.Second)
			for q.queued() < dials {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d channels queued for Accept", q.queued(), dials)
				}
				time.Sleep(time.Millisecond)
			}
			l.Close()
			for i, p := range ports {
				if e, ok := recvWithin(t, p, time.Second); ok {
					t.Fatalf("dialer %d: received %v, want its channel closed", i, e)
				}
			}
			near, far := Pipe("near", "far")
			if err := q.offer(far, true); err != ErrClosed {
				t.Fatalf("a closed backlog took a port (%v)", err)
			}
			if _, ok := recvWithin(t, near, time.Second); ok {
				t.Fatal("a port offered to a closed backlog was not hung up")
			}
		})
	}
}

// muxDialer is a Network over a pair of muxes: a listens on b, and a
// dials b's carrier.
type muxDialer struct {
	a, b    *Mux
	carrier string
}

func (n muxDialer) Listen(addr string) (Listener, error) { return n.b.Listen(addr) }
func (n muxDialer) Dial(addr string) (Port, error)       { return n.a.Dial(n.carrier, addr) }

// backlogOf returns a listener's accept backlog.
func backlogOf(l Listener) *acceptQueue {
	switch l := l.(type) {
	case *memListener:
		return &l.accepts
	case *muxListener:
		return &l.accepts
	case *relListener:
		return &l.accepts
	}
	panic(fmt.Sprintf("no accept backlog in %T", l))
}

// queued reports how many ports wait in q for Accept.
func (q *acceptQueue) queued() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.ports)
}
