package transport

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"ipmedia/internal/sig"
	"ipmedia/internal/telemetry"
)

// drainInline consumes a ring port through the InlinePort path the way
// a runtime shard does: an edge-triggered readiness callback posting to
// a wake channel, then TryRecvBatch until empty.
func drainInline(t *testing.T, p Port, out chan<- sig.Envelope, done *sync.WaitGroup) {
	t.Helper()
	ip, ok := p.(InlinePort)
	if !ok {
		t.Fatalf("port %T is not an InlinePort", p)
	}
	wake := make(chan struct{}, 1)
	ip.SetReady(func() {
		select {
		case wake <- struct{}{}:
		default:
		}
	})
	done.Add(1)
	go func() {
		defer done.Done()
		var buf [8]sig.Envelope
		for range wake {
			for {
				n, open := ip.TryRecvBatch(buf[:])
				for i := 0; i < n; i++ {
					out <- buf[i]
				}
				if n == 0 {
					if !open {
						close(out)
						return
					}
					break // edge re-armed; wait for the next wake
				}
			}
		}
	}()
}

// TestRingFIFOThroughSpill pushes far more envelopes than the ring
// holds, forcing the spill path, and checks strict FIFO on the far end.
func TestRingFIFOThroughSpill(t *testing.T) {
	a, b := RingPipe("a", "b") // production capacity: most envelopes spill
	const total = 10000

	out := make(chan sig.Envelope, total)
	var wg sync.WaitGroup
	drainInline(t, b, out, &wg)

	go func() {
		for i := 0; i < total; i++ {
			if err := a.Send(sig.Envelope{Seq: uint32(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
		a.Close()
	}()

	for i := 0; i < total; i++ {
		e, ok := <-out
		if !ok {
			t.Fatalf("channel closed after %d of %d envelopes", i, total)
		}
		if e.Seq != uint32(i) {
			t.Fatalf("out of order: got seq %d at position %d", e.Seq, i)
		}
	}
	wg.Wait()
}

// TestRingBidirectional checks the two directions are independent and
// both flow.
func TestRingBidirectional(t *testing.T) {
	a, b := RingPipe("a", "b")
	if a.Peer() != "b" || b.Peer() != "a" {
		t.Fatalf("peer names: a.Peer=%q b.Peer=%q", a.Peer(), b.Peer())
	}

	const n = 200
	go func() {
		for i := 0; i < n; i++ {
			a.Send(sig.Envelope{Seq: uint32(i)})
		}
	}()
	go func() {
		for i := 0; i < n; i++ {
			b.Send(sig.Envelope{Seq: uint32(1000 + i)})
		}
	}()

	for i := 0; i < n; i++ {
		if e := recvOne(t, b); e.Seq != uint32(i) {
			t.Fatalf("a->b out of order at %d: seq %d", i, e.Seq)
		}
	}
	for i := 0; i < n; i++ {
		if e := recvOne(t, a); e.Seq != uint32(1000+i) {
			t.Fatalf("b->a out of order at %d: seq %d", i, e.Seq)
		}
	}
}

// TestRingCloseSemantics: Send after close fails with ErrClosed, the
// peer's receive side closes, and envelopes sent before the close are
// still delivered.
func TestRingCloseSemantics(t *testing.T) {
	a, b := RingPipe("a", "b")
	for i := 0; i < 3; i++ {
		if err := a.Send(sig.Envelope{Seq: uint32(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	a.Close()
	if err := a.Send(sig.Envelope{Seq: 99}); err != ErrClosed {
		t.Fatalf("send after close: got %v, want ErrClosed", err)
	}
	if err := b.Send(sig.Envelope{Seq: 99}); err != ErrClosed {
		t.Fatalf("peer send after close: got %v, want ErrClosed", err)
	}
	got := 0
	for {
		if _, ok := recvWithin(t, b, 5*time.Second); !ok {
			break
		}
		got++
	}
	if got != 3 {
		t.Fatalf("delivered %d pre-close envelopes, want 3", got)
	}
}

// TestRingInlineCloseDrains: closing while the consumer is mid-drain
// still delivers everything already pushed, then reports closed.
func TestRingInlineCloseDrains(t *testing.T) {
	a, b := RingPipe("a", "b")
	const total = 8 * ringCap
	for i := 0; i < total; i++ {
		if err := a.Send(sig.Envelope{Seq: uint32(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	a.Close()

	ip := b.(InlinePort)
	var buf [8]sig.Envelope
	got := 0
	for {
		n, open := ip.TryRecvBatch(buf[:])
		for i := 0; i < n; i++ {
			if buf[i].Seq != uint32(got) {
				t.Fatalf("out of order: seq %d at position %d", buf[i].Seq, got)
			}
			got++
		}
		if n == 0 {
			if open {
				t.Fatalf("ring reports open after close with %d/%d drained", got, total)
			}
			break
		}
	}
	if got != total {
		t.Fatalf("drained %d envelopes, want %d", got, total)
	}
}

// TestRingSetReadyAfterData: a callback registered when data is already
// pending must fire immediately, not wait for the next push.
func TestRingSetReadyAfterData(t *testing.T) {
	a, b := RingPipe("a", "b")
	if err := a.Send(sig.Envelope{Seq: 7}); err != nil {
		t.Fatal(err)
	}
	fired := make(chan struct{}, 1)
	b.(InlinePort).SetReady(func() { fired <- struct{}{} })
	select {
	case <-fired:
	default:
		t.Fatal("SetReady with pending data did not fire immediately")
	}
	var buf [1]sig.Envelope
	n, _ := b.(InlinePort).TryRecvBatch(buf[:])
	if n != 1 || buf[0].Seq != 7 {
		t.Fatalf("got n=%d seq=%d", n, buf[0].Seq)
	}
}

// TestRingMemNetwork dials through a ring-port MemNetwork end to end.
func TestRingMemNetwork(t *testing.T) {
	net := NewRingMemNetwork()
	l, err := net.Listen("callee")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	accepted := make(chan Port, 1)
	go func() {
		p, err := l.Accept()
		if err != nil {
			return
		}
		accepted <- p
	}()

	dialed, err := net.Dial("callee")
	if err != nil {
		t.Fatal(err)
	}
	far := <-accepted
	if _, ok := dialed.(InlinePort); !ok {
		t.Fatalf("ring network dialed a %T, want InlinePort", dialed)
	}
	if _, ok := far.(InlinePort); !ok {
		t.Fatalf("ring network accepted a %T, want InlinePort", far)
	}
	if err := dialed.Send(sig.Envelope{Seq: 42}); err != nil {
		t.Fatal(err)
	}
	if e := recvOne(t, far); e.Seq != 42 {
		t.Fatalf("got seq %d, want 42", e.Seq)
	}
	dialed.Close()
}

// TestMemNetworkStripes exercises concurrent Listen/Dial/Close across
// many addresses to shake out races in the striped registry.
func TestMemNetworkStripes(t *testing.T) {
	net := NewMemNetwork()
	var wg sync.WaitGroup
	addrs := []string{"a", "bb", "ccc", "dddd", "eeeee", "ffffff", "g0", "h1", "i2", "j3"}
	for _, addr := range addrs {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			l, err := net.Listen(addr)
			if err != nil {
				t.Errorf("listen %q: %v", addr, err)
				return
			}
			go func() {
				for {
					p, err := l.Accept()
					if err != nil {
						return
					}
					p.Close()
				}
			}()
			for i := 0; i < 50; i++ {
				p, err := net.Dial(addr)
				if err != nil {
					t.Errorf("dial %q: %v", addr, err)
					return
				}
				p.Close()
			}
			l.Close()
			if _, err := net.Dial(addr); err == nil {
				t.Errorf("dial %q after close succeeded", addr)
			}
		}(addr)
	}
	wg.Wait()
}

// TestRingCloseVsSend races a sender against the consumer closing its
// end under it (run with -race): whatever the interleaving, what the
// consumer drained before its close is a gap-free prefix of what the
// sender had accepted, the closed end reports (0, false) at once — what
// the sender left in the ring is dropped with the channel — and sends
// after the close fail with ErrClosed. That an envelope stored after the
// close never reaches the store's next channel is
// TestRingStoreIsolation's check.
func TestRingCloseVsSend(t *testing.T) {
	for round := 0; round < 200; round++ {
		a, b := RingPipe("a", "b")
		accepted := make(chan uint32, 1)
		go func() {
			// Bounded, so a slow consumer is not buried under the spill.
			var n uint32
			for n < uint32(round)+4*ringCap && a.Send(sig.Envelope{Seq: n}) == nil {
				n++
			}
			accepted <- n
		}()

		ip := b.(InlinePort)
		var buf [ringCap]sig.Envelope
		next := uint32(0)
		drain := func() (open bool) {
			n, open := ip.TryRecvBatch(buf[:])
			for i := 0; i < n; i++ {
				if buf[i].Seq != next {
					t.Fatalf("round %d: got seq %d, want %d", round, buf[i].Seq, next)
				}
				next++
			}
			return n > 0 || open
		}
		for next < uint32(round) { // let the sender run a varying distance ahead
			drain()
		}
		b.Close()
		if n, open := ip.TryRecvBatch(buf[:]); n != 0 || open {
			t.Fatalf("round %d: closed end received (%d, %v), want (0, false)", round, n, open)
		}
		if sent := <-accepted; next > sent {
			t.Fatalf("round %d: drained %d envelopes, sender had only %d accepted", round, next, sent)
		}
		if err := a.Send(sig.Envelope{}); err != ErrClosed {
			t.Fatalf("round %d: send after close: %v", round, err)
		}
	}
}

// TestRingDialAllocBudget is the alloc gate for channel set-up: one
// ring-network Dial, its accept, and the close of both ends cost one
// allocation — the pipe's identity, both ports inline — of at most
// 128 B; the rings come from the store the last channel's close
// released. (A fresh 1.8 KB pipe per Dial made this 1 792 B, and two
// 32-slot rings, their slot arrays, two ports and two done channels
// 13.7 KB in eight allocations.)
func TestRingDialAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const maxAllocs, maxBytes = 1, 128
	net := NewRingMemNetwork()
	l, err := net.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			near, err := net.Dial("svc")
			if err != nil {
				b.Fatal(err)
			}
			far, err := l.Accept()
			if err != nil {
				b.Fatal(err)
			}
			near.Close()
			far.Close()
		}
	})
	a, by := res.AllocsPerOp(), res.AllocedBytesPerOp()
	t.Logf("ring dial+accept+close: %d allocs, %d B, %d ns per channel", a, by, res.NsPerOp())
	if a > maxAllocs || by > maxBytes {
		t.Fatalf("ring dial+accept+close: %d allocs, %d B per channel; budget %d allocs, %d B", a, by, maxAllocs, maxBytes)
	}
}

// TestRingStoreIsolation closes pipes from both ends concurrently for
// thousands of channels, so their stores pass from channel to channel
// while other channels are mid-Send and mid-drain (run with -race).
// Every envelope carries the serial of the Dial it was sent on; none may
// reach another channel, whichever end closed first and whatever it left
// undrained — in its ring or in the spill.
func TestRingStoreIsolation(t *testing.T) {
	const pairs, cycles = 8, 2000
	var serial atomic.Uint32
	var wg sync.WaitGroup
	for w := 0; w < pairs; w++ {
		peers := make(chan ringEnd)
		wg.Add(2)
		go func() { // the accepting side: drains and sends on what it is handed
			defer wg.Done()
			for e := range peers {
				e.run(t)
			}
		}()
		go func() { // the dialing side
			defer wg.Done()
			defer close(peers)
			for i := 0; i < cycles; i++ {
				a, b := RingPipe("a", "b")
				id := serial.Add(1)
				// 1 to 2*ringCap+1 envelopes each way: some cycles spill.
				n := 1 + (i+w)%(2*ringCap+1)
				// Every third cycle one end closes without draining.
				peers <- ringEnd{p: b, id: id, n: n, drain: i%3 != 1}
				ringEnd{p: a, id: id, n: n, drain: i%3 != 2}.run(t)
				if t.Failed() {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// ringEnd is one end of a TestRingStoreIsolation channel and what its
// owner does with it: send n envelopes tagged id, drain what the peer
// sent (unless drain is off) and close.
type ringEnd struct {
	p     Port
	id    uint32
	n     int
	drain bool
}

func (e ringEnd) run(t *testing.T) {
	for i := 0; i < e.n; i++ {
		if err := e.p.Send(sig.Envelope{Seq: e.id, Tunnel: i}); err != nil {
			break // the peer closed without draining
		}
	}
	ip := e.p.(InlinePort)
	var buf [ringCap]sig.Envelope
	deadline := time.Now().Add(10 * time.Second)
	for got := 0; e.drain && got < e.n; {
		k, open := ip.TryRecvBatch(buf[:])
		for _, env := range buf[:k] {
			if env.Seq != e.id {
				t.Errorf("channel %d received an envelope of channel %d", e.id, env.Seq)
			}
		}
		if got += k; !open {
			break
		}
		if k == 0 {
			if time.Now().After(deadline) {
				t.Errorf("channel %d received %d of %d envelopes, and its peer never closed", e.id, got, e.n)
				break
			}
			runtime.Gosched()
		}
	}
	e.p.Close()
}

// TestRingStalePort: once both ends have closed and the store serves a
// new channel, the old ports stay closed — Send fails, TryRecvBatch
// reports closed, SetReady installs nothing, Close does nothing — and
// none of it reaches the new channel.
func TestRingStalePort(t *testing.T) {
	a1, b1 := RingPipe("a", "b")
	old := a1.(*ringPort).pipe.store
	var a2, b2 Port
	// Redial until a Dial takes the store just released: the pool keeps
	// a store per P, and under -race it drops one Put in four.
	for i := 0; a2 == nil; i++ {
		if i == 100 {
			t.Fatal("a released store was never handed to a new channel")
		}
		a1.Close()
		b1.Close()
		a, b := RingPipe("a", "b")
		if a.(*ringPort).pipe.store == old {
			a2, b2 = a, b
		} else {
			a1, b1 = a, b
			old = a.(*ringPort).pipe.store
		}
	}
	if a2 == a1 || b2 == b1 {
		t.Fatal("a new channel was handed an old channel's port")
	}

	staleFired, liveFired := false, false
	b1.(InlinePort).SetReady(func() { staleFired = true })
	b2.(InlinePort).SetReady(func() { liveFired = true })
	if err := a1.Send(sig.Envelope{Seq: 1}); err != ErrClosed {
		t.Fatalf("stale Send: %v, want ErrClosed", err)
	}
	if err := b1.Send(sig.Envelope{Seq: 1}); err != ErrClosed {
		t.Fatalf("stale peer Send: %v, want ErrClosed", err)
	}
	var buf [ringCap]sig.Envelope
	if err := a2.Send(sig.Envelope{Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if n, ok := b1.(InlinePort).TryRecvBatch(buf[:]); n != 0 || ok {
		t.Fatalf("stale TryRecvBatch: (%d, %v), want (0, false)", n, ok)
	}
	a1.Close()
	b1.Close()
	if staleFired || !liveFired {
		t.Fatalf("readiness: stale callback fired %v, live callback fired %v", staleFired, liveFired)
	}
	if n, ok := b2.(InlinePort).TryRecvBatch(buf[:]); n != 1 || !ok || buf[0].Seq != 2 {
		t.Fatalf("the new channel received (%d, %v) seq %d, want its own envelope", n, ok, buf[0].Seq)
	}
	if err := b2.Send(sig.Envelope{Seq: 3}); err != nil {
		t.Fatalf("the new channel was closed by a stale Close: %v", err)
	}
	a2.Close()
	b2.Close()
}

// TestRingSpillCountedAndReused: a burst past the ring's capacity is
// counted under transport.ring_spills, the drain that follows records
// a full ring, and a channel that keeps bursting reuses its spill list
// — only the first burst allocates.
func TestRingSpillCountedAndReused(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)
	a, b := RingPipe("a", "b")
	ip := b.(InlinePort)
	ip.SetReady(func() {})
	const extra = 3
	var buf [ringCap + extra]sig.Envelope
	burst := func() {
		for i := 0; i < len(buf); i++ {
			a.Send(sig.Envelope{Seq: uint32(i)})
		}
		for got := 0; got < len(buf); {
			n, _ := ip.TryRecvBatch(buf[got:])
			got += n
		}
	}
	burst()
	if got := reg.Counter(MetricRingSpills).Value(); got != extra {
		t.Fatalf("ring_spills = %d after one burst of %d, want %d", got, len(buf), extra)
	}
	if got := reg.Counter(MetricRingOccupancyPrefix + strconv.Itoa(ringCap)).Value(); got != 1 {
		t.Fatalf("drains that found a full ring = %d, want 1", got)
	}
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("a repeat burst through the spill allocates %.1f times, want 0", allocs)
	}
}

// TestRingSpillDrainsInPlace: a consumer far behind its producer takes
// a 10 000-envelope spill out in small batches, in FIFO order, in O(n)
// copies: a batch leaves the waiting envelopes where they are, and the
// occasional compaction (drained prefix outweighs the backlog) moves
// fewer envelopes than were drained since the last one — not a shift
// of the whole list per batch.
func TestRingSpillDrainsInPlace(t *testing.T) {
	const total = 10000
	a, _ := newRingPipe("a", "b", newRingMetrics())
	r := a.send // b's receive side: a is its producer, this test its consumer
	for i := 0; i < total; i++ {
		if err := r.push(sig.Envelope{Seq: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.spill) != total-ringCap {
		t.Fatalf("spill holds %d envelopes, want %d", len(r.spill), total-ringCap)
	}
	var buf [7]sig.Envelope
	moved, prevHead := 0, 0
	for next := 0; next < total; {
		n, ok := r.tryRecvBatch(buf[:])
		if n == 0 || !ok {
			t.Fatalf("drain stopped at %d of %d (n=%d ok=%v)", next, total, n, ok)
		}
		for _, e := range buf[:n] {
			if e.Seq != uint32(next) {
				t.Fatalf("envelope %d arrived in position %d", e.Seq, next)
			}
			next++
		}
		if r.spillHead < prevHead {
			moved += len(r.spill) // compacted: the backlog was copied down
		}
		prevHead = r.spillHead
		if w := r.spill[r.spillHead:]; len(w) > 0 {
			if first, last := w[0].Seq, w[len(w)-1].Seq; first != uint32(next) || last != total-1 {
				t.Fatalf("after %d envelopes the waiting spill runs %d..%d, want %d..%d", next, first, last, next, total-1)
			}
		}
	}
	if moved > total {
		t.Fatalf("draining %d envelopes moved %d within the spill, want at most %d", total, moved, total)
	}
	if len(r.spill) != 0 || r.spillHead != 0 || r.spillN.Load() != 0 {
		t.Fatalf("drained spill left len=%d head=%d n=%d", len(r.spill), r.spillHead, r.spillN.Load())
	}
	if n, ok := r.tryRecvBatch(buf[:]); n != 0 || !ok {
		t.Fatalf("empty open ring reported n=%d ok=%v", n, ok)
	}
}

// TestRingSpillTracksBacklog: a consumer that stays a little behind —
// a backlog that never reaches zero — keeps the spill slice the size of
// the backlog, not of the traffic that has passed through it.
func TestRingSpillTracksBacklog(t *testing.T) {
	const backlog, total = 100, 200000
	a, _ := newRingPipe("a", "b", newRingMetrics())
	r := a.send
	var buf [5]sig.Envelope
	sent, next := 0, 0
	for ; sent < backlog; sent++ {
		r.push(sig.Envelope{Seq: uint32(sent)})
	}
	for next < total {
		n, _ := r.tryRecvBatch(buf[:])
		for _, e := range buf[:n] {
			if e.Seq != uint32(next) {
				t.Fatalf("envelope %d arrived in position %d", e.Seq, next)
			}
			next++
		}
		for ; sent < total && sent < next+backlog; sent++ {
			r.push(sig.Envelope{Seq: uint32(sent)})
		}
		if r.spillN.Load() == 0 && sent < total {
			t.Fatalf("backlog reached zero at %d: the test no longer holds the spill open", next)
		}
		if c := cap(r.spill); c > 8*backlog {
			t.Fatalf("after %d envelopes the spill's capacity is %d for a backlog of %d", next, c, backlog)
		}
	}
}

// TestLayersRefuseRingPorts: the reliable, mux and fault layers each
// block a goroutine on the wire underneath, which a ring port has no
// way to serve. Stacked on a ring network they refuse the wire with an
// error, on the dialing and on the accepting side, instead of hanging.
func TestLayersRefuseRingPorts(t *testing.T) {
	t.Run("fault", func(t *testing.T) {
		n := NewFaultNetwork(NewRingMemNetwork(), FaultProfile{})
		l, err := n.Listen("a")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		accepted := make(chan error, 1)
		go func() {
			_, err := l.Accept()
			accepted <- err
		}()
		if _, err := n.Dial("a"); err == nil {
			t.Error("dial: a ring port was taken")
		}
		select {
		case err := <-accepted:
			if err == nil {
				t.Error("accept: a ring port was taken")
			}
		case <-time.After(5 * time.Second):
			t.Error("accept: hung")
		}
	})

	t.Run("rel", func(t *testing.T) {
		ring := NewRingMemNetwork()
		n := NewRelNetwork(ring, RelConfig{})
		l, err := n.Listen("a")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if _, err := n.Dial("a"); err == nil {
			t.Error("dial: a ring port was taken")
		}
		// A dialer that does not run the layer finds its wire hung up by
		// the accepting side.
		raw, err := ring.Dial("a")
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := recvWithin(t, raw, 5*time.Second); ok {
			t.Error("accept: a ring port was taken")
		}
	})

	t.Run("mux", func(t *testing.T) {
		ring := NewRingMemNetwork()
		m := NewMux(ring)
		defer m.Close()
		addr, err := m.ListenCarrier("carrier")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Dial(addr, "svc"); err == nil {
			t.Error("dial: a ring carrier was taken")
		}
		raw, err := ring.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := recvWithin(t, raw, 5*time.Second); ok {
			t.Error("accept: a ring carrier was taken")
		}
	})
}

// TestRingLeaseRace ping-pongs one envelope at a time on many pipes at
// once (run with -race), so every envelope leases a slot buffer and
// every drain returns it, while the peer's next push races the return.
// Each envelope carries its pipe's serial and a sequence number: every
// end must receive its peer's envelopes in order, and none of another
// channel's.
func TestRingLeaseRace(t *testing.T) {
	const pipes, rounds, volleys = 8, 20, 200
	var serial atomic.Uint32
	var wg sync.WaitGroup
	for w := 0; w < pipes; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds && !t.Failed(); i++ {
				a, b := RingPipe("a", "b")
				id := int(serial.Add(1))
				done := make(chan struct{})
				go func() {
					defer close(done)
					volley(t, b, id, volleys, false)
				}()
				volley(t, a, id, volleys, true)
				<-done
				a.Close()
				b.Close()
			}
		}()
	}
	wg.Wait()
}

// volley is one end of a TestRingLeaseRace channel: it answers each
// envelope its peer sends with the next of its own (serve sends the
// first), until each side has sent n, checking that what arrives is the
// peer's next envelope on this channel.
func volley(t *testing.T, p Port, id, n int, serve bool) {
	ip := p.(InlinePort)
	var buf [ringCap]sig.Envelope
	sent, want := 0, uint32(0)
	if serve {
		if err := p.Send(sig.Envelope{Tunnel: id, Seq: 0}); err != nil {
			t.Error(err)
			return
		}
		sent++
	}
	deadline := time.Now().Add(10 * time.Second)
	for want < uint32(n) {
		k, open := ip.TryRecvBatch(buf[:])
		if !open {
			t.Errorf("channel %d closed under its ends", id)
			return
		}
		for _, e := range buf[:k] {
			if e.Tunnel != id || e.Seq != want {
				t.Errorf("channel %d: received channel %d's envelope %d, want its own %d", id, e.Tunnel, e.Seq, want)
				return
			}
			want++
			if sent < n {
				if err := p.Send(sig.Envelope{Tunnel: id, Seq: uint32(sent)}); err != nil {
					t.Error(err)
					return
				}
				sent++
			}
		}
		if k == 0 {
			if time.Now().After(deadline) {
				t.Errorf("channel %d: stuck at envelope %d of %d", id, want, n)
				return
			}
			runtime.Gosched()
		}
	}
}

// TestRingIdleHoldsNoBuffer: a ring leases its slots for a burst only —
// one drained empty holds no buffer, and neither does a store reset
// with envelopes its consumer never drained.
func TestRingIdleHoldsNoBuffer(t *testing.T) {
	a, b := newRingPipe("a", "b", newRingMetrics())
	if a.recv.buf.Load() != nil || a.send.buf.Load() != nil {
		t.Fatal("a new channel's rings hold slot buffers")
	}
	var buf [ringCap]sig.Envelope
	for _, n := range []int{1, ringCap, ringCap + 2} { // the last one spills
		for i := 0; i < n; i++ {
			if err := a.Send(sig.Envelope{Seq: uint32(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if a.send.buf.Load() == nil {
			t.Fatalf("a ring holding %d envelopes holds no slot buffer", n)
		}
		for got := 0; ; {
			k, _ := b.TryRecvBatch(buf[:])
			if k == 0 {
				break
			}
			got += k
		}
		if b.recv.buf.Load() != nil || b.recv.tw.Load()&ringLeased != 0 {
			t.Fatalf("after a burst of %d a ring drained empty still leases its slots", n)
		}
	}
	a.Send(sig.Envelope{Seq: 1})
	b.Send(sig.Envelope{Seq: 2})
	st := a.pipe.store
	a.Close()
	b.Close()
	for i := range st.rings {
		if r := &st.rings[i]; r.buf.Load() != nil || r.tw.Load() != 0 || r.head.Load() != 0 {
			t.Fatalf("reset ring %d kept buffer %p, word %#x, head %d", i, r.buf.Load(), r.tw.Load(), r.head.Load())
		}
	}
}

// TestRingSendDrainZeroAlloc: a send that leases a ring's slots and the
// drain that empties the ring and returns them allocate nothing in
// steady state; the pool hands the buffer back to the next burst.
func TestRingSendDrainZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	a, b := RingPipe("a", "b")
	defer a.Close()
	defer b.Close()
	ip := b.(InlinePort)
	ip.SetReady(func() {})
	var buf [ringCap]sig.Envelope
	cycle := func() {
		a.Send(sig.Envelope{Seq: 1})
		a.Send(sig.Envelope{Seq: 2})
		for {
			if n, _ := ip.TryRecvBatch(buf[:]); n == 0 {
				break
			}
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("a send-drain cycle allocates %.2f times, want 0", allocs)
	}
}

// TestRingStoreSize pins what an idle ring channel holds beyond its
// identity: both rings' indices, flags, spill and callback, with no
// slots (1 152 B when each ring kept its four slots inline).
func TestRingStoreSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pinned size is for 64-bit platforms")
	}
	const budget = 256
	got := unsafe.Sizeof(ringStore{})
	t.Logf("ring store: %d B", got)
	if got > budget {
		t.Fatalf("unsafe.Sizeof(ringStore{}) = %d, budget %d", got, budget)
	}
}
