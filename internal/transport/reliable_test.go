package transport

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ipmedia/internal/sig"
	"ipmedia/internal/slot"
	"ipmedia/internal/telemetry"
)

// relPair establishes one channel over n — a reliable one, in most
// uses — listening at addr, and returns the dialer and acceptor ports.
func relPair(t *testing.T, n Network, addr string) (Port, Port) {
	t.Helper()
	l, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	acceptCh := make(chan Port, 1)
	go func() {
		p, err := l.Accept()
		if err != nil {
			return
		}
		acceptCh <- p
	}()
	dialer, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case accepted := <-acceptCh:
		return dialer, accepted
	case <-time.After(2 * time.Second):
		t.Fatal("accept never completed")
		return nil, nil
	}
}

// drainN receives exactly n envelopes via RecvBatch, failing on
// timeout.
func drainN(t *testing.T, p Port, n int) []sig.Envelope {
	t.Helper()
	got := make([]sig.Envelope, 0, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]sig.Envelope, 64)
		for len(got) < n {
			c, ok := p.(BatchPort).RecvBatch(buf)
			if !ok {
				return
			}
			got = append(got, buf[:c]...)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
	}
	if len(got) != n {
		t.Fatalf("received %d envelopes, want %d", len(got), n)
	}
	return got
}

// TestRelPortLossless: over a clean network the reliable layer is
// transparent — in order, no duplicates, sequence numbers stripped,
// and no layer control leaks to the receiver.
func TestRelPortLossless(t *testing.T) {
	n := NewRelNetwork(NewMemNetwork(), RelConfig{})
	dialer, accepted := relPair(t, n, "a")
	defer dialer.Close()
	defer accepted.Close()
	const total = 500
	for i := 0; i < total; i++ {
		if err := dialer.Send(sig.Envelope{Tunnel: i, Sig: sig.Close()}); err != nil {
			t.Fatal(err)
		}
	}
	got := drainN(t, accepted, total)
	for i, e := range got {
		if e.Tunnel != i {
			t.Fatalf("envelope %d arrived as tunnel %d", i, e.Tunnel)
		}
		if e.Seq != 0 {
			t.Fatalf("sequence number leaked to receiver: %v", e)
		}
		if e.Meta != nil {
			t.Fatalf("layer control leaked to receiver: %v", e)
		}
	}
}

// TestRelPortRecoversLoss: under heavy drop, duplication, and
// reordering, retransmission still delivers the exact stream, in
// order, both directions.
func TestRelPortRecoversLoss(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)
	fn := NewFaultNetwork(NewMemNetwork(), FaultProfile{
		Seed: 42, DropRate: 0.15, DupRate: 0.1, ReorderRate: 0.1,
	})
	n := NewRelNetwork(fn, RelConfig{RexmitInterval: 30 * time.Millisecond, AckDelay: 10 * time.Millisecond})
	dialer, accepted := relPair(t, n, "a")
	defer dialer.Close()
	defer accepted.Close()
	const total = 400
	for i := 0; i < total; i++ {
		dialer.Send(sig.Envelope{Tunnel: i, Sig: sig.Close()})
		accepted.Send(sig.Envelope{Tunnel: i, Sig: sig.CloseAck()})
	}
	for _, end := range []Port{accepted, dialer} {
		got := drainN(t, end, total)
		for i, e := range got {
			if e.Tunnel != i {
				t.Fatalf("envelope %d arrived as tunnel %d", i, e.Tunnel)
			}
		}
	}
	if reg.Counter(slot.MetricRetransmits).Value() == 0 {
		t.Fatal("15%% drop produced zero retransmits")
	}
	if reg.Counter(slot.MetricDupDropped).Value() == 0 {
		t.Fatal("duplication and retransmission produced zero dup drops")
	}
}

// TestRelPortReconnects: severing every live wire mid-stream is a
// blip, not a loss — the dialer re-dials, the acceptor rebinds the
// channel identity, and delivery resumes on the same ports.
func TestRelPortReconnects(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)
	fn := NewFaultNetwork(NewMemNetwork(), FaultProfile{PartitionFor: 50 * time.Millisecond})
	n := NewRelNetwork(fn, RelConfig{
		RexmitInterval: 30 * time.Millisecond,
		AckDelay:       10 * time.Millisecond,
		RedialMin:      10 * time.Millisecond,
	})
	dialer, accepted := relPair(t, n, "a")
	defer dialer.Close()
	defer accepted.Close()

	const half = 100
	for i := 0; i < half; i++ {
		dialer.Send(sig.Envelope{Tunnel: i, Sig: sig.Close()})
	}
	fn.Sever()
	for i := half; i < 2*half; i++ {
		dialer.Send(sig.Envelope{Tunnel: i, Sig: sig.Close()})
	}
	got := drainN(t, accepted, 2*half)
	for i, e := range got {
		if e.Tunnel != i {
			t.Fatalf("envelope %d arrived as tunnel %d after reconnect", i, e.Tunnel)
		}
	}
	if reg.Counter(MetricReconnects).Value() == 0 {
		t.Fatal("sever produced zero reconnects")
	}
	if reg.Counter(MetricGiveups).Value() != 0 {
		t.Fatal("recoverable sever counted as giveup")
	}
	// The acceptor can still talk back over the rebound wire.
	accepted.Send(sig.Envelope{Tunnel: 7, Sig: sig.Close()})
	back := drainN(t, dialer, 1)
	if back[0].Tunnel != 7 {
		t.Fatalf("reverse direction broken after rebind: %v", back[0])
	}
}

// TestRelPortGivesUp: a channel that stays down past the budget is
// abandoned on both ends — receive queues close (the runner's
// portLost path) and path.giveups records the degradation.
func TestRelPortGivesUp(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)
	fn := NewFaultNetwork(NewMemNetwork(), FaultProfile{})
	n := NewRelNetwork(fn, RelConfig{
		RedialMin:   5 * time.Millisecond,
		GiveUpAfter: 150 * time.Millisecond,
	})
	l, err := n.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	acceptCh := make(chan Port, 1)
	go func() {
		p, err := l.Accept()
		if err != nil {
			return
		}
		acceptCh <- p
	}()
	dialer, err := n.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	accepted := <-acceptCh
	// Kill the listener so redials have nowhere to land, then cut the
	// wire: recovery must fail and the budget must expire.
	l.Close()
	fn.Sever()
	for _, end := range []Port{dialer, accepted} {
		if _, ok := recvWithin(t, end, 5*time.Second); ok {
			t.Fatal("dead channel delivered an envelope")
		}
	}
	if g := reg.Counter(MetricGiveups).Value(); g != 2 {
		t.Fatalf("giveups = %d, want 2 (one per end)", g)
	}
	if err := dialer.Send(sig.Envelope{Sig: sig.Close()}); err != ErrClosed {
		t.Fatalf("send on abandoned channel: %v, want ErrClosed", err)
	}
}

// TestRelPortCleanCloseIsNotGiveup: tearing a channel down on purpose
// must not recover, reconnect, or count as a giveup.
func TestRelPortCleanCloseIsNotGiveup(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)
	n := NewRelNetwork(NewMemNetwork(), RelConfig{})
	dialer, accepted := relPair(t, n, "a")
	dialer.Send(sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaTeardown}})
	got := drainN(t, accepted, 1)
	if got[0].Meta == nil || got[0].Meta.Kind != sig.MetaTeardown {
		t.Fatalf("teardown not delivered: %v", got[0])
	}
	dialer.Close()
	accepted.Close()
	time.Sleep(50 * time.Millisecond)
	if g := reg.Counter(MetricGiveups).Value(); g != 0 {
		t.Fatalf("clean close counted %d giveups", g)
	}
	if r := reg.Counter(MetricReconnects).Value(); r != 0 {
		t.Fatalf("clean close attempted %d reconnects", r)
	}
}

// TestRelPortLingerDeliversTeardown: the box runtime closes a port
// right after sending its teardown; with the wire dropping envelopes,
// the lingering close must still deliver that teardown (retransmitted)
// instead of letting the peer's giveup budget expire.
func TestRelPortLingerDeliversTeardown(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)
	// Seed chosen so at least one teardown send is dropped across the
	// rounds below; determinism makes the seed a fixture, not a flake.
	fn := NewFaultNetwork(NewMemNetwork(), FaultProfile{Seed: 5, DropRate: 0.4})
	n := NewRelNetwork(fn, RelConfig{
		RexmitInterval: 20 * time.Millisecond,
		AckDelay:       5 * time.Millisecond,
		GiveUpAfter:    400 * time.Millisecond,
	})
	l, err := n.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	acceptCh := make(chan Port, 1)
	go func() {
		for {
			p, err := l.Accept()
			if err != nil {
				return
			}
			acceptCh <- p
		}
	}()
	const rounds = 8
	for i := 0; i < rounds; i++ {
		dialer, err := n.Dial("a")
		if err != nil {
			t.Fatal(err)
		}
		accepted := <-acceptCh
		dialer.Send(sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaTeardown}})
		dialer.Close() // immediately, like the runner's OutTeardown
		got := drainN(t, accepted, 1)
		if got[0].Meta == nil || got[0].Meta.Kind != sig.MetaTeardown {
			t.Fatalf("round %d: teardown lost across lossy close: %v", i, got[0])
		}
		accepted.Close()
	}
	time.Sleep(600 * time.Millisecond) // let any giveup budget expire
	if g := reg.Counter(MetricGiveups).Value(); g != 0 {
		t.Fatalf("clean lossy teardowns counted %d giveups", g)
	}
	if reg.Counter(slot.MetricRetransmits).Value() == 0 {
		t.Fatal("40%% drop over 8 teardowns needed zero retransmits (seed no longer exercises the linger)")
	}
}

// TestRelNoRetransmitWhileAcksFlow: on a loss-free channel a steady
// sender never retransmits — the timer resends only after a full
// RexmitInterval without ack progress, not every interval regardless
// of how fresh the unacked envelopes are.
func TestRelNoRetransmitWhileAcksFlow(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)
	n := NewRelNetwork(NewMemNetwork(), RelConfig{}) // 60ms rexmit, acks within 15ms
	dialer, accepted := relPair(t, n, "a")
	defer dialer.Close()
	defer accepted.Close()
	// One exchange first: the acceptor's hello reply replays whatever
	// the dialer sent before it arrived, which is the handshake's
	// business, not the timer's.
	dialer.Send(sig.Envelope{Tunnel: 1, Sig: sig.Close()})
	drainN(t, accepted, 1)
	time.Sleep(30 * time.Millisecond)
	retransmits := reg.Counter(slot.MetricRetransmits)
	base := retransmits.Value()

	const total = 300 // one a millisecond: five rexmit intervals of steady traffic
	for i := 0; i < total; i++ {
		if err := dialer.Send(sig.Envelope{Tunnel: 1, Sig: sig.Close()}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	drainN(t, accepted, total)
	if r := retransmits.Value() - base; r != 0 {
		t.Fatalf("loss-free channel retransmitted %d envelopes, want 0", r)
	}
}

// TestRelSendSteadyStateZeroAlloc: with faults absent and acks
// flowing, the reliable send path adds nothing to the allocation
// profile of a raw port — the ISSUE's alloc gate.
func TestRelSendSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	n := NewRelNetwork(NewMemNetwork(), RelConfig{})
	dialer, accepted := relPair(t, n, "a")
	defer dialer.Close()
	defer accepted.Close()
	stop := make(chan struct{})
	done := make(chan struct{})
	var received atomic.Int64
	go func() {
		defer close(done)
		buf := make([]sig.Envelope, 256)
		for {
			n, ok := accepted.(BatchPort).RecvBatch(buf)
			if !ok {
				return
			}
			received.Add(int64(n))
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	// The sender stays within a window of the receiver: a tight loop that
	// outruns delivery by millions of envelopes is not a steady state (the
	// tracker and the queues grow without bound, and on a small host the
	// test ran for minutes), and it is the steady state this gate is about.
	sent := int64(0)
	send := func(e sig.Envelope) {
		dialer.Send(e)
		if sent++; sent%1024 == 0 {
			for sent-received.Load() > 8192 {
				runtime.Gosched()
			}
		}
	}
	e := sig.Envelope{Tunnel: 1, Sig: sig.Close()}
	for i := 0; i < 10000; i++ { // warm the ring and the queues
		send(e)
	}
	time.Sleep(100 * time.Millisecond) // let acks trim the tracker
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			send(e)
		}
	})
	close(stop)
	if a := res.AllocsPerOp(); a > 0 {
		t.Fatalf("steady-state reliable send allocates %d allocs/op, want 0", a)
	}
}

// TestRelPortSurvivesRepeatedPartitions: partitions landing
// back-to-back — each heal followed by another sever as soon as the
// next wire is up, before the previous incarnation's teardown has
// drained — must each be a blip, never a portLost. The acceptor
// rebinds the same channel identity on every redial, so across the
// whole flapping episode both directions deliver the exact stream in
// order and the give-up counter stays at zero.
func TestRelPortSurvivesRepeatedPartitions(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)
	fn := NewFaultNetwork(NewMemNetwork(), FaultProfile{PartitionFor: 30 * time.Millisecond})
	n := NewRelNetwork(fn, RelConfig{
		RexmitInterval: 20 * time.Millisecond,
		AckDelay:       5 * time.Millisecond,
		RedialMin:      5 * time.Millisecond,
		GiveUpAfter:    5 * time.Second,
	})
	dialer, accepted := relPair(t, n, "a")
	defer dialer.Close()
	defer accepted.Close()

	const rounds, per = 6, 40
	seq := 0
	for r := 0; r < rounds; r++ {
		// Sever first, then send: the round's envelopes can only arrive
		// over the next wire, so draining them proves a redial happened
		// and the identity rebound. Each round severs the incarnation the
		// previous round just brought up — back-to-back, while the old
		// one's teardown is still draining.
		fn.Sever()
		for i := 0; i < per; i++ {
			dialer.Send(sig.Envelope{Tunnel: seq, Sig: sig.Close()})
			accepted.Send(sig.Envelope{Tunnel: seq, Sig: sig.CloseAck()})
			seq++
		}
		for _, end := range []Port{accepted, dialer} {
			got := drainN(t, end, per)
			for i, e := range got {
				if e.Tunnel != r*per+i {
					t.Fatalf("round %d: envelope %d arrived as tunnel %d", r, r*per+i, e.Tunnel)
				}
			}
		}
	}
	if got := reg.Counter(MetricReconnects).Value(); got < rounds {
		t.Fatalf("%d severs of live wires produced only %d reconnects", rounds, got)
	}
	if got := reg.Counter(MetricGiveups).Value(); got != 0 {
		t.Fatalf("flapping wire counted as %d giveups — runners would see portLost", got)
	}
	// Both ends still live after the episode: a fresh exchange flows
	// without redial or reset.
	dialer.Send(sig.Envelope{Tunnel: 99999, Sig: sig.Close()})
	if got := drainN(t, accepted, 1); got[0].Tunnel != 99999 {
		t.Fatalf("forward path dead after flapping: %v", got[0])
	}
	accepted.Send(sig.Envelope{Tunnel: 88888, Sig: sig.CloseAck()})
	if got := drainN(t, dialer, 1); got[0].Tunnel != 88888 {
		t.Fatalf("reverse path dead after flapping: %v", got[0])
	}
}
