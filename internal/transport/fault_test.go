package transport

import (
	"testing"
	"time"

	"ipmedia/internal/sig"
	"ipmedia/internal/telemetry"
)

// wrapped puts p behind n's fault injection, as Dial and Accept do.
func wrapped(t *testing.T, n *FaultNetwork, p Port) Port {
	t.Helper()
	fp, err := n.wrap(p)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestFaultNetworkPassthrough: the zero profile is a transparent
// wrapper — everything sent arrives, in order.
func TestFaultNetworkPassthrough(t *testing.T) {
	n := NewFaultNetwork(NewMemNetwork(), FaultProfile{})
	l, err := n.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	acceptCh := make(chan Port, 1)
	go func() {
		p, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		acceptCh <- p
	}()
	dialer, err := n.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	accepted := <-acceptCh
	for i := 0; i < 50; i++ {
		if err := dialer.Send(sig.Envelope{Tunnel: i, Sig: sig.Close()}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if e := recvOne(t, accepted); e.Tunnel != i {
			t.Fatalf("envelope %d arrived as tunnel %d", i, e.Tunnel)
		}
	}
	dialer.Close()
	accepted.Close()
}

// TestFaultNetworkDropsDeterministically: with a fixed seed, the set
// of surviving envelopes is identical across runs, and the fault
// counter records the losses.
func TestFaultNetworkDropsDeterministically(t *testing.T) {
	run := func() ([]int, uint64) {
		reg := telemetry.NewRegistry()
		telemetry.SetDefault(reg)
		defer telemetry.SetDefault(nil)
		n := NewFaultNetwork(NewMemNetwork(), FaultProfile{Seed: 7, DropRate: 0.3})
		// Wrap a pipe directly, and nothing else: each wrapped port draws
		// its PRNG seed from a per-network counter, so this must be the
		// network's first port on every run, and the receive side is
		// deterministic too.
		near, far := Pipe("a", "b")
		fp := wrapped(t, n, near)
		const total = 200
		for i := 0; i < total; i++ {
			fp.Send(sig.Envelope{Tunnel: i, Sig: sig.Close()})
		}
		fp.Close()
		var got []int
		buf := make([]sig.Envelope, 64)
		for {
			c, ok := far.(BatchPort).RecvBatch(buf)
			if !ok {
				break
			}
			for _, e := range buf[:c] {
				got = append(got, e.Tunnel)
			}
		}
		return got, reg.Counter(MetricFaultsInjected).Value()
	}
	got1, faults1 := run()
	got2, faults2 := run()
	if len(got1) == 0 || len(got1) == 200 {
		t.Fatalf("drop rate 0.3 delivered %d of 200", len(got1))
	}
	if faults1 == 0 {
		t.Fatal("no faults counted")
	}
	if len(got1) != len(got2) || faults1 != faults2 {
		t.Fatalf("non-deterministic: %d/%d survivors, %d/%d faults",
			len(got1), len(got2), faults1, faults2)
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("survivor %d differs: %d vs %d", i, got1[i], got2[i])
		}
	}
}

// TestFaultNetworkDupAndReorder: duplication delivers envelopes twice;
// reordering swaps adjacent envelopes; the union of what arrives is
// still exactly what was sent.
func TestFaultNetworkDupAndReorder(t *testing.T) {
	n := NewFaultNetwork(NewMemNetwork(), FaultProfile{Seed: 3, DupRate: 0.2, ReorderRate: 0.2})
	near, far := Pipe("a", "b")
	fp := wrapped(t, n, near)
	const total = 300
	for i := 0; i < total; i++ {
		fp.Send(sig.Envelope{Tunnel: i, Sig: sig.Close()})
	}
	// Let reorder flush timers fire before closing the wire.
	time.Sleep(50 * time.Millisecond)
	fp.Close()
	counts := map[int]int{}
	arrived := 0
	buf := make([]sig.Envelope, 64)
	for {
		c, ok := far.(BatchPort).RecvBatch(buf)
		if !ok {
			break
		}
		for _, e := range buf[:c] {
			counts[e.Tunnel]++
			arrived++
		}
	}
	if arrived <= total {
		t.Fatalf("dup rate 0.2 delivered %d of %d sends", arrived, total)
	}
	for i := 0; i < total; i++ {
		if counts[i] < 1 || counts[i] > 2 {
			t.Fatalf("envelope %d arrived %d times", i, counts[i])
		}
	}
}

// TestFaultNetworkDelay: delayed envelopes still arrive.
func TestFaultNetworkDelay(t *testing.T) {
	n := NewFaultNetwork(NewMemNetwork(), FaultProfile{
		Seed: 11, DelayRate: 1.0, DelayMin: time.Millisecond, DelayMax: 5 * time.Millisecond,
	})
	near, far := Pipe("a", "b")
	fp := wrapped(t, n, near)
	const total = 20
	for i := 0; i < total; i++ {
		fp.Send(sig.Envelope{Tunnel: i, Sig: sig.Close()})
	}
	for got := 0; got < total; got++ {
		if _, ok := recvWithin(t, far, 2*time.Second); !ok {
			t.Fatalf("only %d of %d delayed envelopes arrived", got, total)
		}
	}
	fp.Close()
}

// TestFaultNetworkSeverAndPartition: Sever closes live links and Dial
// fails during the partition window, then succeeds again.
func TestFaultNetworkSeverAndPartition(t *testing.T) {
	n := NewFaultNetwork(NewMemNetwork(), FaultProfile{PartitionFor: 100 * time.Millisecond})
	l, err := n.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			p, err := l.Accept()
			if err != nil {
				return
			}
			_ = p
		}
	}()
	dialer, err := n.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	n.Sever()
	// The severed port's receive stream must close: the link is dead.
	if _, ok := recvWithin(t, dialer, time.Second); ok {
		t.Fatal("severed port delivered an envelope")
	}
	if _, err := n.Dial("a"); err == nil {
		t.Fatal("dial succeeded during partition window")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := n.Dial("a"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("partition window never ended")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFaultPortKeepsReceiveContracts: a fault port has the receive
// contracts of the port it wraps. Over an in-memory pipe end it is a
// BatchPort only; over a mux port it is an InlinePort as well, whose
// readiness edge and non-blocking drain are the mux port's. A ring port,
// which has no blocking contract and one sender, is refused.
func TestFaultPortKeepsReceiveContracts(t *testing.T) {
	n := NewFaultNetwork(NewMemNetwork(), FaultProfile{})

	a, b := Pipe("a", "b")
	fp := wrapped(t, n, a)
	if _, inline := fp.(InlinePort); inline {
		t.Errorf("a fault port over a pipe end is an InlinePort")
	}
	if _, batch := fp.(BatchPort); !batch {
		t.Errorf("a fault port over a pipe end is not a BatchPort")
	}
	fp.Close()
	b.Close()

	m := NewMux(NewMemNetwork())
	defer m.Close()
	addr, err := m.ListenCarrier("carrier")
	if err != nil {
		t.Fatal(err)
	}
	l, err := m.Listen("x")
	if err != nil {
		t.Fatal(err)
	}
	dialed, err := m.Dial(addr, "x")
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	in, ok := wrapped(t, n, dialed).(InlinePort)
	if !ok {
		t.Fatalf("a fault port over a mux port is not an InlinePort")
	}
	if _, batch := in.(BatchPort); !batch {
		t.Errorf("a fault port over a mux port is not a BatchPort")
	}
	wake := make(chan struct{}, 1)
	in.SetReady(func() {
		select {
		case wake <- struct{}{}:
		default:
		}
	})
	accepted.Send(sig.Envelope{Tunnel: 7, Sig: sig.Close()})
	select {
	case <-wake:
	case <-time.After(5 * time.Second):
		t.Fatal("no readiness edge through the fault port")
	}
	buf := make([]sig.Envelope, 4)
	if k, _ := in.TryRecvBatch(buf); k != 1 || buf[0].Tunnel != 7 {
		t.Errorf("drained %d envelopes (%v), want the one sent", k, buf[:k])
	}
	in.Close()
	accepted.Close()

	ra, rb := RingPipe("a", "b")
	if _, err := n.wrap(ra); err == nil {
		t.Errorf("a ring port was put behind fault injection")
	}
	rb.Close()
}
