package transport

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ipmedia/internal/sig"
	"ipmedia/internal/telemetry"
)

// muxChannel opens one logical channel over a fresh pair of muxes on
// under, the carrier listening at carrierAddr, and returns its dialed
// and accepted ends.
func muxChannel(t *testing.T, under Network, carrierAddr string) (*Mux, *Mux, string, Port, Port) {
	t.Helper()
	a, b := NewMux(under), NewMux(under)
	t.Cleanup(func() { a.Close(); b.Close() })
	addr, err := b.ListenCarrier(carrierAddr)
	if err != nil {
		t.Fatalf("ListenCarrier: %v", err)
	}
	l, err := b.Listen("svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	near, err := a.Dial(addr, "svc")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	far, err := l.Accept()
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	return a, b, addr, near, far
}

// TestUnencodableSendRefused: an envelope the wire format cannot carry
// (here a meta whose attrs are out of canonical order) is refused by
// Send with an error wrapping sig.ErrUnencodable. Nothing is queued or
// retained, so the channel stays up: the next valid envelope arrives,
// and no wire is lost and redialed on the way. (Queued, it failed the
// TCP writer after Send had returned nil; retained by the reliable
// layer, it failed every redialed wire in turn, forever.)
func TestUnencodableSendRefused(t *testing.T) {
	bad := sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaApp, App: "bad",
		Attrs: []sig.Attr{{Key: "b", Val: "1"}, {Key: "a", Val: "2"}}}}
	good := sig.Envelope{Tunnel: 3, Sig: sig.Close()}
	for _, tc := range []struct {
		name string
		open func(t *testing.T) (Port, Port)
	}{
		{"tcp", func(t *testing.T) (Port, Port) { return relPair(t, TCPNetwork{}, "127.0.0.1:0") }},
		{"rel over tcp", func(t *testing.T) (Port, Port) {
			return relPair(t, NewRelNetwork(TCPNetwork{}, RelConfig{}), "127.0.0.1:0")
		}},
		{"mux over rel over tcp", func(t *testing.T) (Port, Port) {
			_, _, _, near, far := muxChannel(t, NewRelNetwork(TCPNetwork{}, RelConfig{}), "127.0.0.1:0")
			return near, far
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			telemetry.SetDefault(reg)
			defer telemetry.SetDefault(nil)
			near, far := tc.open(t)
			defer near.Close()
			defer far.Close()
			if err := near.Send(bad); !errors.Is(err, sig.ErrUnencodable) {
				t.Fatalf("Send(unencodable) = %v, want an error wrapping sig.ErrUnencodable", err)
			}
			if err := near.Send(good); err != nil {
				t.Fatalf("Send(valid) after the refusal: %v", err)
			}
			if e, ok := recvWithin(t, far, 5*time.Second); !ok || e.IsMeta() || e.Tunnel != 3 {
				t.Fatalf("after the refusal the far end got %v ok=%v, want the valid envelope", e, ok)
			}
			time.Sleep(100 * time.Millisecond) // a wire lost to the bad envelope would be redialing by now
			if r := reg.Counter(MetricReconnects).Value(); r != 0 {
				t.Fatalf("%d reconnects, want 0", r)
			}
		})
	}
}

// TestMuxCarriesLayerLookalikes: the carrier's own protocols travel
// without a channel id, so nothing a box sends is mistaken for them —
// not even envelopes named like the mux's and the reliable layer's
// control traffic, nor a teardown. Each crosses mux over rel over TCP
// intact, in both directions, and arrives with no channel id and no
// sequence number.
func TestMuxCarriesLayerLookalikes(t *testing.T) {
	_, _, _, near, far := muxChannel(t, NewRelNetwork(TCPNetwork{}, RelConfig{}), "127.0.0.1:0")
	lookalikes := []sig.Envelope{
		{Meta: &sig.Meta{Kind: sig.MetaApp, App: "mux/open", Attrs: sig.NewAttrs("c", "1", "to", "svc")}},
		{Meta: &sig.Meta{Kind: sig.MetaApp, App: "mux/close", Attrs: sig.NewAttrs("c", "1")}},
		{Meta: &sig.Meta{Kind: sig.MetaApp, App: relAckApp}},
		{Meta: &sig.Meta{Kind: sig.MetaApp, App: relHelloApp, Attrs: sig.NewAttrs("ack", "0", "id", "x#0.0", "mode", "resume")}},
		{Meta: &sig.Meta{Kind: sig.MetaApp, App: relResetApp}},
		{Meta: &sig.Meta{Kind: sig.MetaTeardown}},
	}
	for _, dir := range []struct {
		name     string
		from, to Port
	}{{"dialer to acceptor", near, far}, {"acceptor to dialer", far, near}} {
		for _, e := range lookalikes {
			if err := dir.from.Send(e); err != nil {
				t.Fatalf("%s: Send(%v): %v", dir.name, e, err)
			}
		}
		for _, want := range lookalikes {
			got, ok := recvWithin(t, dir.to, 5*time.Second)
			if !ok {
				t.Fatalf("%s: channel closed before %v arrived", dir.name, want)
			}
			if !got.Meta.Equal(want.Meta) || got.Chan != 0 || got.Seq != 0 {
				t.Fatalf("%s: sent %v, got %v (chan %d, seq %d)", dir.name, want, got, got.Chan, got.Seq)
			}
		}
	}
}

// TestMuxCarrierRecoversAfterBoxTeardown: a box's teardown crossing a
// carrier tears down the box's channel, not the carrier. After one has
// crossed in each direction, the carrier's wire is severed: the
// reliable layer must redial it, and the other logical channels keep
// delivering both ways.
func TestMuxCarrierRecoversAfterBoxTeardown(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)
	fn := NewFaultNetwork(NewMemNetwork(), FaultProfile{PartitionFor: 30 * time.Millisecond})
	rel := NewRelNetwork(fn, RelConfig{RexmitInterval: 20 * time.Millisecond, AckDelay: 5 * time.Millisecond,
		RedialMin: 5 * time.Millisecond, GiveUpAfter: 5 * time.Second})
	a, b, addr, near, far := muxChannel(t, rel, "carrier")
	l, _ := b.Listen("svc2")
	near2, err := a.Dial(addr, "svc2")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	far2, err := l.Accept()
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}

	teardown := sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaTeardown}}
	for _, end := range [][2]Port{{near, far}, {far, near}} {
		if err := end[0].Send(teardown); err != nil {
			t.Fatal(err)
		}
		if e, ok := recvWithin(t, end[1], 5*time.Second); !ok || !e.IsMeta() || e.Meta.Kind != sig.MetaTeardown {
			t.Fatalf("teardown did not cross: %v ok=%v", e, ok)
		}
	}
	near.Close()
	far.Close()

	fn.Sever()
	for i := 1; i <= 5; i++ {
		near2.Send(sig.Envelope{Tunnel: i, Sig: sig.Close()})
		far2.Send(sig.Envelope{Tunnel: i, Sig: sig.CloseAck()})
	}
	for _, end := range []Port{far2, near2} {
		for i := 1; i <= 5; i++ {
			if e, ok := recvWithin(t, end, 5*time.Second); !ok || e.Tunnel != i {
				t.Fatalf("after the sever %s got %v ok=%v, want tunnel %d", end.Peer(), e, ok, i)
			}
		}
	}
	if r := reg.Counter(MetricReconnects).Value(); r == 0 {
		t.Fatal("the severed carrier was not redialed")
	}
	if g := reg.Counter(MetricGiveups).Value(); g != 0 {
		t.Fatalf("%d giveups, want 0", g)
	}
}

// TestMuxCarrierZeroAlloc is the alloc gate for the carrier path: in
// steady state a signal and a meta-signal cost nothing between a
// logical channel's Send and the far end's RecvBatch, over mux over
// the reliable layer over an in-memory wire — no wrapping envelope, no
// second encoding, no copy.
func TestMuxCarrierZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	_, _, _, near, far := muxChannel(t, NewRelNetwork(NewMemNetwork(), RelConfig{}), "carrier")
	var received atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]sig.Envelope, 256)
		for {
			n, ok := far.(BatchPort).RecvBatch(buf)
			if !ok {
				return
			}
			for i := 0; i < n; i++ {
				buf[i].Release()
			}
			received.Add(int64(n))
		}
	}()
	d := &sig.Descriptor{ID: sig.DescID{Origin: "dev", Seq: 1}, Addr: "10.0.0.1", Port: 5004, Codecs: []sig.Codec{sig.G711}}
	envs := []sig.Envelope{
		{Tunnel: 1, Sig: sig.Describe(d)},
		{Meta: &sig.Meta{Kind: sig.MetaApp, App: "tick", Attrs: sig.NewAttrs("k", "v")}},
	}
	// Stay within a window of the receiver, as the reliable layer's own
	// gate does: an unbounded backlog is not a steady state.
	sent := int64(0)
	send := func() {
		for _, e := range envs {
			near.Send(e)
		}
		if sent += int64(len(envs)); sent%1024 == 0 {
			for sent-received.Load() > 8192 {
				runtime.Gosched()
			}
		}
	}
	for i := 0; i < 10000; i++ {
		send()
	}
	time.Sleep(100 * time.Millisecond) // let acks trim the carrier's tracker
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			send()
		}
	})
	near.Close()
	<-done
	t.Logf("mux carrier: %d allocs, %d B per signal+meta pair", res.AllocsPerOp(), res.AllocedBytesPerOp())
	if a := res.AllocsPerOp(); a > 0 {
		t.Fatalf("steady-state mux carrier path allocates %d allocs per signal+meta pair, want 0", a)
	}
}

// TestMuxChannelAllocBudget is the alloc gate for a logical channel's
// life: dial, accept, and the close of both ends over an established
// carrier (mux over the reliable layer over an in-memory wire) cost at
// most 8 allocations — a muxPort, its queue inline, at each end, and
// open and close frames that are plain values.
func TestMuxChannelAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const budget = 8
	a, b, addr, near, far := muxChannel(t, NewRelNetwork(NewMemNetwork(), RelConfig{}), "carrier")
	near.Close()
	far.Close()
	l, err := b.Listen("churn")
	if err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			near, err := a.Dial(addr, "churn")
			if err != nil {
				tb.Fatal(err)
			}
			far, err := l.Accept()
			if err != nil {
				tb.Fatal(err)
			}
			near.Close()
			far.Close()
		}
	})
	t.Logf("mux dial+accept+close: %d allocs, %d B, %d ns per channel", res.AllocsPerOp(), res.AllocedBytesPerOp(), res.NsPerOp())
	if n := res.AllocsPerOp(); n > budget {
		t.Fatalf("mux dial+accept+close: %d allocs per channel, budget %d", n, budget)
	}
}

// TestPipeAllocBudget: an in-memory pipe — both ports and both queues —
// is one allocation; a queue leases its buffer only while envelopes
// wait in it.
func TestPipeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	var sink [2]Port
	if n := testing.AllocsPerRun(100, func() { sink[0], sink[1] = Pipe("a", "b") }); n != 1 {
		t.Fatalf("Pipe: %.1f allocs, want 1", n)
	}
}
