package transport

import (
	"testing"
	"time"

	"ipmedia/internal/sig"
)

func muxPair(t *testing.T, under Network) (*Mux, *Mux, string) {
	t.Helper()
	a, b := NewMux(under), NewMux(under)
	addr, err := b.ListenCarrier("muxB")
	if err != nil {
		t.Fatalf("ListenCarrier: %v", err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b, addr
}

func TestMuxRoundTrip(t *testing.T) {
	a, b, addr := muxPair(t, NewMemNetwork())
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

	// Data flows both ways, in order, through the binary framing.
	for i := 1; i <= 50; i++ {
		if err := near.Send(sig.Envelope{Tunnel: i, Sig: sig.Close()}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 1; i <= 50; i++ {
		e, ok := recvWithin(t, far, 2*time.Second)
		if !ok || e.Tunnel != i || e.Sig.Kind != sig.KindClose {
			t.Fatalf("recv %d: got %v ok=%v", i, e, ok)
		}
	}
	if err := far.Send(sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaSetup,
		Attrs: sig.NewAttrs("from", "far")}}); err != nil {
		t.Fatalf("reply: %v", err)
	}
	e, ok := recvWithin(t, near, 2*time.Second)
	if !ok || !e.IsMeta() || e.Meta.Kind != sig.MetaSetup || e.Meta.Get("from") != "far" {
		t.Fatalf("reply recv: got %v ok=%v", e, ok)
	}

	// Close on one side hangs up the other.
	near.Close()
	if _, ok := recvWithin(t, far, 2*time.Second); ok {
		t.Fatalf("far port still open after near close")
	}
}

func TestMuxUnknownLogicalHangsUp(t *testing.T) {
	a, _, addr := muxPair(t, NewMemNetwork())
	p, err := a.Dial(addr, "no-such-service")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	// The open is optimistic; the refusal arrives as a hangup.
	if _, ok := recvWithin(t, p, 2*time.Second); ok {
		t.Fatalf("expected hangup for unknown logical listener")
	}
}

func TestMuxInvalidateFailsChannels(t *testing.T) {
	a, b, addr := muxPair(t, NewMemNetwork())
	l, _ := b.Listen("svc")
	near, err := a.Dial(addr, "svc")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if _, err := l.Accept(); err != nil {
		t.Fatalf("Accept: %v", err)
	}
	a.Invalidate(addr)
	if _, ok := recvWithin(t, near, 2*time.Second); ok {
		t.Fatalf("logical channel survived carrier invalidation")
	}
	// A fresh dial establishes a fresh carrier.
	near2, err := a.Dial(addr, "svc")
	if err != nil {
		t.Fatalf("redial after invalidate: %v", err)
	}
	far2, err := l.Accept()
	if err != nil {
		t.Fatalf("re-accept: %v", err)
	}
	if err := near2.Send(sig.Envelope{Sig: sig.Close()}); err != nil {
		t.Fatalf("send on fresh carrier: %v", err)
	}
	if _, ok := recvWithin(t, far2, 2*time.Second); !ok {
		t.Fatalf("fresh carrier did not deliver")
	}
}

// TestMuxRidesOutPartition pins the tentpole claim that a carrier
// outage shorter than the reliable give-up budget is invisible to the
// logical channels: the rel layer underneath the mux re-dials and
// retransmits, and no logical channel dies.
func TestMuxRidesOutPartition(t *testing.T) {
	fn := NewFaultNetwork(NewMemNetwork(), FaultProfile{Seed: 7, PartitionFor: 150 * time.Millisecond})
	rel := NewRelNetwork(fn, RelConfig{Seed: 7, GiveUpAfter: 5 * time.Second})
	a, b, addr := muxPair(t, rel)
	l, _ := b.Listen("svc")
	near, err := a.Dial(addr, "svc")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	far, err := l.Accept()
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	if err := near.Send(sig.Envelope{Tunnel: 1, Sig: sig.Close()}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if e, ok := recvWithin(t, far, 2*time.Second); !ok || e.Tunnel != 1 {
		t.Fatalf("pre-partition delivery failed")
	}

	fn.Sever() // every wire cut, dials refused for 150ms

	// Sends during the partition are retained by the rel layer and
	// delivered after it heals; the logical channel never notices.
	for i := 2; i <= 10; i++ {
		if err := near.Send(sig.Envelope{Tunnel: i, Sig: sig.Close()}); err != nil {
			t.Fatalf("send during partition: %v", err)
		}
	}
	for i := 2; i <= 10; i++ {
		e, ok := recvWithin(t, far, 10*time.Second)
		if !ok || e.Tunnel != i {
			t.Fatalf("post-heal recv %d: got %v ok=%v", i, e, ok)
		}
	}
}
