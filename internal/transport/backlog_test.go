package transport

import (
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"ipmedia/internal/sig"
	"ipmedia/internal/telemetry"
)

// TestQueueBound: a bounded queue refuses pushes past its cap with
// ErrBacklog and accepts again once drained.
func TestQueueBound(t *testing.T) {
	q := newQueue(nil, nil, 4)
	e := sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaApp, App: "x"}}
	for i := 0; i < 4; i++ {
		if err := q.push(e); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if err := q.push(e); !errors.Is(err, ErrBacklog) {
		t.Fatalf("push past cap: got %v, want ErrBacklog", err)
	}
	buf := make([]sig.Envelope, 2)
	if n, ok := q.popBatch(buf); !ok || n != 2 {
		t.Fatalf("popBatch: n=%d ok=%v", n, ok)
	}
	if err := q.push(e); err != nil {
		t.Fatalf("push after drain: %v", err)
	}
}

// TestQueueRingFIFO: the queue's circular buffer keeps FIFO order
// through wrap-around and through growth at any offset, and keeps no
// reference to an envelope once it has been popped.
func TestQueueRingFIFO(t *testing.T) {
	q := newQueue(nil, nil, 0)
	rng := rand.New(rand.NewSource(1))
	m := &sig.Meta{Kind: sig.MetaApp, App: "x"}
	buf := make([]sig.Envelope, 7)
	next, want := 0, 0
	for round := 0; round < 5000; round++ {
		for i := rng.Intn(5); i > 0; i-- {
			q.push(sig.Envelope{Tunnel: next, Meta: m})
			next++
		}
		if next > want {
			n, _ := q.popBatch(buf[:1+rng.Intn(len(buf))])
			for _, e := range buf[:n] {
				if e.Tunnel != want {
					t.Fatalf("round %d: popped envelope %d, want %d", round, e.Tunnel, want)
				}
				want++
			}
		}
		held := 0
		for _, e := range q.ring {
			if e.Meta != nil {
				held++
			}
		}
		if held != next-want {
			t.Fatalf("round %d: buffer references %d envelopes, %d are queued", round, held, next-want)
		}
	}
}

// TestTCPSendQueueBound: a TCP peer that stops reading must not make
// the local side buffer without limit — Send fails with ErrBacklog at
// the cap and the port is torn down. net.Pipe gives a peer with zero
// buffering, so the writer goroutine wedges on the first frame.
func TestTCPSendQueueBound(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)

	oldCap := SendQueueCap
	SendQueueCap = 8
	defer func() { SendQueueCap = oldCap }()

	near, far := net.Pipe()
	defer far.Close()
	p := NewTCPPort(near)
	defer p.Close()

	e := sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaApp, App: "stall"}}
	var backlogged bool
	// The writer drains up to one batch before wedging on the pipe, so
	// allow cap+batch+1 sends before demanding backpressure.
	for i := 0; i < SendQueueCap+70; i++ {
		if err := p.Send(e); err != nil {
			if !errors.Is(err, ErrBacklog) {
				t.Fatalf("send %d: got %v, want ErrBacklog", i, err)
			}
			backlogged = true
			break
		}
	}
	if !backlogged {
		t.Fatal("send queue never pushed back on a stalled peer")
	}
	// The discarded frame leaves a trace: backlog_dropped counts it.
	if d := reg.Counter(MetricBacklogDropped).Value(); d != 1 {
		t.Fatalf("backlog_dropped = %d, want 1", d)
	}
	// Backlog fails the whole port: further sends see a closed port.
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := p.Send(e)
		if errors.Is(err, ErrClosed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("port not closed after backlog failure, Send: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if hwm := reg.Gauge(MetricSendQueueDepth).HighWater(); hwm < int64(SendQueueCap) {
		t.Fatalf("send_queue_depth high-water = %d, want >= %d", hwm, SendQueueCap)
	}
}

// TestMemPortRecvBatch: the batch receive path returns queued bursts
// in FIFO order without the channel pump.
func TestMemPortRecvBatch(t *testing.T) {
	a, b := Pipe("a", "b")
	const n = 100
	for i := 0; i < n; i++ {
		if err := a.Send(sig.Envelope{Tunnel: i, Meta: &sig.Meta{Kind: sig.MetaApp}}); err != nil {
			t.Fatal(err)
		}
	}
	bp := b.(BatchPort)
	buf := make([]sig.Envelope, 16)
	var got []int
	for len(got) < n {
		k, ok := bp.RecvBatch(buf)
		if !ok {
			t.Fatal("port closed early")
		}
		for i := 0; i < k; i++ {
			got = append(got, buf[i].Tunnel)
		}
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("envelope %d out of order: tunnel %d", i, v)
		}
	}
	a.Close()
	if k, ok := bp.RecvBatch(buf); ok || k != 0 {
		t.Fatalf("RecvBatch after close: k=%d ok=%v, want 0,false", k, ok)
	}
}
