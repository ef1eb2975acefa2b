package transport

import (
	"testing"
	"time"

	"ipmedia/internal/sig"
	"ipmedia/internal/telemetry"
)

func awaitGauge(t *testing.T, g *telemetry.Gauge, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if g.Value() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue depth = %d, want %d", g.Value(), want)
}

// TestQueueDepthGauge pins the unbounded queue's visibility contract:
// the depth gauge rises synchronously with Send (push), falls as the
// receiver drains (pop), and the high-water mark keeps the peak. This
// is the regression guard for slow readers growing memory invisibly.
func TestQueueDepthGauge(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)

	a, b := Pipe("a", "b")
	defer a.Close()
	defer b.Close()
	depth := reg.Gauge(MetricQueueDepth)

	const n = 8
	for i := 0; i < n; i++ {
		if err := a.Send(sig.Envelope{Tunnel: i, Sig: sig.Close()}); err != nil {
			t.Fatal(err)
		}
	}
	// No receiver yet: every envelope is still queued, so the gauge holds
	// the full backlog.
	if got := depth.Value(); got != n {
		t.Fatalf("after %d unread sends: depth = %d", n, got)
	}
	if hwm := depth.HighWater(); hwm < n {
		t.Fatalf("high-water mark = %d, want >= %d", hwm, n)
	}

	for i := 0; i < n; i++ {
		recvOne(t, b)
	}
	awaitGauge(t, depth, 0)

	if got := reg.Counter(MetricFramesOut).Value(); got != n {
		t.Fatalf("frames_out = %d, want %d", got, n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for reg.Counter(MetricFramesIn).Value() != n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := reg.Counter(MetricFramesIn).Value(); got != n {
		t.Fatalf("frames_in = %d, want %d", got, n)
	}
	if hwm := depth.HighWater(); hwm < n {
		t.Fatalf("high-water mark lost: %d", hwm)
	}
}

// TestDialAcceptCounters checks channel-establishment accounting on
// the in-memory network.
func TestDialAcceptCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)

	n := NewMemNetwork()
	l, err := n.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 3; i++ {
		p, err := n.Dial("svc")
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		q, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer q.Close()
	}
	if d := reg.Counter(MetricDials).Value(); d != 3 {
		t.Fatalf("dials = %d, want 3", d)
	}
	if a := reg.Counter(MetricAccepts).Value(); a != 3 {
		t.Fatalf("accepts = %d, want 3", a)
	}
}
