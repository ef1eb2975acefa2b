package box

import (
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"ipmedia/internal/core"
	"ipmedia/internal/sig"
	"ipmedia/internal/transport"
)

// liveHeap is the heap still reachable after two collections: the
// first may leave finalizer-reachable or pool-victim objects for the
// second.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// footprint reports the live heap per item that one round of build
// holds. A first round is built and torn down before the measured one,
// so one-time costs (the solo wheel, telemetry instruments, intern
// entries) are paid beforehand, and so are the runtime's goroutine
// records, which exited goroutines leave for reuse: the reading is
// heap the items hold, goroutine records and stacks not counted.
func footprint(n int, build func(round int) (stop func())) int64 {
	build(0)()
	before := liveHeap()
	stop := build(1)
	after := liveHeap()
	stop()
	return (int64(after) - int64(before)) / int64(n)
}

// TestStandaloneRunnerFootprint holds what an idle standalone runner
// costs: its box, its runner record and its private shard, but no
// ring-drain scratch until a ring is drained. Over NewMemNetwork, whose
// ports never drain a ring, 1 000 runners read 1 390 B each on a
// 2-vCPU x86-64 host; with the scratch inline in every shard they read
// 13 600 B.
func TestStandaloneRunnerFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	const n, budget = 1000, 3 << 10
	net := transport.NewMemNetwork()
	per := footprint(n, func(round int) func() {
		rs := make([]*Runner, n)
		for i := range rs {
			name := fmt.Sprintf("idle%d.%d", round, i)
			rs[i] = NewRunner(New(name, core.ServerProfile{Name: name}), net)
		}
		return func() {
			for _, r := range rs {
				r.Stop()
			}
		}
	})
	t.Logf("idle standalone runner: %d B", per)
	if per > budget {
		t.Fatalf("an idle standalone runner holds %d B, budget %d B", per, budget)
	}
}

// TestPumpedChannelFootprint holds what a pumped in-memory channel
// costs at both ends once each end's pump has posted a batch: the pipe
// and its two queues, both channel records with the dialer's setup
// meta, and two pumps with their ack channel and batch buffer. On a
// 2-vCPU x86-64 host it reads 4 700 B per channel; with two batch
// buffers per pump it read 6 450 B. The budget is the one-buffer
// reading plus 10 %.
func TestPumpedChannelFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	const n, budget = 500, 5170
	net := transport.NewMemNetwork()
	per := footprint(n, func(round int) func() {
		var replies atomic.Int64
		srv := New("fpS", core.ServerProfile{Name: "fpS"})
		srv.Hook = func(ctx *Ctx, ev *Event) {
			if ev.Kind == EvEnvelope && ev.Env.IsMeta() && ev.Env.Meta.Kind == sig.MetaSetup {
				ctx.SendMeta(ev.Channel, sig.Meta{Kind: sig.MetaApp, App: "hi"})
			}
		}
		cli := New("fpC", core.ServerProfile{Name: "fpC"})
		cli.Hook = func(_ *Ctx, ev *Event) {
			if ev.Kind == EvEnvelope && ev.Env.IsMeta() && ev.Env.Meta.App == "hi" {
				replies.Add(1)
			}
		}
		rs, rc := NewRunner(srv, net), NewRunner(cli, net)
		addr := "fpS" + strconv.Itoa(round)
		if err := rs.Listen(addr, nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := rc.Connect("c"+strconv.Itoa(i), addr); err != nil {
				t.Fatal(err)
			}
		}
		await(t, rc, "a reply on every channel", func(*Ctx) bool { return replies.Load() == n })
		return func() {
			rc.Stop()
			rs.Stop()
		}
	})
	t.Logf("pumped mem channel, both ends: %d B", per)
	if per > budget {
		t.Fatalf("a pumped channel holds %d B at its two ends, budget %d B", per, budget)
	}
}

// TestPumpBurstInOrder: a backlog far larger than a batch, queued on a
// pipe before the runner sees the port, reaches the box whole and in
// order through one pump posting one batch at a time.
func TestPumpBurstInOrder(t *testing.T) {
	const n = 1000
	var got []int
	bx := New("B", core.ServerProfile{Name: "B"})
	bx.Hook = func(_ *Ctx, ev *Event) {
		if ev.Kind == EvEnvelope && ev.Env.IsMeta() && ev.Env.Meta.App == "seq" {
			i, _ := strconv.Atoi(ev.Env.Meta.Get("i"))
			got = append(got, i)
		}
	}
	r := NewRunner(bx, transport.NewMemNetwork())
	defer r.Stop()
	near, far := transport.Pipe("far", "near")
	far.Send(sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaSetup}})
	for i := 0; i < n; i++ {
		if err := far.Send(sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaApp, App: "seq",
			Attrs: sig.NewAttrs("i", strconv.Itoa(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	r.Do(func(ctx *Ctx) { r.addPort(ctx.Box().addChannel("c", false, false), near) })
	await(t, r, "the whole backlog", func(*Ctx) bool { return len(got) == n })
	var seen []int
	r.Do(func(*Ctx) { seen = append(seen, got...) })
	for i, v := range seen {
		if v != i {
			t.Fatalf("envelope %d arrived as %v", i, seen[max(0, i-2):min(len(seen), i+3)])
		}
	}
}
