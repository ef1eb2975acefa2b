package box

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ipmedia/internal/core"
	"ipmedia/internal/sig"
	"ipmedia/internal/transport"
)

// BenchmarkRunnerEvent measures the steady-state envelope dispatch
// path: a typed inbox item in, through Box.Handle, outputs recycled.
// The tentpole claim is 0 allocs/op — no closure per event, no frame
// per Handle, no output buffer per event.
func BenchmarkRunnerEvent(b *testing.B) {
	r := NewRunner(New("bench", core.ServerProfile{Name: "bench"}), transport.NewMemNetwork())
	defer r.Stop()
	r.Do(func(ctx *Ctx) { ctx.Box().AddChannel("c", true) })

	meta := &sig.Meta{Kind: sig.MetaApp, App: "tick"}
	ev := Event{Kind: EvEnvelope, Channel: "c", Env: sig.Envelope{Meta: meta}}
	// Warm the inbox ping-pong buffers and the frame pool.
	for i := 0; i < 1024; i++ {
		r.Inject(ev)
	}
	r.Do(func(*Ctx) {})

	barrier := func(*Ctx) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Inject(ev)
		if i&1023 == 1023 {
			// Periodic barrier so the unbounded inbox reflects a flow-
			// controlled steady state instead of growing to b.N items.
			r.Do(barrier)
		}
	}
	r.Do(barrier) // all b.N events dispatched
}

// TestRunnerEventZeroAlloc is the CI gate for the benchmark's claim.
func TestRunnerEventZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("pool reuse is randomized under -race")
	}
	if testing.Short() {
		t.Skip("benchmark-backed test")
	}
	res := testing.Benchmark(BenchmarkRunnerEvent)
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("steady-state dispatch allocates %d allocs/op, want 0", a)
	}
}

// TestBatchedMatchesSequential: a backlog of envelopes crossing the
// inbox as batches must be observed by the box in exactly the order
// and shape as the same envelopes delivered one at a time.
func TestBatchedMatchesSequential(t *testing.T) {
	const n = 500
	script := make([]sig.Envelope, 0, n+2)
	script = append(script, sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaSetup}})
	for i := 0; i < n; i++ {
		script = append(script, sig.Envelope{Meta: &sig.Meta{
			Kind: sig.MetaApp, App: "seq", Attrs: sig.NewAttrs("i", fmt.Sprint(i)),
		}})
	}
	script = append(script, sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaApp, App: "fin"}})

	run := func(batched bool) []string {
		var mu sync.Mutex
		var got []string
		done := make(chan struct{})
		bx := New("eq", core.ServerProfile{Name: "eq"})
		bx.Hook = func(ctx *Ctx, ev *Event) {
			if ev.Kind != EvEnvelope || !ev.Env.IsMeta() {
				return
			}
			mu.Lock()
			got = append(got, ev.Env.Meta.App+"/"+ev.Env.Meta.Get("i"))
			mu.Unlock()
			if ev.Env.Meta.App == "fin" {
				close(done)
			}
		}
		r := NewRunner(bx, transport.NewMemNetwork())
		defer r.Stop()
		if batched {
			// Preload the whole script into a pipe before the runner sees
			// the port: the pump drains it in real multi-envelope batches.
			near, far := transport.Pipe("far", "near")
			for _, e := range script {
				if err := far.Send(e); err != nil {
					t.Fatal(err)
				}
			}
			r.Do(func(ctx *Ctx) {
				r.addPort(ctx.Box().addChannel("c", false, false), near)
			})
		} else {
			r.Do(func(ctx *Ctx) { ctx.Box().AddChannel("c", false) })
			for _, e := range script {
				r.Inject(Event{Kind: EvEnvelope, Channel: "c", Env: e})
			}
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("script did not finish")
		}
		r.Do(func(*Ctx) {})
		mu.Lock()
		defer mu.Unlock()
		return got
	}

	seq := run(false)
	bat := run(true)
	if len(seq) != len(bat) {
		t.Fatalf("sequential saw %d events, batched %d", len(seq), len(bat))
	}
	for i := range seq {
		if seq[i] != bat[i] {
			t.Fatalf("event %d differs: sequential %q, batched %q", i, seq[i], bat[i])
		}
	}
}

// TestStopVsConnect races Stop against in-flight Connect and incoming
// accepts: no deadlock, no post-after-drain, no leaked goroutine
// blocking Stop.
func TestStopVsConnect(t *testing.T) {
	for i := 0; i < 50; i++ {
		net := transport.NewMemNetwork()
		srv := NewRunner(New("S", core.ServerProfile{Name: "S"}), net)
		if err := srv.Listen("S", nil); err != nil {
			t.Fatal(err)
		}
		cli := NewRunner(New("C", core.ServerProfile{Name: "C"}), net)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			cli.Connect("c", "S") // may lose the race with Stop: both fine
		}()
		go func() {
			defer wg.Done()
			cli.Stop()
		}()
		wg.Wait()
		srv.Stop()
	}
}

// TestStopVsTimerFire races Stop against wheel timers firing into the
// inbox: fires that lose the race are refused at the closed inbox,
// never dispatched into a drained loop.
func TestStopVsTimerFire(t *testing.T) {
	for i := 0; i < 25; i++ {
		r := NewRunner(New("T", core.ServerProfile{Name: "T"}), transport.NewMemNetwork())
		r.Do(func(ctx *Ctx) {
			for j := 0; j < 16; j++ {
				ctx.SetTimer(fmt.Sprintf("t%d", j), time.Duration(j)*time.Millisecond)
			}
		})
		time.Sleep(time.Duration(i%8) * time.Millisecond)
		r.Stop()
		noErrs(t, r)
	}
}

// TestPumpExitsOnTransportLoss: when the far side of a channel dies
// without a teardown, the pump must exit, the box must observe a
// synthesized teardown, and Stop must not hang on the pump.
func TestPumpExitsOnTransportLoss(t *testing.T) {
	net := transport.NewMemNetwork()
	srv := NewRunner(New("S", core.ServerProfile{Name: "S"}), net)
	cli := NewRunner(New("C", core.ServerProfile{Name: "C"}), net)
	if err := srv.Listen("S", nil); err != nil {
		t.Fatal(err)
	}
	if err := cli.Connect("c", "S"); err != nil {
		t.Fatal(err)
	}
	await(t, srv, "server side up", func(ctx *Ctx) bool { return ctx.Box().HasChannel("in0") })
	// Kill the server runner: its ports close, the client's pump sees
	// the transport vanish and synthesizes the teardown.
	srv.Stop()
	await(t, cli, "client cleaned up", func(ctx *Ctx) bool { return !ctx.Box().HasChannel("c") })
	cli.Stop() // hangs if the pump goroutine leaked
	noErrs(t, cli)
}

// TestDrainReportsPortLoss: the same over mux channels, which the loop
// drains inline: the far end's close raises the port's readiness edge,
// the drain finds the port closed and empty, the box observes a
// synthesized teardown, and Stop does not hang.
func TestDrainReportsPortLoss(t *testing.T) {
	net := newMuxNet(t)
	srv := NewRunner(New("S", core.ServerProfile{Name: "S"}), net)
	cli := NewRunner(New("C", core.ServerProfile{Name: "C"}), net)
	if err := srv.Listen("S", nil); err != nil {
		t.Fatal(err)
	}
	if err := cli.Connect("c", "S"); err != nil {
		t.Fatal(err)
	}
	await(t, srv, "server side up", func(ctx *Ctx) bool { return ctx.Box().HasChannel("in0") })
	srv.Stop()
	await(t, cli, "client cleaned up", func(ctx *Ctx) bool { return !ctx.Box().HasChannel("c") && cli.port("c") == nil })
	cli.Stop()
	noErrs(t, cli)
}

// TestAwaitChannelNotification: AwaitChannel must wake on the accept
// event itself, and report false cleanly on timeout and after Stop.
func TestAwaitChannelNotification(t *testing.T) {
	net := transport.NewMemNetwork()
	srv := NewRunner(New("S", core.ServerProfile{Name: "S"}), net)
	cli := NewRunner(New("C", core.ServerProfile{Name: "C"}), net)
	defer cli.Stop()
	if err := srv.Listen("S", nil); err != nil {
		t.Fatal(err)
	}
	got := make(chan bool, 1)
	go func() { got <- srv.AwaitChannel("in0", 5*time.Second) }()
	time.Sleep(10 * time.Millisecond) // let the waiter register
	if err := cli.Connect("c", "S"); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-got:
		if !ok {
			t.Fatal("AwaitChannel returned false for an accepted channel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AwaitChannel did not wake on accept")
	}
	if srv.AwaitChannel("never", 30*time.Millisecond) {
		t.Fatal("AwaitChannel must time out on a channel that never appears")
	}
	srv.Stop()
	start := time.Now()
	srv.AwaitChannel("in0", 5*time.Second)
	if time.Since(start) > time.Second {
		t.Fatal("AwaitChannel must return promptly after Stop, not wait out the timeout")
	}
}

// BenchmarkRunnerEventEndToEnd measures the full signaling receive
// path the storms exercise per event: wire decode (interned strings,
// pooled Meta frames), inbox crossing, box dispatch, and the runner's
// end-of-dispatch Release that recycles the decode frame.
func BenchmarkRunnerEventEndToEnd(b *testing.B) {
	r := NewRunner(New("bench", core.ServerProfile{Name: "bench"}), transport.NewMemNetwork())
	defer r.Stop()
	r.Do(func(ctx *Ctx) { ctx.Box().AddChannel("c", true) })

	sig.InternSeed("bench", "c", "tick")
	payload := sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaApp, App: "tick",
		Attrs: sig.NewAttrs("from", "bench", "chan", "c")}}.Marshal()

	inject := func() {
		e, err := sig.UnmarshalEnvelope(payload)
		if err != nil {
			b.Fatal(err)
		}
		r.Inject(Event{Kind: EvEnvelope, Channel: "c", Env: e})
	}
	// Warm the inbox ping-pong buffers, the frame pool, and the decode
	// meta pool.
	for i := 0; i < 1024; i++ {
		inject()
	}
	r.Do(func(*Ctx) {})

	barrier := func(*Ctx) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inject()
		if i&63 == 63 {
			// Tight periodic barrier: bounds in-flight decode frames so
			// the meta pool cycles instead of growing.
			r.Do(barrier)
		}
	}
	r.Do(barrier)
}

// TestRunnerEventEndToEndAllocs is the CI gate for the end-to-end
// claim: decode → inbox → dispatch → release allocates nothing in
// steady state.
func TestRunnerEventEndToEndAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("pool reuse is randomized under -race")
	}
	if testing.Short() {
		t.Skip("benchmark-backed test")
	}
	res := testing.Benchmark(BenchmarkRunnerEventEndToEnd)
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("end-to-end event path allocates %d allocs/op, want 0", a)
	}
}
