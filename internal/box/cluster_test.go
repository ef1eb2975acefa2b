package box

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipmedia/internal/core"
	"ipmedia/internal/sig"
	"ipmedia/internal/transport"
)

// TestClusterPlacement: hash placement is stable, in range, and
// explicit placement is honored.
func TestClusterPlacement(t *testing.T) {
	c := NewCluster(transport.NewMemNetwork(), 4)
	defer c.Stop()
	if c.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", c.Shards())
	}
	counts := make([]int, 4)
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("box-%d", i)
		s := c.ShardOf(name)
		if s < 0 || s >= 4 {
			t.Fatalf("ShardOf(%q) = %d, out of range", name, s)
		}
		if s2 := c.ShardOf(name); s2 != s {
			t.Fatalf("ShardOf(%q) unstable: %d then %d", name, s, s2)
		}
		counts[s]++
	}
	for s, n := range counts {
		// 1000 keys over 4 shards: expect ~250 each; a shard below 150
		// or above 350 means the hash is badly skewed.
		if n < 150 || n > 350 {
			t.Fatalf("shard %d got %d of 1000 boxes; distribution %v", s, n, counts)
		}
	}
	r := c.RunnerOn(2, New("pinned", core.ServerProfile{Name: "pinned"}))
	if r.Shard() != 2 {
		t.Fatalf("RunnerOn(2).Shard() = %d", r.Shard())
	}
}

// TestClusterCrossShardCall: a full device call where caller and
// callee live on different shards of one cluster, over ring-port
// channels drained inline by each side's shard loop. The call must
// reach flowing on both ends and tear down cleanly — placement must be
// unobservable to the boxes.
func TestClusterCrossShardCall(t *testing.T) {
	net := transport.NewRingMemNetwork()
	c := NewCluster(net, 2)
	defer c.Stop()

	caller := c.RunnerOn(0, New("A", deviceProfile("1", 5004)))
	callee := c.RunnerOn(1, New("B", deviceProfile("2", 5006)))
	if err := callee.Listen("B", nil); err != nil {
		t.Fatal(err)
	}
	if err := caller.Connect("c1", "B"); err != nil {
		t.Fatal(err)
	}
	caller.Do(func(ctx *Ctx) {
		ctx.SetGoal(core.NewOpenSlot(TunnelSlot("c1", 0), sig.Audio, caller.Box().Profile()))
	})
	await(t, caller, "caller flowing", func(ctx *Ctx) bool {
		s := ctx.Box().Slot(TunnelSlot("c1", 0))
		return s != nil && s.IsFlowing() && s.Enabled()
	})
	await(t, callee, "callee flowing", func(ctx *Ctx) bool {
		s := ctx.Box().Slot(TunnelSlot("in0", 0))
		return s != nil && s.IsFlowing() && s.Enabled()
	})

	caller.Do(func(ctx *Ctx) { ctx.Teardown("c1") })
	await(t, caller, "caller torn down", func(ctx *Ctx) bool { return !ctx.Box().HasChannel("c1") })
	await(t, callee, "callee torn down", func(ctx *Ctx) bool { return !ctx.Box().HasChannel("in0") })
	noErrs(t, caller, callee)
}

// acceptLog is a box hook that learns accepted channels' names the way
// a program does — from the setup meta each one opens with, which
// carries the dialer's name for the channel — and counts teardowns.
type acceptLog struct {
	mu     sync.Mutex
	nameOf map[string]string // dialer's channel name -> accepted channel name
	torn   int
}

func newAcceptLog(b *Box) *acceptLog {
	l := &acceptLog{nameOf: map[string]string{}}
	b.Hook = func(_ *Ctx, ev *Event) {
		if ev.Kind != EvEnvelope || !ev.Env.IsMeta() {
			return
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		switch ev.Env.Meta.Kind {
		case sig.MetaSetup:
			l.nameOf[ev.Env.Meta.Get("chan")] = ev.Channel
		case sig.MetaTeardown:
			l.torn++
		}
	}
	return l
}

// await waits for the channel the dialer calls dialed to be set up and
// returns the name it was accepted under.
func (l *acceptLog) await(t *testing.T, dialed string) string {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		l.mu.Lock()
		name, ok := l.nameOf[dialed]
		l.mu.Unlock()
		if ok {
			return name
		}
		if time.Now().After(end) {
			t.Fatalf("server never saw the setup of %s", dialed)
		}
	}
}

func (l *acceptLog) teardowns() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.torn
}

// TestClusterCrossShardLifecycle is the -race stress for the sharded
// runtime: channel setup, teardown, and retarget (redial under a new
// name) spanning two shards, then Stop racing a cross-shard
// Connect. Envelopes from shard 0's loop land in shard 1's inbox and
// vice versa, so the race detector sees every cross-core handoff. The
// server learns each accepted channel's name from its setup meta: the
// retargeted channel may or may not be given the torn-down one's name.
func TestClusterCrossShardLifecycle(t *testing.T) {
	for i := 0; i < 20; i++ {
		net := transport.NewRingMemNetwork()
		c := NewCluster(net, 2)
		sb := New("S", core.ServerProfile{Name: "S"})
		log := newAcceptLog(sb)
		srv := c.RunnerOn(0, sb)
		cli := c.RunnerOn(1, New("C", core.ServerProfile{Name: "C"}))
		if err := srv.Listen("S", nil); err != nil {
			t.Fatal(err)
		}

		// Setup.
		if err := cli.Connect("c1", "S"); err != nil {
			t.Fatal(err)
		}
		if first := log.await(t, "c1"); !srv.AwaitChannel(first, 5*time.Second) {
			t.Fatal("server never saw the cross-shard channel")
		}

		// Teardown, then retarget: redial immediately under a new name
		// while the teardown is still propagating to the other shard.
		cli.Do(func(ctx *Ctx) { ctx.Teardown("c1") })
		if err := cli.Connect("c2", "S"); err != nil {
			t.Fatal(err)
		}
		second := log.await(t, "c2")
		await(t, srv, "old channel torn down and the retargeted one standing", func(ctx *Ctx) bool {
			chans := ctx.Box().Channels()
			return log.teardowns() == 1 && len(chans) == 1 && chans[0] == second
		})

		// Stop racing a cross-shard Connect: either order is fine, but
		// nothing may strand, deadlock, or trip the race detector.
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			cli.Connect("c3", "S")
		}()
		go func() {
			defer wg.Done()
			cli.Stop()
		}()
		wg.Wait()
		noErrs(t, srv, cli)
		c.Stop()
	}
}

// TestClusterStopIdempotent: runners stopped directly, then the
// cluster stopped, then stopped again.
func TestClusterStopIdempotent(t *testing.T) {
	c := NewCluster(transport.NewRingMemNetwork(), 3)
	rs := make([]*Runner, 6)
	for i := range rs {
		rs[i] = c.Runner(New(fmt.Sprintf("b%d", i), core.ServerProfile{Name: "b"}))
	}
	rs[0].Stop()
	rs[0].Stop()
	c.Stop()
	c.Stop()
	for _, r := range rs {
		r.Stop()
	}
}

// TestClusterStopStartsNoGoroutines: stopping a 2 000-runner cluster
// posts every stop item and waits on each from the calling goroutine.
// A goroutine per runner would each leave a record the runtime keeps
// for the life of the process (about 440 B), so a sampler polling
// runtime.NumGoroutine while Stop runs may see at most the count before
// Stop plus the shards and two.
func TestClusterStopStartsNoGoroutines(t *testing.T) {
	const n, shards = 2000, 2
	c := NewCluster(transport.NewRingMemNetwork(), shards)
	for i := 0; i < n; i++ {
		name := "stop" + strconv.Itoa(i)
		c.Runner(New(name, core.ServerProfile{Name: name}))
	}
	var peak atomic.Int64
	quit, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			if g := int64(runtime.NumGoroutine()); g > peak.Load() {
				peak.Store(g)
			}
			select {
			case <-quit:
				return
			default:
			}
		}
	}()
	before := runtime.NumGoroutine()
	c.Stop()
	close(quit)
	<-sampled
	if p, limit := peak.Load(), int64(before+shards+2); p > limit {
		t.Fatalf("stopping %d runners ran %d goroutines at once, %d before Stop; limit %d", n, p, before, limit)
	}
}

// TestClusterTimersPerShard: timers of boxes on different shards run
// on that shard's wheel and still fire into the right inbox.
func TestClusterTimersPerShard(t *testing.T) {
	c := NewCluster(transport.NewRingMemNetwork(), 2)
	defer c.Stop()
	fired := make(chan int, 2)
	for i := 0; i < 2; i++ {
		i := i
		r := c.RunnerOn(i, New(fmt.Sprintf("t%d", i), core.ServerProfile{Name: "t"}))
		r.SetProgram(&Program{
			Initial: "armed",
			States: []*State{
				{
					Name:    "armed",
					OnEnter: func(ctx *Ctx) { ctx.SetTimer("tick", 10*time.Millisecond) },
					Trans:   []Trans{{When: func(ctx *Ctx) bool { return ctx.OnTimer("tick") }, To: "done"}},
				},
				{Name: "done", OnEnter: func(*Ctx) { fired <- i }},
			},
		})
	}
	got := map[int]bool{}
	for len(got) < 2 {
		select {
		case i := <-fired:
			got[i] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("timers fired on shards %v, want both", got)
		}
	}
}

// BenchmarkClusterEvent is BenchmarkRunnerEvent on a cluster shard:
// steady-state dispatch through a shared shard loop must also be
// zero-alloc.
func BenchmarkClusterEvent(b *testing.B) {
	c := NewCluster(transport.NewRingMemNetwork(), 2)
	defer c.Stop()
	r := c.RunnerOn(0, New("bench", core.ServerProfile{Name: "bench"}))
	r.Do(func(ctx *Ctx) { ctx.Box().AddChannel("c", true) })

	meta := &sig.Meta{Kind: sig.MetaApp, App: "tick"}
	ev := Event{Kind: EvEnvelope, Channel: "c", Env: sig.Envelope{Meta: meta}}
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
			r.Do(barrier)
		}
	}
	r.Do(barrier)
}

// TestClusterEventZeroAlloc is the CI gate for sharded dispatch.
func TestClusterEventZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("pool reuse is randomized under -race")
	}
	if testing.Short() {
		t.Skip("benchmark-backed test")
	}
	res := testing.Benchmark(BenchmarkClusterEvent)
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("sharded steady-state dispatch allocates %d allocs/op, want 0", a)
	}
}
