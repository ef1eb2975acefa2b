package pathmon

import (
	"sync"
	"testing"
	"time"

	"ipmedia/internal/box"
	"ipmedia/internal/core"
	"ipmedia/internal/ltl"
	"ipmedia/internal/sig"
	"ipmedia/internal/telemetry"
	"ipmedia/internal/transport"
)

func await(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestMonitorSnapshot builds a live three-box path, watches it come
// up, and checks the monitor's path shape, classification, and
// observation before and after the channel is established.
func TestMonitorSnapshot(t *testing.T) {
	net := transport.NewMemNetwork()
	prof := func(name string, port int) *core.EndpointProfile {
		return core.NewEndpointProfile(name, "h"+name, port, []sig.Codec{sig.G711}, []sig.Codec{sig.G711})
	}
	l := box.NewRunner(box.New("L", prof("L", 1)), net)
	r := box.NewRunner(box.New("R", prof("R", 2)), net)
	mid := box.NewRunner(box.New("M", core.ServerProfile{Name: "M"}), net)
	defer l.Stop()
	defer r.Stop()
	defer mid.Stop()
	if err := l.Listen("L", nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Listen("R", nil); err != nil {
		t.Fatal(err)
	}
	if err := mid.Connect("cl", "L"); err != nil {
		t.Fatal(err)
	}
	if err := mid.Connect("cr", "R"); err != nil {
		t.Fatal(err)
	}
	mid.Do(func(ctx *box.Ctx) {
		ctx.SetGoal(core.NewFlowLink(box.TunnelSlot("cl", 0), box.TunnelSlot("cr", 0)))
	})

	m := New()
	m.AddBox(l)
	m.AddBox(r)
	m.AddBox(mid)
	m.Tunnel("M", box.TunnelSlot("cl", 0), "L", box.TunnelSlot("in0", 0))
	m.Tunnel("M", box.TunnelSlot("cr", 0), "R", box.TunnelSlot("in0", 0))

	// Before anything opens: one path, bothClosed, unspecified ends
	// (the slots have no goals yet at the devices).
	reports, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("want 1 path, got %v", reports)
	}
	if !reports[0].Obs.BothClosed {
		t.Fatalf("fresh path must observe bothClosed: %v", reports[0])
	}

	// Bring it up: open at L, hold at R.
	await(t, "L's channel", func() bool {
		ok := false
		l.Do(func(ctx *box.Ctx) { ok = ctx.Box().HasChannel("in0") })
		return ok
	})
	l.Do(func(ctx *box.Ctx) {
		ctx.SetGoal(core.NewOpenSlot(box.TunnelSlot("in0", 0), sig.Audio, l.Box().Profile()))
	})
	await(t, "path flowing", func() bool {
		reports, err := m.Snapshot()
		if err != nil {
			return false
		}
		rep, ok := Find(reports, "L", "R")
		return ok && rep.Obs.BothFlowing
	})
	reports, err = m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := Find(reports, "L", "R")
	if !ok {
		t.Fatalf("no L..R path: %v", reports)
	}
	if rep.Path.Flowlinks() != 1 || rep.Path.Hops() != 2 {
		t.Fatalf("path shape: %v", rep.Path)
	}
	if !rep.Specified || rep.Spec != ltl.RecFlowing {
		t.Fatalf("spec = %v (specified=%v), want □◇bothFlowing", rep.Spec, rep.Specified)
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
	if _, found := Find(reports, "L", "nobody"); found {
		t.Fatal("Find must miss unknown boxes")
	}
}

// TestSnapshotConcurrentWithRunners pins the monitor's locking
// contract: Snapshot, AddBox, and Tunnel may be called from any
// goroutine while the monitored boxes are live and their goals are
// churning. Run under -race this exercises the per-box freeze (Do),
// the monitor's own mutex, and the telemetry counters Snapshot bumps.
func TestSnapshotConcurrentWithRunners(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)

	net := transport.NewMemNetwork()
	prof := func(name string, port int) *core.EndpointProfile {
		return core.NewEndpointProfile(name, "h"+name, port, []sig.Codec{sig.G711}, []sig.Codec{sig.G711})
	}
	l := box.NewRunner(box.New("L", prof("L", 1)), net)
	r := box.NewRunner(box.New("R", prof("R", 2)), net)
	mid := box.NewRunner(box.New("M", core.ServerProfile{Name: "M"}), net)
	defer l.Stop()
	defer r.Stop()
	defer mid.Stop()
	if err := l.Listen("L", nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Listen("R", nil); err != nil {
		t.Fatal(err)
	}
	if err := mid.Connect("cl", "L"); err != nil {
		t.Fatal(err)
	}
	if err := mid.Connect("cr", "R"); err != nil {
		t.Fatal(err)
	}
	mid.Do(func(ctx *box.Ctx) {
		ctx.SetGoal(core.NewFlowLink(box.TunnelSlot("cl", 0), box.TunnelSlot("cr", 0)))
	})
	await(t, "L's channel", func() bool {
		ok := false
		l.Do(func(ctx *box.Ctx) { ok = ctx.Box().HasChannel("in0") })
		return ok
	})

	m := New()
	m.AddBox(l)
	m.AddBox(r)
	m.AddBox(mid)
	m.Tunnel("M", box.TunnelSlot("cl", 0), "L", box.TunnelSlot("in0", 0))
	m.Tunnel("M", box.TunnelSlot("cr", 0), "R", box.TunnelSlot("in0", 0))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Churn the goal at L between open and close so slot states and
	// goal kinds change under the monitor's feet.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				l.Do(func(ctx *box.Ctx) {
					ctx.SetGoal(core.NewOpenSlot(box.TunnelSlot("in0", 0), sig.Audio, l.Box().Profile()))
				})
			} else {
				l.Do(func(ctx *box.Ctx) {
					ctx.SetGoal(core.NewCloseSlot(box.TunnelSlot("in0", 0)))
				})
			}
		}
	}()
	// Concurrent (idempotent) registration while snapshotting.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.AddBox(l)
			}
		}
	}()
	for i := 0; i < 100; i++ {
		if _, err := m.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if got := reg.Counter(MetricSnapshots).Value(); got != 100 {
		t.Fatalf("snapshots = %d, want 100", got)
	}
	if evals := reg.Counter(MetricEvaluations).Value(); evals < 100 {
		t.Fatalf("prop_evaluations = %d, want >= 100", evals)
	}
}

// TestRetargetTunnelReusedFarEnd: a listener gives a new channel the
// name of one that is gone, so a retarget can name a far end that an
// older tunnel — of a caller that has not redialed yet — still holds.
// The older tunnel is dropped, and the topology stays a set of paths.
func TestRetargetTunnelReusedFarEnd(t *testing.T) {
	m := New()
	m.RetargetTunnel("cliA", "c.t0", "dev", "in0.t0")
	m.RetargetTunnel("cliB", "c.t0", "dev", "in1.t0")
	// cliA hung up, dev freed in0, and cliB's redial was accepted as in0.
	m.RetargetTunnel("cliB", "c.t0", "dev", "in0.t0")
	reports, err := m.Snapshot()
	if err != nil {
		t.Fatalf("snapshot after a far-end name was reused: %v", err)
	}
	if len(reports) != 1 {
		t.Fatalf("snapshot has %d paths, want cliB's alone: %v", len(reports), reports)
	}
	if l, r := reports[0].Path.Ends(); l.Box+r.Box != "cliBdev" && l.Box+r.Box != "devcliB" {
		t.Fatalf("the surviving path runs %s, want cliB to dev", reports[0].Path)
	}
	// cliA redials and lands on the other name.
	m.RetargetTunnel("cliA", "c.t0", "dev", "in1.t0")
	if reports, err = m.Snapshot(); err != nil || len(reports) != 2 {
		t.Fatalf("after cliA's redial: %d paths, %v; want 2", len(reports), err)
	}
}
