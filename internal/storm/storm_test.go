package storm

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ipmedia/internal/box"
	"ipmedia/internal/pathmon"
	"ipmedia/internal/sig"
	"ipmedia/internal/transport"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestClientLifecycles runs the storm clients as the harnesses do — on
// a cluster shard, against holding devices, with the Section V formulas
// polled live — and checks what the harness gates rely on: every client
// keeps completing lifecycles, the on-flow callback fires once per
// set-up, and the stop flag parks every client idle with no path left
// wedged.
func TestClientLifecycles(t *testing.T) {
	const clients, devices = 8, 2
	cluster := box.NewCluster(transport.NewMemNetwork(), 1)
	defer cluster.Stop()
	mon := pathmon.New()
	stats := &Stats{}

	for i := 0; i < devices; i++ {
		name := fmt.Sprintf("dev%d", i)
		b := box.New(name, DevProfile(name, 20000+i))
		b.Hook = DeviceHook(mon, name, nil)
		r := cluster.Runner(b)
		if err := r.Listen(name, nil); err != nil {
			t.Fatal(err)
		}
		mon.AddBox(r)
	}
	var flows [clients]atomic.Int64
	runners := make([]*box.Runner, clients)
	for i := range runners {
		name := fmt.Sprintf("cli%d", i)
		r := cluster.Runner(box.New(name, DevProfile(name, 30000+i)))
		flowed := &flows[i]
		r.SetProgram(ClientProgram(stats, fmt.Sprintf("dev%d", i%devices),
			10*time.Millisecond, 20*time.Millisecond, 5*time.Second, int64(i+1),
			func(setup time.Duration) {
				if setup < 0 || setup > 5*time.Second {
					t.Errorf("%s: set-up reported as taking %v", name, setup)
				}
				flowed.Add(1)
			}))
		mon.AddBox(r)
		runners[i] = r
	}
	tk := pathmon.NewTracker(mon, 5*time.Second)
	stopPolling := Poll(tk, 5*time.Millisecond, func(err error) { t.Errorf("tracker: %v", err) })

	// A client's fourth set-up follows three completed lifecycles: on a
	// clean network the only way back to open is through hold and close.
	waitFor(t, "four set-ups on every client", func() bool {
		for i := range flows {
			if flows[i].Load() < 4 {
				return false
			}
		}
		return true
	})
	if done := stats.Completed.Load(); done < 3*clients {
		t.Errorf("%d lifecycles completed, want at least %d", done, 3*clients)
	}

	stats.Drain(clients, 10*time.Second)
	stopPolling()
	if idle := stats.Idle.Load(); idle != clients {
		t.Fatalf("%d of %d clients parked", idle, clients)
	}
	for i, r := range runners {
		r.Do(func(ctx *box.Ctx) {
			if s := ctx.Box().State(); s != "idle" {
				t.Errorf("cli%d stopped in state %q, want idle", i, s)
			}
		})
	}
	var flowed int64
	for i := range flows {
		flowed += flows[i].Load()
	}
	if setups := stats.Setups.Load(); flowed != setups {
		t.Errorf("on-flow fired %d times for %d set-ups", flowed, setups)
	}
	if n := stats.Giveups.Load() + stats.Refused.Load(); n != 0 {
		t.Errorf("%d give-ups and refusals on a clean network", n)
	}
	verdict := tk.FinalReport()
	if verdict.Polls == 0 || len(verdict.Violations) > 0 || len(verdict.Wedged) > 0 {
		t.Errorf("formula verdict after %d polls: violations %v, wedged %v",
			verdict.Polls, verdict.Violations, verdict.Wedged)
	}
}

// TestRefusedDialBacksOff: a dial nobody answers sends the client
// through backoff to a retry — never to a give-up — and a client caught
// there by the stop flag still parks idle. (The refusal reaches the
// program in its open state, the channel record existing from the
// moment of the dial, so it is the lost transition that takes it and
// Stats.Refused stays zero, as it always has in the harnesses.)
func TestRefusedDialBacksOff(t *testing.T) {
	cluster := box.NewCluster(transport.NewMemNetwork(), 1)
	defer cluster.Stop()
	stats := &Stats{}
	// Every refusal reaches the box as an unavailable meta-signal.
	var refusals atomic.Int64
	var first, second time.Time
	b := box.New("cli", DevProfile("cli", 30000))
	b.Hook = func(_ *box.Ctx, ev *box.Event) {
		if ev.Kind == box.EvEnvelope && ev.Env.IsMeta() && ev.Env.Meta.Kind == sig.MetaUnavailable {
			switch refusals.Add(1) {
			case 1:
				first = time.Now()
			case 2:
				second = time.Now()
			}
		}
	}
	r := cluster.Runner(b)
	r.SetProgram(ClientProgram(stats, "nobody-listens-here",
		10*time.Millisecond, 0, 5*time.Second, 1, nil))
	state := func() (s string) {
		r.Do(func(ctx *box.Ctx) { s = ctx.Box().State() })
		return s
	}

	waitFor(t, "a second refused dial", func() bool { return refusals.Load() >= 2 })
	r.Do(func(*box.Ctx) {
		if gap := second.Sub(first); gap < 50*time.Millisecond {
			t.Errorf("redialed %v after the refusal: not through backoff", gap)
		}
	})
	stats.Drain(1, 10*time.Second)
	if stats.Idle.Load() != 1 || state() != "idle" {
		t.Fatalf("the refused client did not park: %d idle, state %q", stats.Idle.Load(), state())
	}
	if g, s := stats.Giveups.Load(), stats.Setups.Load(); g != 0 || s != 0 {
		t.Errorf("%d give-ups and %d set-ups with nothing to dial, want none", g, s)
	}
}
