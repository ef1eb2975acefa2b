package core_test

import (
	"testing"
	"time"

	"ipmedia/internal/box"
	"ipmedia/internal/core"
	"ipmedia/internal/sig"
	"ipmedia/internal/slot"
	"ipmedia/internal/telemetry"
	"ipmedia/internal/transport"
)

// TestOpenOpenRaceUnderFaults runs the open-open race of single.go on
// live runners with the losing open delayed and duplicated by a fault
// port under the reliable layer. The glare backoff (the losing end
// reverts to acceptor) must still converge to bothFlowing every round,
// with no channel abandoned — the model-checked race resolution
// surviving a hostile wire. Run under -race by the ordinary test
// envelope, this also pins the concurrency of the retransmit, ack,
// and delay timers against the runner loops.
func TestOpenOpenRaceUnderFaults(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)

	fn := transport.NewFaultNetwork(transport.NewMemNetwork(), transport.FaultProfile{
		Seed:      1,
		DelayRate: 0.4, DelayMin: time.Millisecond, DelayMax: 8 * time.Millisecond,
		DupRate: 0.3,
	})
	net := transport.NewRelNetwork(fn, transport.RelConfig{
		RexmitInterval: 30 * time.Millisecond,
		AckDelay:       10 * time.Millisecond,
	})

	prof := func(name string, port int) *core.EndpointProfile {
		return core.NewEndpointProfile(name, "h"+name, port, []sig.Codec{sig.G711}, []sig.Codec{sig.G711})
	}
	l := box.NewRunner(box.New("L", prof("L", 1)), net)
	r := box.NewRunner(box.New("R", prof("R", 2)), net)
	defer l.Stop()
	defer r.Stop()
	if err := l.Listen("L", nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Connect("c", "L"); err != nil {
		t.Fatal(err)
	}
	lSlot, rSlot := box.TunnelSlot("in0", 0), box.TunnelSlot("c", 0)
	await := func(what string, pred func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if pred() {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("timeout waiting for %s", what)
	}
	await("L's channel", func() bool {
		ok := false
		l.Do(func(ctx *box.Ctx) { ok = ctx.Box().HasChannel("in0") })
		return ok
	})

	flowing := func(rn *box.Runner, s string) bool {
		ok := false
		rn.Do(func(ctx *box.Ctx) { ok = ctx.IsFlowing(s) })
		return ok
	}
	closed := func(rn *box.Runner, s string) bool {
		ok := false
		rn.Do(func(ctx *box.Ctx) {
			sl := ctx.Box().Slot(s)
			ok = sl == nil || sl.State() == slot.Closed
		})
		return ok
	}

	const rounds = 5
	for i := 0; i < rounds; i++ {
		// Glare: both ends originate an open for the same tunnel at once.
		l.Do(func(ctx *box.Ctx) {
			ctx.SetGoal(core.NewOpenSlot(lSlot, sig.Audio, l.Box().Profile()))
		})
		r.Do(func(ctx *box.Ctx) {
			ctx.SetGoal(core.NewOpenSlot(rSlot, sig.Audio, r.Box().Profile()))
		})
		await("both flowing", func() bool {
			return flowing(l, lSlot) && flowing(r, rSlot)
		})
		// Tear down for the next round.
		l.Do(func(ctx *box.Ctx) { ctx.SetGoal(core.NewCloseSlot(lSlot)) })
		r.Do(func(ctx *box.Ctx) { ctx.SetGoal(core.NewCloseSlot(rSlot)) })
		await("both closed", func() bool {
			return closed(l, lSlot) && closed(r, rSlot)
		})
	}
	if g := reg.Counter(transport.MetricGiveups).Value(); g != 0 {
		t.Fatalf("delay+dup faults caused %d giveups; the reliable layer must absorb them", g)
	}
	if reg.Counter(slot.MetricGlare).Value() == 0 {
		t.Fatalf("%d simultaneous-open rounds resolved zero glare races", rounds)
	}
}
