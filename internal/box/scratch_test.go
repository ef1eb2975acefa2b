package box

import (
	"testing"

	"ipmedia/internal/core"
	"ipmedia/internal/sig"
	"ipmedia/internal/telemetry"
	"ipmedia/internal/transport"
)

// scratchRun drives two boxes through one script: box A flowlinks a1
// to a2 and takes four signals and a teardown of a2, which widows a1;
// each of A's envelope events has A's hook hand box B its next event
// (two holdSlot calls, then teardowns) mid-event and then emit a note
// of its own. With a non-nil shared, both boxes borrow it, as boxes on
// one shard do; with nil, each builds its own. Each run counts goal
// invocations in a fresh default registry. It returns each box's
// outputs, event by event, and the goal invocation counts.
func scratchRun(t *testing.T, shared *scratch) (outsA, outsB [][]string, counts map[string]uint64) {
	reg := telemetry.NewRegistry()
	prev := telemetry.Default()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(prev)

	a := New("A", deviceProfile("A", 5004))
	b := New("B", deviceProfile("B", 5006))
	if shared != nil {
		a.sc, b.sc = shared, shared
	}
	strs := func(outs []Output) []string {
		out := make([]string, len(outs))
		for i, o := range outs {
			out[i] = o.String()
		}
		return out
	}
	desc := &sig.Descriptor{}
	env := func(ch string, g sig.Signal) Event {
		return Event{Kind: EvEnvelope, Channel: ch, Env: sig.Envelope{Sig: g}}
	}
	forB := []Event{
		env("b1", sig.Open(sig.Audio, desc)),
		env("b2", sig.Open(sig.Audio, desc)),
		env("b1", sig.Close()),
		env("b2", sig.Close()),
		teardown("b1"),
	}
	a.Hook = func(ctx *Ctx, ev *Event) {
		if ev.Kind != EvEnvelope || len(forB) == 0 {
			return
		}
		outs, err := b.Handle(forB[0])
		if err != nil {
			t.Errorf("B, nested in A's event: %v", err)
		}
		forB = forB[1:]
		outsB = append(outsB, strs(outs))
		b.Recycle(outs)
		ctx.SendMeta("a1", sig.Meta{Kind: sig.MetaApp, App: "after-b"})
	}

	for _, ch := range []string{"a1", "a2"} {
		a.AddChannel(ch, false)
	}
	for _, ch := range []string{"b1", "b2"} {
		b.AddChannel(ch, false)
	}
	for _, ev := range []Event{
		{Kind: EvCall, Call: func(ctx *Ctx) { ctx.SetGoal(core.NewFlowLink(TunnelSlot("a1", 0), TunnelSlot("a2", 0))) }},
		env("a1", sig.Open(sig.Audio, desc)),
		env("a2", sig.Oack(desc)),
		env("a1", sig.Close()),
		env("a2", sig.CloseAck()),
		teardown("a2"),
	} {
		outs, err := a.Handle(ev)
		if err != nil {
			t.Fatalf("A: %v", err)
		}
		outsA = append(outsA, strs(outs))
		a.Recycle(outs)
	}
	counts = map[string]uint64{}
	for _, kind := range []string{"flowLink", "holdSlot", "closeSlot"} {
		counts[kind] = reg.Counter(MetricGoalInvocationsPrefix + kind).Value()
	}
	return outsA, outsB, counts
}

// TestSharedScratch: two boxes borrowing one scratch, one handling an
// event nested inside the other's, produce exactly the outputs the same
// events produce on boxes with a scratch each — the output buffers,
// frames, action buffer and widow list of the outer event are not
// touched by the inner one — and the goal invocation counters, memoized
// in the shared scratch, count every invocation once, in the registry
// that is the default when they count, however long the scratch lives.
func TestSharedScratch(t *testing.T) {
	apartA, apartB, apartN := scratchRun(t, nil)
	sc := new(scratch)
	scratchRun(t, sc) // fills sc's counter memo from a registry gone by the next run
	sharedA, sharedB, sharedN := scratchRun(t, sc)
	if len(apartB) != 5 {
		t.Fatalf("B handled %d nested events, want 5", len(apartB))
	}
	for _, c := range []struct {
		box           string
		apart, shared [][]string
	}{{"A", apartA, sharedA}, {"B", apartB, sharedB}} {
		if len(c.apart) != len(c.shared) {
			t.Fatalf("box %s: %d events apart, %d shared", c.box, len(c.apart), len(c.shared))
		}
		for i := range c.apart {
			if len(c.apart[i]) == 0 && c.box == "A" && i > 0 {
				t.Errorf("box %s event %d produced no outputs: the comparison shows nothing", c.box, i)
			}
			if got, want := c.shared[i], c.apart[i]; !equalStrings(got, want) {
				t.Errorf("box %s event %d on a shared scratch:\n  %q\nwith a scratch of its own:\n  %q", c.box, i, got, want)
			}
		}
	}
	// A's flowLink takes A's four signals, B's holdSlots B's four; the
	// widow A's teardown installs takes none.
	want := map[string]uint64{"flowLink": 4, "holdSlot": 4, "closeSlot": 0}
	for kind, n := range want {
		if apartN[kind] != n || sharedN[kind] != n {
			t.Errorf("%s invocations: %d apart, %d shared, want %d", kind, apartN[kind], sharedN[kind], n)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardScratchBorrowed: every box a cluster shard runs borrows the
// shard's scratch, and gives it back when its runner stops, so that
// driven directly afterwards it builds a scratch of its own.
func TestShardScratchBorrowed(t *testing.T) {
	c := NewCluster(transport.NewRingMemNetwork(), 1)
	defer c.Stop()
	ra := c.Runner(New("A", deviceProfile("A", 5004)))
	rb := c.Runner(New("B", deviceProfile("B", 5006)))
	var sa, sb *scratch
	ra.Do(func(ctx *Ctx) { sa = ctx.Box().sc })
	rb.Do(func(ctx *Ctx) { sb = ctx.Box().sc })
	if sa == nil || sa != sb || sa != &c.shards[0].inbox.turn.scratch {
		t.Fatalf("boxes on one shard hold scratch %p and %p, want the shard's %p", sa, sb, &c.shards[0].inbox.turn.scratch)
	}
	ra.Stop()
	a := ra.Box()
	if a.sc != nil {
		t.Fatalf("a stopped runner's box still holds the shard's scratch")
	}
	a.AddChannel("x", false)
	handle(t, a, Event{Kind: EvEnvelope, Channel: "x", Env: sig.Envelope{Sig: sig.Open(sig.Audio, &sig.Descriptor{})}})
	if a.sc == nil || a.sc == &c.shards[0].inbox.turn.scratch {
		t.Fatalf("a box driven directly after its runner stopped did not build its own scratch")
	}
}
