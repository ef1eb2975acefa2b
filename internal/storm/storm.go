// Package storm is the kit the storms share: the client lifecycle
// program they drive their paths with, the device hook and poll loop
// that hold those paths to their Section V formulas, the outcome
// counters, and the report and gate plumbing cmd/clusterstorm ends
// with. cmd/clusterstorm and this package's tests run exactly this
// program — their gates certify it: the chaos test over a faulted
// reliable wire with a store crash, and the load tests on a sharded
// ring cluster and on standalone runners stopped under load.
package storm

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"ipmedia/internal/box"
	"ipmedia/internal/core"
	"ipmedia/internal/pathmon"
	"ipmedia/internal/sig"
	"ipmedia/internal/slot"
)

// Stats are the call outcomes a storm's client programs count.
type Stats struct {
	Setups    atomic.Int64 // calls that reached flowing
	Completed atomic.Int64 // full lifecycles (flowing + held + torn down)
	Giveups   atomic.Int64 // calls abandoned by the client's give-up timer
	Idle      atomic.Int64 // clients parked after the stop flag

	stop atomic.Bool
}

// Drain raises the stop flag — every ClientProgram finishes its current
// lifecycle and parks idle — and waits until clients of them have
// parked or patience runs out.
func (s *Stats) Drain(clients int64, patience time.Duration) {
	s.stop.Store(true)
	for deadline := time.Now().Add(patience); s.Idle.Load() < clients && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
	}
}

// DevProfile is the two-codec audio endpoint every storm box runs.
func DevProfile(name string, port int) *core.EndpointProfile {
	return core.NewEndpointProfile(name, "10.1.0.1", port,
		[]sig.Codec{sig.G711, sig.G726}, []sig.Codec{sig.G711, sig.G726})
}

// ListenAll starts n server boxes — build(name, i), named prefix<i> —
// each on a runner from newRunner listening at its name. It returns
// the runners and their dial addresses.
func ListenAll(newRunner func(*box.Box) *box.Runner, prefix string, n int,
	build func(name string, i int) *box.Box) ([]*box.Runner, []string, error) {
	runners, addrs := make([]*box.Runner, n), make([]string, n)
	for i := range runners {
		name := prefix + strconv.Itoa(i)
		addrs[i] = name
		runners[i] = newRunner(build(name, i))
		if err := runners[i].Listen(name, nil); err != nil {
			return nil, nil, err
		}
	}
	return runners, addrs, nil
}

// cyclesPerChannel is how many open/close goal cycles a client runs on
// one dialed channel before tearing it down and redialing. Goal cycles
// on a persistent channel keep the signaling path's identity stable, so
// the tracker observes real down→flowing transitions and measures
// their recovery latency; the periodic teardown/redial keeps the
// dial/greet/hello machinery in the storm too.
const cyclesPerChannel = 8

// ClientProgram is one path's lifecycle: dial a channel toward addr,
// then cycle its slot goal — open until flowing, hold, close until
// quiesced — redialing the channel every few cycles, until the stop
// flag parks the client idle at the end of a cycle. First dials are
// staggered so the storm does not open every path in the same instant.
// onFlow, if non-nil, is called at every transition to flowing with the
// time since the open goal was set.
func ClientProgram(stats *Stats, addr string, hold, stagger, giveup time.Duration, seed int64, onFlow func(setup time.Duration)) *box.Program {
	const ch = "c"
	s0 := box.TunnelSlot(ch, 0)
	rng := rand.New(rand.NewSource(seed))
	jitter := func() time.Duration {
		return hold/2 + time.Duration(rng.Int63n(int64(hold)))
	}
	delay := time.Duration(rng.Int63n(int64(stagger) + 1))
	cycles := 0
	var openedAt time.Time
	closed := func(ctx *box.Ctx) bool {
		s := ctx.Box().Slot(s0)
		return s == nil || s.State() == slot.Closed
	}
	lost := func(ctx *box.Ctx) bool {
		// The transport gave the channel up (portLost synthesized a
		// teardown) or the dial itself was refused.
		return ctx.OnMeta(ch, sig.MetaUnavailable) || !ctx.Box().HasChannel(ch)
	}
	states := []*box.State{
		{
			Name:    "stagger",
			OnEnter: func(ctx *box.Ctx) { ctx.SetTimer("start", delay) },
			Trans: []box.Trans{
				{When: func(ctx *box.Ctx) bool { return ctx.OnTimer("start") }, To: "dial"},
			},
		},
		{
			Name:    "dial",
			OnEnter: func(ctx *box.Ctx) { cycles = 0; ctx.Dial(ch, addr) },
			Trans: []box.Trans{
				{When: func(ctx *box.Ctx) bool { return ctx.Box().HasChannel(ch) }, To: "open"},
			},
		},
		{
			Name: "backoff",
			OnEnter: func(ctx *box.Ctx) {
				ctx.Teardown(ch)
				ctx.SetTimer("retry", 50*time.Millisecond+time.Duration(rng.Int63n(int64(100*time.Millisecond))))
			},
			Trans: []box.Trans{
				{When: func(ctx *box.Ctx) bool { return ctx.OnTimer("retry") && stats.stop.Load() }, To: "idle",
					Do: func(*box.Ctx) { stats.Idle.Add(1) }},
				{When: func(ctx *box.Ctx) bool { return ctx.OnTimer("retry") }, To: "dial"},
			},
		},
		{
			Name:   "open",
			Annots: []box.Annot{box.OpenSlotAnn(s0, sig.Audio)},
			OnEnter: func(ctx *box.Ctx) {
				openedAt = time.Now()
				ctx.SetTimer("giveup", giveup)
			},
			Trans: []box.Trans{
				{When: func(ctx *box.Ctx) bool { return ctx.IsFlowing(s0) }, To: "hold",
					Do: func(ctx *box.Ctx) {
						ctx.CancelTimer("giveup")
						if onFlow != nil {
							onFlow(time.Since(openedAt))
						}
						stats.Setups.Add(1)
					}},
				{When: lost, To: "backoff",
					Do: func(ctx *box.Ctx) { ctx.CancelTimer("giveup") }},
				{When: func(ctx *box.Ctx) bool { return ctx.OnTimer("giveup") }, To: "redial",
					Do: func(ctx *box.Ctx) { stats.Giveups.Add(1) }},
			},
		},
		{
			Name:    "hold",
			Annots:  []box.Annot{box.OpenSlotAnn(s0, sig.Audio)},
			OnEnter: func(ctx *box.Ctx) { ctx.SetTimer("hold", jitter()) },
			Trans: []box.Trans{
				{When: lost, To: "backoff"},
				{When: func(ctx *box.Ctx) bool { return ctx.OnTimer("hold") }, To: "close",
					Do: func(ctx *box.Ctx) { stats.Completed.Add(1) }},
			},
		},
		{
			Name:    "close",
			Annots:  []box.Annot{box.CloseSlotAnn(s0)},
			OnEnter: func(ctx *box.Ctx) { cycles++; ctx.SetTimer("giveup", giveup) },
			Trans: []box.Trans{
				{When: func(ctx *box.Ctx) bool { return closed(ctx) && stats.stop.Load() }, To: "redial",
					Do: func(ctx *box.Ctx) { ctx.CancelTimer("giveup") }},
				{When: func(ctx *box.Ctx) bool { return closed(ctx) && cycles >= cyclesPerChannel }, To: "redial",
					Do: func(ctx *box.Ctx) { ctx.CancelTimer("giveup") }},
				{When: closed, To: "open",
					Do: func(ctx *box.Ctx) { ctx.CancelTimer("giveup") }},
				{When: lost, To: "backoff",
					Do: func(ctx *box.Ctx) { ctx.CancelTimer("giveup") }},
				{When: func(ctx *box.Ctx) bool { return ctx.OnTimer("giveup") }, To: "redial",
					Do: func(ctx *box.Ctx) { stats.Giveups.Add(1) }},
			},
		},
		{
			Name:    "redial",
			OnEnter: func(ctx *box.Ctx) { ctx.Teardown(ch) },
			Trans: []box.Trans{
				{When: func(*box.Ctx) bool { return stats.stop.Load() }, To: "idle",
					Do: func(*box.Ctx) { stats.Idle.Add(1) }},
				{When: func(*box.Ctx) bool { return true }, To: "dial"},
			},
		},
		{Name: "idle"},
	}
	return &box.Program{Initial: "stagger", States: states}
}

// DeviceHook is the box hook of a holding device named dev: it maps
// every arriving setup to a monitor tunnel, keyed on the stable client
// end so redials retarget rather than accumulate. trackable, if
// non-nil, says whether the calling box is one mon can observe — a path
// with an end in another process cannot be held to its formula here.
func DeviceHook(mon *pathmon.Monitor, dev string, trackable func(from string) bool) func(*box.Ctx, *box.Event) {
	return func(ctx *box.Ctx, ev *box.Event) {
		if ev.Kind != box.EvEnvelope || !ev.Env.IsMeta() || ev.Env.Meta.Kind != sig.MetaSetup {
			return
		}
		from, ch := ev.Env.Meta.Get("from"), ev.Env.Meta.Get("chan")
		if from == "" || ch == "" || (trackable != nil && !trackable(from)) {
			return
		}
		mon.RetargetTunnel(from, box.TunnelSlot(ch, 0), dev, box.TunnelSlot(ev.Channel, 0))
	}
}

// Poll checks the live formulas every interval on a goroutine of its
// own, reporting poll errors to onErr, until the returned stop function
// is called; stop returns once the goroutine has exited.
func Poll(tk *pathmon.Tracker, every time.Duration, onErr func(error)) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if _, err := tk.Poll(); err != nil {
					onErr(err)
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// SettledGoroutines waits up to three seconds for the goroutine count
// to fall back to baseline (plus the shared timer wheel and a little GC
// slack) and returns the last count read; leaked reports it never did.
func SettledGoroutines(baseline int) (final int, leaked bool) {
	for end := time.Now().Add(3 * time.Second); time.Now().Before(end); {
		if final = runtime.NumGoroutine(); final <= baseline+2 {
			return final, false
		}
		time.Sleep(50 * time.Millisecond)
	}
	return final, true
}

// WriteReport prints res as indented JSON on stdout and, when out is
// non-empty, writes it there as well.
func WriteReport(res any, out string) error {
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	if out != "" {
		err = os.WriteFile(out, append(blob, '\n'), 0o644)
	}
	return err
}

// FailGate reports a failed gate of harness prog on stderr and exits 1.
func FailGate(prog, format string, args ...any) {
	fmt.Fprintf(os.Stderr, prog+": GATE FAILED: "+format+"\n", args...)
	os.Exit(1)
}
