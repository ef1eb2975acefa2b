package box

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"ipmedia/internal/core"
	"ipmedia/internal/sig"
	"ipmedia/internal/transport"
)

// TestPumpStateReusedOnlyAfterAck: pumps recycle their ack channel and
// batch buffer across ports, and a pump hands them on only once the
// loop has acked the batch it posted. The loop is held inside the
// first envelope it dispatches while a first wave of pumps posts its
// batches and sees its ports close, then a second wave starts — on
// whatever state the first wave has given up — and posts batches of
// its own. A pump that gave its state up with a batch still unacked
// would have it refilled under the loop: a data race under -race, and
// in any mode a channel shown another channel's envelopes.
func TestPumpStateReusedOnlyAfterAck(t *testing.T) {
	const perWave = 32
	gate := make(chan struct{})
	held := false
	got := map[string][]string{}
	bx := New("P", core.ServerProfile{Name: "P"})
	bx.Hook = func(_ *Ctx, ev *Event) {
		if ev.Kind != EvEnvelope || !ev.Env.IsMeta() || ev.Env.Meta.Kind != sig.MetaApp {
			return
		}
		if !held {
			held = true
			<-gate
		}
		got[ev.Channel] = append(got[ev.Channel], ev.Env.Meta.Get("ch")+"/"+ev.Env.Meta.Get("i"))
	}
	r := NewRunner(bx, transport.NewMemNetwork())
	defer r.Stop()

	// Every channel is registered up front, its port preloaded with a
	// setup and two app metas — one batch, within the smallest buffer —
	// and closed behind them, so its pump exits as soon as it has posted.
	var waves [2][]*chanInfo
	names := func(w int) []string {
		ns := make([]string, perWave)
		for k := range ns {
			ns[k] = fmt.Sprintf("w%dc%d", w, k)
		}
		return ns
	}
	r.Do(func(ctx *Ctx) {
		for w := range waves {
			for _, name := range names(w) {
				near, far := transport.Pipe("far", "near")
				far.Send(sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaSetup}})
				for i := 0; i < 2; i++ {
					far.Send(sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaApp, App: "burst",
						Attrs: sig.NewAttrs("ch", name, "i", strconv.Itoa(i))}})
				}
				far.Close()
				ci := ctx.Box().addChannel(name, false, false)
				ci.port = near
				waves[w] = append(waves[w], ci)
			}
		}
	})
	start := func(w int) {
		for _, ci := range waves[w] {
			p := ci.port
			r.wg.Add(1)
			go r.pump(ci, p, p.(transport.BatchPort))
		}
	}
	start(0)
	time.Sleep(50 * time.Millisecond) // the first wave posts and runs out of input
	start(1)
	time.Sleep(50 * time.Millisecond) // the second wave posts
	close(gate)

	// A channel goes once the loss its pump reported last is dispatched.
	await(t, r, "every channel's burst and loss", func(ctx *Ctx) bool {
		for w := range waves {
			for _, name := range names(w) {
				if ctx.Box().HasChannel(name) {
					return false
				}
			}
		}
		return true
	})
	r.Do(func(*Ctx) {
		for w := range waves {
			for _, name := range names(w) {
				if g, want := strings.Join(got[name], " "), name+"/0 "+name+"/1"; g != want {
					t.Errorf("channel %s was shown %q, want %q", name, g, want)
				}
			}
		}
	})
}
