package box

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipmedia/internal/core"
	"ipmedia/internal/sig"
	"ipmedia/internal/transport"
)

// holdsTurn reports, under the inbox lock the loop lends its turn back
// under, whether r's shard holds a turn — the scratch, the inbox slices
// and the drain buffer — and whether r's box points at a scratch.
func holdsTurn(r *Runner) (turn, scratch bool) {
	q := r.sh.inbox
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.turn != nil, r.box.sc != nil
}

// awaitParked waits until r's standalone loop has parked with its turn
// lent back, and reports whether it did within d.
func awaitParked(r *Runner, d time.Duration) bool {
	deadline := time.Now().Add(d)
	for {
		if turn, sc := holdsTurn(r); !turn && !sc {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestParkedStandaloneHoldsNoTurnState: a standalone runner that has
// run a Do, fired a timer and drained a mux channel — so it has used
// its scratch, both inbox slices and a drain buffer — holds none of
// them once its loop parks: its shard has no turn, and its box points
// at no scratch. While it works, the box points at the scratch of the
// shard's turn.
func TestParkedStandaloneHoldsNoTurnState(t *testing.T) {
	var fired, heard atomic.Int64
	var drainBuf atomic.Bool
	bx := New("P", core.ServerProfile{Name: "P"})
	r := NewRunner(bx, transport.NewMemNetwork())
	defer r.Stop()
	bx.Hook = func(_ *Ctx, ev *Event) {
		switch {
		case ev.Kind == EvTimer && ev.Timer == "t":
			fired.Add(1)
		case ev.Kind == EvEnvelope && ev.Env.IsMeta() && ev.Env.Meta.App == "hi":
			drainBuf.Store(r.sh.inbox.turn.drain != nil)
			heard.Add(1)
		}
	}
	if !awaitParked(r, 5*time.Second) {
		t.Fatal("a fresh standalone runner holds a turn")
	}

	borrowed := false
	r.Do(func(ctx *Ctx) {
		borrowed = ctx.Box().sc != nil && ctx.Box().sc == &r.sh.inbox.turn.scratch
		ctx.SetTimer("t", time.Millisecond)
	})
	if !borrowed {
		t.Fatal("inside a Do the box does not borrow the scratch of its shard's turn")
	}
	near, far := newMuxNet(t).pipe(t)
	defer far.Close()
	far.Send(sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaSetup}})
	far.Send(sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaApp, App: "hi"}})
	r.Do(func(ctx *Ctx) { r.addPort(ctx.Box().addChannel("c", false, false), near) })
	deadline := time.Now().Add(5 * time.Second)
	for fired.Load() == 0 || heard.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("timer fired %d times, %d envelopes drained", fired.Load(), heard.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if !drainBuf.Load() {
		t.Fatal("the drain ran without a drain buffer: the test shows nothing")
	}
	if !awaitParked(r, 5*time.Second) {
		turn, sc := holdsTurn(r)
		t.Fatalf("a parked standalone runner's shard holds a turn: %v; its box points at a scratch: %v", turn, sc)
	}
	noErrs(t, r)
}

// TestStandaloneParkWakeRace: eight producers inject tagged events into
// one standalone runner in waves, and between waves the loop parks,
// lending its turn back, so the pushes of the next wave take a turn
// again; in the last wave a Stop races the producers. Every event is
// handled once, in its producer's order — the refused pushes that lose
// to the Stop are a suffix of a producer's events — each with the box
// borrowing its shard's turn, and the stopped shard holds no turn.
func TestStandaloneParkWakeRace(t *testing.T) {
	const producers, each, wave = 8, 2000, 10
	bx := New("R", core.ServerProfile{Name: "R"})
	r := NewRunner(bx, transport.NewMemNetwork())
	var got [producers][]int
	var unborrowed atomic.Int64
	handled := func(p, i int) func(*Ctx) {
		return func(ctx *Ctx) {
			if sc := ctx.Box().sc; sc == nil || sc != &r.sh.inbox.turn.scratch {
				unborrowed.Add(1)
			}
			got[p] = append(got[p], i)
		}
	}
	parks := 0
	for w := 0; w < each/wave; w++ {
		last := w == each/wave-1
		var pushed atomic.Int64
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := w * wave; i < (w+1)*wave; i++ {
					r.Inject(Event{Kind: EvCall, Call: handled(p, i)})
					pushed.Add(1)
					if i%3 == 0 {
						time.Sleep(time.Microsecond) // let the loop catch up and park mid-wave
					}
				}
			}(p)
		}
		if last {
			for pushed.Load() < producers*wave/2 {
				runtime.Gosched()
			}
			r.Stop()
		}
		wg.Wait()
		if !last {
			if !awaitParked(r, 5*time.Second) {
				t.Fatalf("wave %d: the loop never parked", w)
			}
			parks++
		}
	}
	r.Stop()
	if turn, sc := holdsTurn(r); turn || sc {
		t.Errorf("a stopped standalone runner's shard holds a turn: %v; its box a scratch: %v", turn, sc)
	}
	if n := unborrowed.Load(); n > 0 {
		t.Errorf("%d events ran without the box borrowing its shard's turn", n)
	}
	total := 0
	for p := range got {
		for i, v := range got[p] {
			if v != i {
				t.Fatalf("producer %d: event %d handled as number %d (%v)", p, v, i, got[p][max(0, i-2):min(len(got[p]), i+3)])
			}
		}
		if len(got[p]) < each-wave {
			t.Errorf("producer %d: %d of the %d events pushed before the last wave handled", p, len(got[p]), each-wave)
		}
		total += len(got[p])
	}
	t.Logf("%d parks between waves, %d events handled", parks, total)
	if parks < 100 {
		t.Fatalf("the loop parked %d times: the test shows nothing", parks)
	}
}
