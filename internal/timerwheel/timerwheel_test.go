package timerwheel

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipmedia/internal/telemetry"
)

// TestFire: a scheduled timer fires, once, and not early.
func TestFire(t *testing.T) {
	w := New(time.Millisecond)
	defer w.Close()
	start := time.Now()
	fired := make(chan time.Duration, 1)
	w.Schedule(20*time.Millisecond, func() { fired <- time.Since(start) })
	select {
	case d := <-fired:
		if d < 20*time.Millisecond {
			t.Fatalf("fired early: %v < 20ms", d)
		}
		if d > 2*time.Second {
			t.Fatalf("fired way late: %v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
	select {
	case <-fired:
		t.Fatal("timer fired twice")
	case <-time.After(50 * time.Millisecond):
	}
}

// TestArmPokesOnlyEarlier: arming a timer wakes the wheel goroutine only
// when the timer is due before the tick the goroutine already sleeps
// until. A timer armed earlier than the current sleep fires on time,
// not at the sleep's end; one armed later sends no wake-up.
func TestArmPokesOnlyEarlier(t *testing.T) {
	const tick = 5 * time.Millisecond
	w := New(tick)
	defer w.Close()
	w.Schedule(time.Second, func() {}) // inside level 0: the sleep ends at its tick
	asleep := func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.sleepTick != noSleepTick
	}
	for deadline := time.Now().Add(5 * time.Second); !asleep(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the wheel never went to sleep on its pending timer")
		}
	}
	start := time.Now()
	fired := make(chan time.Duration, 1)
	w.Schedule(10*time.Millisecond, func() { fired <- time.Since(start) })
	select {
	case d := <-fired:
		if d > 500*time.Millisecond {
			t.Fatalf("a 10ms timer armed under a 1s sleep fired after %v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a timer armed under a longer sleep never fired")
	}

	// The arm rule itself, on a wheel whose goroutine is not running, so
	// that a poke stays in the wake channel to be seen.
	w2 := &Wheel{tick: tick, start: time.Now(), sleepTick: noSleepTick,
		wake: make(chan struct{}, 1), done: make(chan struct{})}
	poked := func() bool {
		select {
		case <-w2.wake:
			return true
		default:
			return false
		}
	}
	w2.Schedule(time.Second, func() {})
	if !poked() {
		t.Fatal("the first timer on an idle wheel did not wake it")
	}
	w2.mu.Lock()
	w2.sleepTick = w2.nextWake() // what run records before it sleeps
	w2.mu.Unlock()
	w2.Schedule(2*time.Second, func() {})
	if poked() {
		t.Fatal("a timer due after the wheel's sleep woke it")
	}
	w2.Schedule(10*time.Millisecond, func() {})
	if !poked() {
		t.Fatal("a timer due before the wheel's sleep did not wake it")
	}
}

// TestStop: a stopped timer never fires and Stop reports the
// cancellation exactly once.
func TestStop(t *testing.T) {
	w := New(time.Millisecond)
	defer w.Close()
	var fired atomic.Int32
	tm := w.Schedule(50*time.Millisecond, func() { fired.Add(1) })
	if !tm.Stop() {
		t.Fatal("Stop on a pending timer must report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop must report false")
	}
	time.Sleep(120 * time.Millisecond)
	if n := fired.Load(); n != 0 {
		t.Fatalf("stopped timer fired %d times", n)
	}
	if p := w.Pending(); p != 0 {
		t.Fatalf("pending = %d after stop", p)
	}
}

// TestOrder: timers fire in deadline order when deadlines are spread
// across distinct ticks.
func TestOrder(t *testing.T) {
	w := New(2 * time.Millisecond)
	defer w.Close()
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	for i := 4; i >= 0; i-- { // schedule in reverse
		i := i
		w.Schedule(time.Duration(20+20*i)*time.Millisecond, func() {
			mu.Lock()
			got = append(got, i)
			if len(got) == 5 {
				close(done)
			}
			mu.Unlock()
		})
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timers did not all fire")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != i {
			t.Fatalf("fire order %v, want ascending", got)
		}
	}
}

// TestCascade: a deadline beyond level 0's horizon (256 ticks) must
// cascade down and still fire at the right time, not at the wrap.
func TestCascade(t *testing.T) {
	w := New(time.Millisecond) // level-0 horizon: 256 ms
	defer w.Close()
	start := time.Now()
	fired := make(chan time.Duration, 1)
	w.Schedule(400*time.Millisecond, func() { fired <- time.Since(start) })
	select {
	case d := <-fired:
		if d < 400*time.Millisecond {
			t.Fatalf("cascaded timer fired early: %v", d)
		}
		if d > 3*time.Second {
			t.Fatalf("cascaded timer fired too late: %v", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cascaded timer never fired")
	}
}

// TestLongIdleThenSchedule: after the wheel has been idle (cursor
// stale), a fresh short timer must still honor its full delay.
func TestLongIdleThenSchedule(t *testing.T) {
	w := New(time.Millisecond)
	defer w.Close()
	fired := make(chan struct{})
	w.Schedule(5*time.Millisecond, func() { close(fired) })
	<-fired
	time.Sleep(300 * time.Millisecond) // wheel idle, cursor lags

	start := time.Now()
	again := make(chan time.Duration, 1)
	w.Schedule(30*time.Millisecond, func() { again <- time.Since(start) })
	select {
	case d := <-again:
		if d < 30*time.Millisecond {
			t.Fatalf("timer after idle fired early: %v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer after idle never fired")
	}
}

// TestPendingGauge: the timerwheel.pending gauge tracks arms, fires,
// and cancels, keeping its high-water mark.
func TestPendingGauge(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)

	w := New(time.Millisecond)
	defer w.Close()
	g := reg.Gauge(MetricPending)

	var timers []*Timer
	for i := 0; i < 10; i++ {
		timers = append(timers, w.Schedule(time.Hour, func() {}))
	}
	if v := g.Value(); v != 10 {
		t.Fatalf("pending gauge = %d, want 10", v)
	}
	for _, tm := range timers {
		tm.Stop()
	}
	if v := g.Value(); v != 0 {
		t.Fatalf("pending gauge after cancel = %d, want 0", v)
	}
	if hwm := g.HighWater(); hwm < 10 {
		t.Fatalf("pending high-water = %d, want >= 10", hwm)
	}
}

// TestCancelVsFire races Stop against the firing path: every timer
// must either fire exactly once or be cancelled (Stop()==true), never
// both and never neither.
func TestCancelVsFire(t *testing.T) {
	w := New(time.Millisecond)
	defer w.Close()
	const n = 400
	var fired atomic.Int64
	var stopped atomic.Int64
	var wg sync.WaitGroup
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		d := time.Duration(rng.Intn(4)) * time.Millisecond
		tm := w.Schedule(d, func() { fired.Add(1) })
		wg.Add(1)
		go func(tm *Timer, spin time.Duration) {
			defer wg.Done()
			time.Sleep(spin)
			if tm.Stop() {
				stopped.Add(1)
			}
		}(tm, time.Duration(rng.Intn(4))*time.Millisecond)
	}
	wg.Wait()
	// Everything not cancelled must eventually fire.
	deadline := time.Now().Add(5 * time.Second)
	for fired.Load()+stopped.Load() != n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := fired.Load() + stopped.Load(); got != n {
		t.Fatalf("fired %d + stopped %d = %d, want %d", fired.Load(), stopped.Load(), got, n)
	}
	if p := w.Pending(); p != 0 {
		t.Fatalf("pending = %d after all resolved", p)
	}
}

// TestReset: one timer re-armed in place — after a Stop, after it has
// fired, and while pending (which moves it) — fires once per arm, never
// early, and is counted as one pending timer throughout.
func TestReset(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)
	w := New(time.Millisecond)
	defer w.Close()
	g := reg.Gauge(MetricPending)

	fired := make(chan time.Time, 4)
	tm := w.Schedule(time.Hour, func() { fired <- time.Now() })
	if !tm.Stop() {
		t.Fatal("Stop on a pending timer must report true")
	}
	awaitFire := func(what string, armed time.Time, d time.Duration) {
		t.Helper()
		select {
		case at := <-fired:
			if at.Sub(armed) < d {
				t.Fatalf("%s: fired %v after the arm, before its %v", what, at.Sub(armed), d)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: never fired", what)
		}
	}

	armed := time.Now()
	tm.Reset(20 * time.Millisecond)
	if p, v := w.Pending(), g.Value(); p != 1 || v != 1 {
		t.Fatalf("after Reset of a stopped timer: pending %d, gauge %d, want 1 and 1", p, v)
	}
	awaitFire("Reset after Stop", armed, 20*time.Millisecond)

	armed = time.Now()
	tm.Reset(10 * time.Millisecond)
	awaitFire("Reset after firing", armed, 10*time.Millisecond)

	tm.Reset(10 * time.Millisecond)
	tm.Reset(time.Hour) // pending: moved, not doubled
	if p, v := w.Pending(), g.Value(); p != 1 || v != 1 {
		t.Fatalf("after Reset of a pending timer: pending %d, gauge %d, want 1 and 1", p, v)
	}
	select {
	case <-fired:
		t.Fatal("a timer moved to an hour out fired at its old deadline")
	case <-time.After(60 * time.Millisecond):
	}
	armed = time.Now()
	tm.Reset(5 * time.Millisecond)
	awaitFire("Reset moving a pending timer closer", armed, 5*time.Millisecond)
	if p, v := w.Pending(), g.Value(); p != 0 || v != 0 {
		t.Fatalf("after the last fire: pending %d, gauge %d, want 0 and 0", p, v)
	}
}

// TestResetVsFire races Reset against the firing path. A Reset that
// beats the fire moves the timer (one fire in all); one that loses
// re-arms a fired timer (two). Either way the timer fires for its last
// arm, no earlier than that arm allows, and nothing is left pending.
func TestResetVsFire(t *testing.T) {
	w := New(time.Millisecond)
	defer w.Close()
	const n = 400
	const again = 3 * time.Millisecond
	type probe struct {
		tm      *Timer
		fires   atomic.Int32
		lastNS  atomic.Int64 // time of the latest fire
		resetNS atomic.Int64 // time just before the Reset call
	}
	probes := make([]*probe, n)
	var wg sync.WaitGroup
	rng := rand.New(rand.NewSource(1))
	for i := range probes {
		p := &probe{}
		probes[i] = p
		p.tm = w.Schedule(time.Duration(rng.Intn(4))*time.Millisecond, func() {
			p.lastNS.Store(time.Now().UnixNano())
			p.fires.Add(1)
		})
		wg.Add(1)
		go func(spin time.Duration) {
			defer wg.Done()
			time.Sleep(spin)
			p.resetNS.Store(time.Now().UnixNano())
			p.tm.Reset(again)
		}(time.Duration(rng.Intn(4)) * time.Millisecond)
	}
	wg.Wait()
	// Every timer's last arm must fire; wait for that fire, not a delay.
	settled := func(p *probe) bool { return p.lastNS.Load() >= p.resetNS.Load()+int64(again) }
	deadline := time.Now().Add(5 * time.Second)
	for i, p := range probes {
		for !settled(p) {
			if time.Now().After(deadline) {
				t.Fatalf("timer %d never fired for its Reset (fires %d)", i, p.fires.Load())
			}
			time.Sleep(time.Millisecond)
		}
		if f := p.fires.Load(); f != 1 && f != 2 {
			t.Errorf("timer %d fired %d times, want 1 or 2", i, f)
		}
	}
	if p := w.Pending(); p != 0 {
		t.Fatalf("pending = %d after every timer fired", p)
	}
}

// TestManyTimersSharedWheel: the load-harness shape — tens of
// thousands of concurrent arms and cancels against one wheel.
func TestManyTimersSharedWheel(t *testing.T) {
	w := New(time.Millisecond)
	defer w.Close()
	const n = 20000
	var fired atomic.Int64
	for i := 0; i < n; i++ {
		w.Schedule(time.Duration(1+i%50)*time.Millisecond, func() { fired.Add(1) })
	}
	deadline := time.Now().Add(10 * time.Second)
	for fired.Load() != n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := fired.Load(); got != n {
		t.Fatalf("fired %d of %d", got, n)
	}
}
