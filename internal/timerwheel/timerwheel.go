// Package timerwheel is a shared hierarchical timer wheel for the live
// runtime. Protocol timers (give-up timeouts, prepaid funds clocks,
// hold durations) are coarse — tens of milliseconds to hours — and a
// busy host arms hundreds of thousands of them. One time.Timer per
// protocol timer means one runtime timer heap entry and one firing
// goroutine wakeup each; the wheel replaces that with O(1) insert and
// cancel into tick-indexed buckets, serviced by a single goroutine per
// wheel that sleeps until the next due tick (it does not busy-tick).
//
// The wheel has four levels of 256 slots. Level 0 resolves single
// ticks; each higher level is 256× coarser and cascades into the level
// below as the cursor wraps, exactly like the classic hashed
// hierarchical wheel. At the default 5 ms tick the horizon is ~248
// days. Timers are rounded UP to the next tick boundary, so a timer
// never fires early; it can fire up to one tick late, which is well
// inside protocol timeout tolerances.
//
// There is deliberately no process-global wheel: a single shared wheel
// serializes every timer arm/cancel in the process behind one mutex,
// which is exactly the cross-core contention the sharded box runtime
// exists to avoid. Each runtime shard owns a wheel (NewNamed, so its
// pending count is observable per shard), and subsystems that need a
// wheel outside any shard (the transport reliability layer, standalone
// runners) keep one package-scoped wheel each.
package timerwheel

import (
	"sync"
	"time"

	"ipmedia/internal/telemetry"
)

// MetricPending is the gauge tracking timers currently armed in every
// wheel of the process (with its high-water mark). A wheel created
// with NewNamed additionally tracks its own armed count under
// MetricPending + "." + label, so per-shard wheels are observable
// individually.
const MetricPending = "timerwheel.pending"

const (
	slotBits  = 8
	numSlots  = 1 << slotBits // 256
	slotMask  = numSlots - 1
	numLevels = 4
)

// DefaultTick is the granularity of the shared process wheel: coarse
// enough that an idle-ish wheel wakes rarely, fine enough for the
// shortest protocol timeouts (tens of milliseconds).
const DefaultTick = 5 * time.Millisecond

// Timer is one scheduled callback. The zero value is not usable;
// Schedule creates timers, and Reset arms one again.
type Timer struct {
	fn         func()
	expire     uint64 // absolute tick at which to fire
	next, prev *Timer
	list       *timerList // nil once fired or stopped
	w          *Wheel
}

// Stop cancels the timer. It reports true if the timer was still
// pending (and will now never fire), false if it already fired, is
// firing concurrently, or was stopped before. Like time.Timer.Stop, a
// false return does not wait for a concurrently running callback.
func (t *Timer) Stop() bool {
	w := t.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if t.list == nil {
		return false
	}
	t.list.remove(t)
	t.list = nil
	w.pending--
	w.gauge.Dec()
	w.labelGauge.Dec()
	return true
}

// timerList is an intrusive doubly-linked list of timers (one wheel
// slot, or the consumer's due list).
type timerList struct {
	head, tail *Timer
}

func (l *timerList) pushBack(t *Timer) {
	t.list = l
	t.prev = l.tail
	t.next = nil
	if l.tail != nil {
		l.tail.next = t
	} else {
		l.head = t
	}
	l.tail = t
}

func (l *timerList) remove(t *Timer) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		l.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		l.tail = t.prev
	}
	t.next, t.prev = nil, nil
}

// take empties the list and returns its former head chain.
func (l *timerList) take() *Timer {
	h := l.head
	l.head, l.tail = nil, nil
	return h
}

// Wheel is one hierarchical timer wheel, serviced by one goroutine.
type Wheel struct {
	tick  time.Duration
	start time.Time

	mu      sync.Mutex
	now     uint64 // ticks fully processed
	slots   [numLevels][numSlots]timerList
	pending int

	gauge      *telemetry.Gauge // process-wide aggregate (nil-safe)
	labelGauge *telemetry.Gauge // per-wheel labeled gauge (nil unless NewNamed)

	wake      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// New starts a wheel with the given tick granularity.
func New(tick time.Duration) *Wheel {
	return NewNamed(tick, "")
}

// NewNamed starts a wheel whose armed-timer count is additionally
// tracked under its own labeled gauge (MetricPending + "." + label).
// Runtime shards use this so a hot shard's timer population is
// distinguishable from its siblings'. An empty label is New.
func NewNamed(tick time.Duration, label string) *Wheel {
	if tick <= 0 {
		tick = DefaultTick
	}
	w := &Wheel{
		tick:  tick,
		start: time.Now(),
		gauge: telemetry.G(MetricPending),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	if label != "" {
		w.labelGauge = telemetry.G(MetricPending + "." + label)
	}
	go w.run()
	return w
}

// Close stops the wheel goroutine. Pending timers never fire. Close
// exists for tests, embedded wheels, and runtime shards tearing down.
func (w *Wheel) Close() {
	w.closeOnce.Do(func() { close(w.done) })
}

// Tick returns the wheel's tick granularity.
func (w *Wheel) Tick() time.Duration { return w.tick }

// Pending returns the number of currently armed timers.
func (w *Wheel) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pending
}

// ticksSince converts a wall-clock instant to the wheel's tick space.
func (w *Wheel) ticksSince(at time.Time) uint64 {
	d := at.Sub(w.start)
	if d <= 0 {
		return 0
	}
	return uint64(d / w.tick)
}

// Schedule arms fn to run once after d. The callback runs on the wheel
// goroutine; it must not block (runners only post an event). Durations
// round up to the next tick, with a one-tick minimum so fn never runs
// synchronously or in the past.
func (w *Wheel) Schedule(d time.Duration, fn func()) *Timer {
	t := &Timer{fn: fn, w: w}
	w.arm(t, d)
	return t
}

// Reset re-arms the timer to run its callback once after d from now,
// with Schedule's rounding, whatever state it is in: a pending timer is
// moved, a stopped or fired one is armed again. An owner that re-arms
// one timer keeps it for as long as it likes instead of scheduling a
// new one per arm. As with Stop, a callback already collected for
// firing still runs; Reset does not wait for it.
func (t *Timer) Reset(d time.Duration) { t.w.arm(t, d) }

// arm puts t into the wheel to fire after d, taking it out first if it
// is pending.
func (w *Wheel) arm(t *Timer, d time.Duration) {
	if d < 0 {
		d = 0
	}
	now := time.Now()
	// Round the absolute deadline UP to a tick boundary: the timer can
	// fire up to one tick late but never early.
	deadline := now.Sub(w.start) + d
	expire := uint64((deadline + w.tick - 1) / w.tick)
	w.mu.Lock()
	moved := t.list != nil
	if moved {
		t.list.remove(t)
		w.pending--
	}
	// The cursor only advances while the goroutine services due work;
	// it is anchored to wall-clock ticks here so a stale cursor cannot
	// distort the deadline.
	if wall := w.ticksSince(now); w.pending == 0 && wall > w.now {
		// Nothing could have been due in the skipped interval:
		// fast-forward instead of replaying empty ticks.
		w.now = wall
	}
	t.expire = expire
	if t.expire <= w.now {
		t.expire = w.now + 1
	}
	w.insert(t)
	w.pending++
	if !moved {
		w.gauge.Inc()
		w.labelGauge.Inc()
	}
	w.mu.Unlock()
	w.poke()
}

// insert buckets t by its distance from the cursor. Lock held.
func (w *Wheel) insert(t *Timer) {
	delta := t.expire - w.now
	var lvl uint
	switch {
	case delta < 1<<slotBits:
		lvl = 0
	case delta < 1<<(2*slotBits):
		lvl = 1
	case delta < 1<<(3*slotBits):
		lvl = 2
	default:
		lvl = 3
		if max := uint64(1)<<(4*slotBits) - 1; delta > max {
			// Beyond the horizon (~248 days at the default tick): clamp.
			t.expire = w.now + max
		}
	}
	slot := (t.expire >> (slotBits * lvl)) & slotMask
	w.slots[lvl][slot].pushBack(t)
}

func (w *Wheel) poke() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// run services the wheel: advance to the current wall tick, fire due
// timers, then sleep until the next tick that can hold work.
func (w *Wheel) run() {
	sleep := time.NewTimer(time.Hour)
	defer sleep.Stop()
	var due []*Timer
	for {
		w.mu.Lock()
		due = w.advance(w.ticksSince(time.Now()), due[:0])
		var wait time.Duration = -1
		if w.pending > 0 {
			wait = w.nextWake()
		}
		w.mu.Unlock()

		for _, t := range due {
			t.fn()
		}

		if wait < 0 {
			select {
			case <-w.wake:
			case <-w.done:
				return
			}
			continue
		}
		if !sleep.Stop() {
			select {
			case <-sleep.C:
			default:
			}
		}
		sleep.Reset(wait)
		select {
		case <-sleep.C:
		case <-w.wake:
		case <-w.done:
			return
		}
	}
}

// advance moves the cursor to target, cascading higher levels at their
// boundaries and collecting due timers into out. Lock held.
func (w *Wheel) advance(target uint64, out []*Timer) []*Timer {
	for w.now < target {
		w.now++
		if w.now&slotMask == 0 {
			w.cascade(1)
		}
		for t := w.slots[0][w.now&slotMask].take(); t != nil; {
			next := t.next
			t.next, t.prev, t.list = nil, nil, nil
			w.pending--
			w.gauge.Dec()
			w.labelGauge.Dec()
			out = append(out, t)
			t = next
		}
	}
	return out
}

// cascade redistributes the level-l slot at the cursor into lower
// levels (or fires what is already due). Lock held.
func (w *Wheel) cascade(l uint) {
	if l >= numLevels {
		return
	}
	slot := (w.now >> (slotBits * l)) & slotMask
	if slot == 0 {
		w.cascade(l + 1)
	}
	for t := w.slots[l][slot].take(); t != nil; {
		next := t.next
		t.next, t.prev, t.list = nil, nil, nil
		w.insert(t)
		t = next
	}
}

// nextWake returns how long to sleep until the next tick that can fire
// or cascade work. Lock held; pending > 0.
func (w *Wheel) nextWake() time.Duration {
	// The earliest level-0 timer fires at its own tick.
	for i := uint64(1); i <= numSlots; i++ {
		if w.slots[0][(w.now+i)&slotMask].head != nil {
			return w.untilTick(w.now + i)
		}
	}
	// Nothing in level 0: the next possible event is the cascade at the
	// level-0 wrap, at most 256 ticks away.
	return w.untilTick((w.now &^ uint64(slotMask)) + numSlots)
}

func (w *Wheel) untilTick(tick uint64) time.Duration {
	d := time.Until(w.start.Add(time.Duration(tick) * w.tick))
	if d < 0 {
		return 0
	}
	return d
}
