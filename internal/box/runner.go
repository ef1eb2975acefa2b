// Runner: the live runtime for a box. A runtime shard owns a set of
// boxes: one loop goroutine drives their cores, one hierarchical timer
// wheel serves their protocol timers, and one MPSC inbox feeds them
// events from transports, timers, and external callers. The same box
// core also runs under the discrete-event simulator and the model
// checker without a Runner.
//
// Standalone runners (NewRunner) get a private shard — one box, one
// loop — and share a package-wide timer wheel. A Cluster partitions
// many boxes across N shards by consistent hash of box name, giving
// each core its own inbox, wheel, and channel state so hot dispatch
// never takes a cross-core lock (see cluster.go).
//
// The runtime is built for footprint: events cross the inbox as typed
// records (no per-event closure), bursts of envelopes cross it as one
// batch, in-process channels are SPSC rings drained inline by the
// consumer's shard (no pump goroutine per port), and the box's output
// buffer is recycled between events — so steady-state envelope
// dispatch allocates nothing.
//
// An idle or call-holding box pays only for what it uses. A standalone
// runner holds its runner record, a shard with its inbox and loop
// goroutine, and the box: about 2 KB of heap besides the goroutine's
// stack. The shard's ring-drain scratch (64 envelopes, 11.8 KB) is
// allocated by the first ring drain, so a runner whose ports are all
// batch ports never holds one. A pumped port holds a goroutine, an ack
// channel and one batch buffer of 4 envelopes, grown only while the
// port is bursty.
package box

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"ipmedia/internal/sig"
	"ipmedia/internal/telemetry"
	"ipmedia/internal/timerwheel"
	"ipmedia/internal/transport"
)

// Telemetry instrument names exported by this package.
const (
	// MetricLoopIterations counts events processed by runner loops.
	MetricLoopIterations = "box.loop_iterations"
	// MetricGoalInvocationsPrefix prefixes the per-kind goal invocation
	// counters, e.g. "box.goal_invocations.flowLink".
	MetricGoalInvocationsPrefix = "box.goal_invocations."
	// MetricInboxDepth gauges events queued to runner loops but not yet
	// dispatched, summed over all shards in the process. Cluster shards
	// additionally expose "runner.inbox_depth.s<N>" per shard.
	MetricInboxDepth = "runner.inbox_depth"
)

// Pump batch sizing: buffers start small — an idle call-holding port
// should cost bytes, not kilobytes, when a host carries 100k of them —
// and double whenever a drain fills the buffer, up to the max.
const (
	pumpBatchMin = 4
	pumpBatchMax = 64
)

// Ring draining: envelopes moved per TryRecvBatch call, and the
// fairness cap — after this many envelopes from one ring in one inbox
// item, the shard loop re-posts the drain and serves other boxes.
const (
	ringDrainBatch = 64
	ringDrainMax   = 256
)

// runnerCacheCap bounds the idle (fired or cancelled) timers a runner
// keeps for re-arming, so a pathological churn of unique timer names
// cannot grow it without bound. Real boxes hold a handful of timers.
const runnerCacheCap = 512

// teardownMeta is the one teardown meta-signal every runner sends and
// synthesizes. It is immutable and not pooled, so Release ignores it.
var teardownMeta = &sig.Meta{Kind: sig.MetaTeardown}

// itemKind discriminates inbox items.
type itemKind uint8

const (
	itemEvent    itemKind = iota // one box event
	itemBatch                    // a burst of envelopes for one channel
	itemAccept                   // register an accepted port as a new channel
	itemPortLost                 // a pump's transport went away without a teardown
	itemRing                     // drain the channel's inline (SPSC ring) port
	itemStop                     // finish a runner: cleanup, release Stop
)

// inboxItem is one unit of work for a shard loop. Events and batches
// go through the box core; accept and port-loss items execute directly
// on the loop goroutine (port-loss cleanup calls handle itself, which
// must not nest inside an in-progress Handle). Every item names the
// runner it belongs to: shards multiplex many runners over one loop.
type inboxItem struct {
	kind    itemKind
	r       *Runner
	ev      Event              // itemEvent payload; ev.Channel also labels itemBatch/itemRing/itemPortLost
	batch   []sig.Envelope     // itemBatch payload, the pump's buffer until acked
	ack     chan<- struct{}    // itemBatch: signaled when the batch is processed
	port    transport.Port     // itemAccept, itemPortLost: the port concerned; itemBatch: the source
	nameFor func(n int) string // itemAccept: names the n-th accepted channel (nil: in<k>, reused)
	done    chan struct{}      // itemEvent: signaled after dispatch (Do)
}

// inbox is the shard's MPSC queue: producers append under a mutex,
// the loop swaps the whole pending slice out in one drain. The two
// slices ping-pong, so steady state runs with zero queue allocation
// and one lock round-trip per burst rather than per event.
//
// The inbox mutex is also the runner-liveness lock: each runner's
// closed flag is read by push and written by pushStop under it, so a
// successful push is always processed before the runner's stop item,
// and nothing is enqueued after it.
type inbox struct {
	mu         sync.Mutex
	cond       sync.Cond
	items      []inboxItem
	closed     bool
	depth      *telemetry.Gauge // process-wide aggregate
	depthShard *telemetry.Gauge // per-shard (nil for standalone shards)
}

func newInbox(shardGauge *telemetry.Gauge) *inbox {
	q := &inbox{depth: telemetry.G(MetricInboxDepth), depthShard: shardGauge}
	q.cond.L = &q.mu
	return q
}

// push enqueues it, reporting false if the inbox — or the item's
// runner — is closed. The checks and the append happen under one lock
// with drain, so a successful push is always processed before the
// loop (or the runner) exits.
func (q *inbox) push(it inboxItem) bool {
	q.mu.Lock()
	if q.closed || (it.r != nil && it.r.closed) {
		q.mu.Unlock()
		return false
	}
	q.items = append(q.items, it)
	if len(q.items) == 1 {
		q.cond.Signal()
	}
	q.mu.Unlock()
	q.depth.Inc()
	q.depthShard.Inc()
	return true
}

// drain blocks until work is queued, then returns the whole pending
// batch, installing recycled (the previous batch, already processed)
// as the new append target. ok is false once the inbox is closed and
// empty.
func (q *inbox) drain(recycled []inboxItem) ([]inboxItem, bool) {
	for i := range recycled {
		recycled[i] = inboxItem{} // drop envelope/closure references
	}
	q.mu.Lock()
	for len(q.items) == 0 {
		if q.closed {
			q.mu.Unlock()
			return nil, false
		}
		q.cond.Wait()
	}
	batch := q.items
	q.items = recycled[:0]
	q.mu.Unlock()
	q.depth.Add(int64(-len(batch)))
	q.depthShard.Add(int64(-len(batch)))
	return batch, true
}

func (q *inbox) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// shard is one slice of the runtime: a loop goroutine, an inbox, and a
// timer wheel, serving every runner placed on it. Standalone runners
// own a private shard (id -1); Cluster shards are numbered and export
// per-shard depth gauges.
type shard struct {
	id    int
	inbox *inbox
	wheel *timerwheel.Wheel
	wg    sync.WaitGroup

	mLoop *telemetry.Counter

	// drainBuf is the loop-goroutine-only scratch for draining inline
	// ports, allocated by the shard's first ring drain: a standalone
	// runner whose ports are all batch ports (a Router's, over
	// NewMemNetwork) never drains a ring and never pays for it.
	drainBuf []sig.Envelope
}

func newShard(id int, wheel *timerwheel.Wheel) *shard {
	var g *telemetry.Gauge
	if id >= 0 {
		g = telemetry.G(MetricInboxDepth + ".s" + strconv.Itoa(id))
	}
	s := &shard{
		id:    id,
		inbox: newInbox(g),
		wheel: wheel,
		mLoop: telemetry.C(MetricLoopIterations),
	}
	s.wg.Add(1)
	go s.loop()
	return s
}

func (s *shard) loop() {
	defer s.wg.Done()
	var batch []inboxItem
	for {
		var ok bool
		batch, ok = s.inbox.drain(batch)
		if !ok {
			return
		}
		n := 0
		for i := range batch {
			n += batch[i].r.execute(&batch[i])
		}
		// One counter round-trip per drain, not per event: under load a
		// drain carries a burst, and the shared atomic would otherwise
		// bounce between every core on every dispatch.
		s.mLoop.Add(uint64(n))
	}
}

func (s *shard) close() { s.inbox.close() }

// donePool recycles the completion channels Do blocks on.
var donePool = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// Runner drives one Box over a transport.Network, multiplexed onto a
// runtime shard.
type Runner struct {
	box *Box
	net transport.Network
	sh  *shard

	closed   bool // guarded by sh.inbox.mu; set by pushStop
	stopc    chan struct{}
	stopDone chan struct{}
	stopOnce sync.Once
	ownShard bool
	wg       sync.WaitGroup // pumps and accept goroutines

	// loop-goroutine-only state; per-channel state (port, readiness
	// callback, setup meta) is in the box's channel records
	timers    map[string]*timerwheel.Timer // one per timer name, re-armed in place
	acceptN   int                          // accept names minted so far
	chanVer   uint64                       // box.ChanVersion after the last dispatched item
	lifecycle Lifecycle
	lcChans   map[string]lcEntry

	mu    sync.Mutex
	errs  []error
	notes []string
	trace func(WireEvent)

	waitMu  sync.Mutex
	waiters map[string][]chan struct{} // per-channel-name AwaitChannel waiters

	mTracer *telemetry.Tracer // envelope send/recv trace

	// OnError, if set, observes box errors as they happen (testing).
	OnError func(error)
}

// WireEvent is one envelope crossing this box's edge of a signaling
// channel, for live message-sequence traces.
type WireEvent struct {
	Box     string
	Dir     string // "send" or "recv"
	Channel string
	Env     sig.Envelope
	At      time.Time
}

func (e WireEvent) String() string {
	return fmt.Sprintf("%s %s %s %s", e.Box, e.Dir, e.Channel, e.Env)
}

// SetTrace installs a wire observer; pass nil to remove it. The
// callback runs on the box goroutine and must not call back into the
// runner.
func (r *Runner) SetTrace(f func(WireEvent)) {
	r.Do(func(*Ctx) { r.trace = f })
}

func (r *Runner) traceEvent(dir, channel string, env sig.Envelope) {
	if r.trace != nil {
		r.trace(WireEvent{Box: r.box.Name(), Dir: dir, Channel: channel, Env: env, At: time.Now()})
	}
	// Armed is the advisory gate that keeps the always-on tracer free:
	// rendering env.String() costs several allocations per event, so it
	// only happens while someone is watching the trace.
	if r.mTracer.Armed() {
		r.mTracer.Record(dir, r.box.Name(), channel+" "+env.String())
	}
}

// NewRunner wraps b for live execution over net on a private shard:
// one loop goroutine for this box, timers on the package-wide solo
// wheel. Boxes that should share cores and wheels belong on a Cluster.
func NewRunner(b *Box, net transport.Network) *Runner {
	return newRunner(b, net, newShard(-1, soloWheel()), true)
}

func newRunner(b *Box, net transport.Network, sh *shard, own bool) *Runner {
	b.TrackDirtyChannels()
	r := &Runner{
		box:      b,
		net:      net,
		sh:       sh,
		ownShard: own,
		stopc:    make(chan struct{}),
		stopDone: make(chan struct{}),
		timers:   map[string]*timerwheel.Timer{},
		mTracer:  telemetry.T(),
	}
	for _, ci := range b.chans {
		// Records an earlier runner of this box left behind: their ports
		// are closed and their callbacks post to that runner. One that
		// was only waiting for its port to go can be parked now.
		ci.port, ci.ready = nil, nil
		b.retire(ci)
	}
	return r
}

// port returns the named channel's port, nil if it has none.
func (r *Runner) port(channel string) transport.Port {
	if ci := r.box.record(channel); ci != nil {
		return ci.port
	}
	return nil
}

// Box returns the underlying box. Touch it only via Do.
func (r *Runner) Box() *Box { return r.box }

// Shard reports the shard index this runner is placed on; -1 for a
// standalone runner.
func (r *Runner) Shard() int { return r.sh.id }

// execute dispatches one inbox item and returns the number of loop
// iterations (box events) it amounted to. Shard loop goroutine only.
func (r *Runner) execute(it *inboxItem) int {
	n := 0
	switch it.kind {
	case itemEvent:
		n = 1
		r.handle(it.ev)
		if it.done != nil {
			it.done <- struct{}{}
		}
	case itemBatch:
		n = len(it.batch)
		current := r.port(it.ev.Channel) == it.port
		for _, e := range it.batch {
			if current {
				r.handle(Event{Kind: EvEnvelope, Channel: it.ev.Channel, Env: e})
			} else {
				e.Release()
			}
		}
		it.ack <- struct{}{}
	case itemAccept:
		n = 1
		r.accept(it.port, it.nameFor)
	case itemPortLost:
		n = 1
		r.portLost(it.ev.Channel, it.port)
	case itemRing:
		n = r.drainRing(it.ev.Channel)
	case itemStop:
		r.closeAll()
		close(r.stopDone)
	}
	if v := r.box.ChanVersion(); v != r.chanVer {
		r.chanVer = v
		r.notifyChanged()
	}
	return n
}

// drainRing moves pending envelopes out of the channel's inline port
// and through the box, up to the fairness cap; past the cap it re-posts
// itself so one busy channel cannot starve the shard's other boxes. The
// port is whatever the channel name maps to now: a notification that
// outlived its channel finds nothing, and one that outlived a redial
// or a re-accept under the name drains the new port, which is harmless
// (an early drain finds the ring empty and re-arms its edge). Loop
// goroutine only.
func (r *Runner) drainRing(channel string) int {
	ci := r.box.record(channel)
	if ci == nil {
		return 0
	}
	ip, _ := ci.port.(transport.InlinePort)
	if ip == nil {
		return 0
	}
	if r.sh.drainBuf == nil {
		r.sh.drainBuf = make([]sig.Envelope, ringDrainBatch)
	}
	buf := r.sh.drainBuf
	events := 0
	for events < ringDrainMax {
		n, ok := ip.TryRecvBatch(buf)
		if n == 0 {
			if !ok {
				r.portLost(channel, ip)
			}
			// Empty ring: the readiness edge was re-armed by
			// TryRecvBatch, so the next push re-posts us.
			return events
		}
		for i := 0; i < n; i++ {
			r.handle(Event{Kind: EvEnvelope, Channel: channel, Env: buf[i]})
			buf[i] = sig.Envelope{}
			if ci.port != transport.Port(ip) {
				// The box tore this channel down mid-burst; the rest of
				// the ring is for a dead channel.
				return events + i + 1
			}
		}
		events += n
	}
	// Fairness cap hit with the ring possibly non-empty and the edge
	// NOT re-armed: hand the loop back and queue another drain.
	r.sh.inbox.push(inboxItem{kind: itemRing, r: r, ev: Event{Kind: EvEnvelope, Channel: channel}})
	return events
}

// closeAll is the runner's loop-side cleanup, executed by its stop
// item (or inline by Stop when the shard loop is already gone).
func (r *Runner) closeAll() {
	for _, ci := range r.box.chans {
		if ci.port != nil {
			ci.port.Close()
		}
	}
	for _, t := range r.timers {
		t.Stop()
	}
	r.lcFlush()
	r.notifyAllWaiters()
}

// pushStop marks the runner closed and enqueues its stop item in one
// critical section: everything pushed before is processed first,
// nothing lands after. pushed reports whether the item was enqueued;
// already reports the runner was closed beforehand (a concurrent Stop
// owns the item).
func (r *Runner) pushStop() (pushed, already bool) {
	q := r.sh.inbox
	q.mu.Lock()
	if r.closed {
		q.mu.Unlock()
		return false, true
	}
	r.closed = true
	if q.closed {
		q.mu.Unlock()
		return false, false
	}
	q.items = append(q.items, inboxItem{kind: itemStop, r: r})
	if len(q.items) == 1 {
		q.cond.Signal()
	}
	q.mu.Unlock()
	q.depth.Inc()
	q.depthShard.Inc()
	return true, false
}

// Stop shuts the runner down and waits for its cleanup, pumps, and
// accept goroutines. Work already queued is processed first; pushes
// that lose the race with Stop are refused, so concurrent Connect,
// Listen, and pump deliveries cannot strand work or touch a drained
// loop. On a shared (Cluster) shard the loop itself keeps running for
// the other boxes; a standalone runner's private shard exits.
func (r *Runner) Stop() {
	r.stopOnce.Do(func() {
		close(r.stopc)
		pushed, already := r.pushStop()
		if !pushed && !already {
			// The shard loop is gone (inbox closed before this runner
			// stopped), so no stop item will ever execute. With the loop
			// dead its state is safe to clean from here.
			r.closeAll()
			close(r.stopDone)
		}
	})
	<-r.stopDone
	if r.ownShard {
		r.sh.close()
		r.sh.wg.Wait()
	}
	r.wg.Wait()
}

// Errs returns the box errors observed so far.
func (r *Runner) Errs() []error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]error(nil), r.errs...)
}

// Notes returns the diagnostic notes emitted by the box.
func (r *Runner) Notes() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.notes...)
}

func (r *Runner) fail(err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	r.errs = append(r.errs, err)
	r.mu.Unlock()
	if r.OnError != nil {
		r.OnError(err)
	}
}

// Do runs f inside the box's shard loop and waits for it to finish. It
// is the only safe way to inspect or mutate box state from outside. If
// the runner is stopped, f does not run. Do must not be called from
// box or program code: a loop goroutine blocking on a runner of its
// own shard would wait on itself.
func (r *Runner) Do(f func(ctx *Ctx)) {
	donec := donePool.Get().(chan struct{})
	if !r.sh.inbox.push(inboxItem{kind: itemEvent, r: r, ev: Event{Kind: EvCall, Call: f}, done: donec}) {
		donePool.Put(donec)
		return
	}
	// A successful push is always processed before the loop exits, so
	// this wait cannot strand.
	<-donec
	donePool.Put(donec)
}

// SetProgram installs and starts a program on the box.
func (r *Runner) SetProgram(p *Program) {
	r.Do(func(ctx *Ctx) {
		outs, err := r.box.SetProgram(p)
		r.process(outs)
		r.fail(err)
	})
}

// Inject delivers an event as if it came from a transport, for tests.
func (r *Runner) Inject(ev Event) {
	r.sh.inbox.push(inboxItem{kind: itemEvent, r: r, ev: ev})
}

// handle runs one event through the box and processes its outputs.
// Loop goroutine only.
func (r *Runner) handle(ev Event) {
	if ev.Kind == EvEnvelope {
		r.traceEvent("recv", ev.Channel, ev.Env)
		if r.lifecycle != nil && ev.Env.Meta != nil {
			switch ev.Env.Meta.Kind {
			case sig.MetaSetup:
				r.lcSetup(ev.Channel, ev.Env.Meta.Get("from"))
			case sig.MetaTeardown:
				r.lcTeardown(ev.Channel)
			}
		}
	}
	outs, err := r.box.Handle(ev)
	// Dispatch is complete: recycle the decode-owned Meta frame (no-op
	// for hand-built envelopes). Handlers that keep attr data past this
	// point hold the strings, never the frame.
	ev.Env.Release()
	r.process(outs)
	r.box.Recycle(outs)
	r.fail(err)
	if ev.Kind == EvTimer {
		r.dropIdleTimer(ev.Timer)
	}
}

// setupMetaFor returns the (immutable) setup meta announcing this box
// on the channel, built once per channel record: dial-heavy workloads
// redial the same channel names constantly, and a redial reopens the
// name's record. Loop goroutine only.
func (r *Runner) setupMetaFor(ci *chanInfo) *sig.Meta {
	if ci.setup == nil {
		ci.setup = &sig.Meta{Kind: sig.MetaSetup,
			Attrs: sig.NewAttrs("from", r.box.Name(), "chan", ci.name)}
		// Seed the decoder's intern table with the names this meta will
		// put on the wire, so the peer decodes them without allocating.
		sig.InternSeed(r.box.Name(), ci.name)
	}
	return ci.setup
}

// armTimer arms (or re-arms) the named timer. A runner keeps one wheel
// timer per name and re-arms it in place, so a recurring timer costs
// its first arm only. Loop goroutine only.
func (r *Runner) armTimer(name string, d time.Duration) {
	if t := r.timers[name]; t != nil {
		t.Reset(d)
		return
	}
	r.timers[name] = r.sh.wheel.Schedule(d, func() {
		// Wheel goroutine: just post; the box's pendingT set makes
		// stale fires (cancel racing this post) harmless.
		r.sh.inbox.push(inboxItem{kind: itemEvent, r: r, ev: Event{Kind: EvTimer, Timer: name}})
	})
}

// dropIdleTimer forgets the named timer, which has just fired or been
// stopped, if the runner holds more than runnerCacheCap of them. A
// timer the box has pending stays: the program re-armed it in the same
// event (or before a stale fire got here), and a second wheel timer
// under the name would fire it early. Loop goroutine only.
func (r *Runner) dropIdleTimer(name string) {
	if len(r.timers) > runnerCacheCap && !r.box.pendingT[name] {
		delete(r.timers, name)
	}
}

// readyFnFor returns the readiness callback for the channel's inline
// port, built once per channel record: it posts a drain item, naming
// the channel rather than the port so that one closure serves every
// channel the record is reopened for. It runs on the producer's
// goroutine, one edge per empty→non-empty transition; a refused push
// means the runner stopped, and its cleanup closes the port. Loop
// goroutine only.
func (r *Runner) readyFnFor(ci *chanInfo) func() {
	if ci.ready == nil {
		channel := ci.name
		ci.ready = func() {
			r.sh.inbox.push(inboxItem{kind: itemRing, r: r, ev: Event{Kind: EvEnvelope, Channel: channel}})
		}
	}
	return ci.ready
}

// process executes box outputs. Loop goroutine only.
func (r *Runner) process(outs []Output) {
	for _, o := range outs {
		switch o.Kind {
		case OutSend:
			if p := r.port(o.Channel); p != nil {
				r.traceEvent("send", o.Channel, o.Env)
				p.Send(o.Env)
			}
		case OutDial:
			p, err := r.net.Dial(o.Addr)
			if err == nil {
				err = r.receivable(p)
			}
			if err != nil {
				// The intended far endpoint is unreachable: synthesize
				// the unavailable meta-signal for the program. Through the
				// inbox, not inline — a program that redials straight from
				// its unavailable transition would otherwise recurse
				// process→handle→process unboundedly while the target is
				// down (e.g. its listener stopping first during cluster
				// shutdown), and the refused-after-stop push is what ends
				// the cycle once this runner is closed.
				r.sh.inbox.push(inboxItem{kind: itemEvent, r: r,
					ev: Event{Kind: EvEnvelope, Channel: o.Channel,
						Env: sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaUnavailable}}}})
				continue
			}
			ci := r.box.record(o.Channel)
			if ci == nil {
				// The program tore the channel down again in the same event
				// and the record was forgotten: the peer sees a lost port.
				p.Close()
				continue
			}
			r.addPort(ci, p)
			r.lcSetup(o.Channel, o.Addr)
			p.Send(sig.Envelope{Meta: r.setupMetaFor(ci)})
		case OutTeardown:
			r.lcTeardown(o.Channel)
			if ci := r.box.record(o.Channel); ci != nil && ci.port != nil {
				ci.port.Send(sig.Envelope{Meta: teardownMeta})
				ci.port.Close()
				ci.port = nil
				r.box.retire(ci)
			}
		case OutTimerSet:
			r.armTimer(o.Timer, o.Dur)
		case OutTimerCancel:
			if t := r.timers[o.Timer]; t != nil {
				t.Stop()
				r.dropIdleTimer(o.Timer)
			}
		case OutNote:
			r.mu.Lock()
			r.notes = append(r.notes, o.Note)
			r.mu.Unlock()
		}
	}
}

// receivable refuses a port the runtime cannot receive from — one that
// is neither an InlinePort nor a BatchPort: the port is closed and the
// error recorded with the box's.
func (r *Runner) receivable(p transport.Port) error {
	switch p.(type) {
	case transport.InlinePort, transport.BatchPort:
		return nil
	}
	p.Close()
	err := fmt.Errorf("box %s: port %T to %s is neither an InlinePort nor a BatchPort", r.box.Name(), p, p.Peer())
	r.fail(err)
	return err
}

// addPort registers a connected port that passed receivable. Inline
// (SPSC ring) ports are drained by the shard loop on readiness
// notifications — no goroutine; batch ports get a pump. Loop goroutine
// only.
func (r *Runner) addPort(ci *chanInfo, p transport.Port) {
	ci.port = p
	switch rp := p.(type) {
	case transport.InlinePort:
		rp.SetReady(r.readyFnFor(ci))
	case transport.BatchPort:
		r.wg.Add(1)
		go r.pump(ci.name, p, rp)
	}
}

// pump moves envelopes from a batch port into the inbox until the
// transport goes away, then posts the port-loss cleanup. It posts one
// batch at a time: receive a burst into its one buffer, post it as a
// single inbox item, wait for the loop's ack, repeat. Envelopes that
// arrive meanwhile wait in the port's queue and go out in the next
// batch, so the buffer is never refilled while the loop reads it and
// the pump's state is never given up with a batch in flight. Every item
// carries the port as well as the channel name: the loop dispatches a
// pump's envelopes only while its port is the name's registered one, so
// what a pump still carries after its channel was torn down locally
// cannot land in the channel that dialed or accepted the name next.
func (r *Runner) pump(channel string, p transport.Port, bp transport.BatchPort) {
	defer r.wg.Done()
	st := pumpPool.Get().(*pumpState)
	defer st.release()
	want := pumpBatchMin
	for {
		if len(st.buf) < want {
			st.buf = make([]sig.Envelope, want)
		}
		n, ok := bp.RecvBatch(st.buf)
		if !ok {
			break
		}
		if n == len(st.buf) && want < pumpBatchMax {
			want *= 2 // saturated drain: the port is bursty, scale up
		}
		if !r.sh.inbox.push(inboxItem{kind: itemBatch, r: r, port: p,
			ev: Event{Kind: EvEnvelope, Channel: channel}, batch: st.buf[:n], ack: st.ack}) {
			return
		}
		// A pushed item is always executed, and executing a batch acks it.
		<-st.ack
	}
	// Transport gone without a teardown: synthesize one so the box
	// cleans up. The item executes outside the box core because
	// portLost re-enters handle.
	r.sh.inbox.push(inboxItem{kind: itemPortLost, r: r, ev: Event{Channel: channel}, port: p})
}

// pumpState is what a pump keeps besides its goroutine: the channel the
// loop acks its batch on and the batch buffer. It is recycled across
// pumps, so a channel's pump costs no allocation of its own in steady
// state.
type pumpState struct {
	ack chan struct{}
	buf []sig.Envelope
}

var pumpPool = sync.Pool{New: func() any { return &pumpState{ack: make(chan struct{}, 1)} }}

// release returns a pump's state to the pool; the pump has no batch in
// flight. A buffer a bursty port grew is dropped rather than handed to
// the next port, which would hold it however idle it is.
func (st *pumpState) release() {
	if len(st.buf) > pumpBatchMin {
		st.buf = nil
	} else {
		clear(st.buf) // drop envelope references
	}
	pumpPool.Put(st)
}

// portLost is the loop-side cleanup when a transport disappears. Loop
// goroutine only. The loss only counts if p is still the registered
// port: a teardown-then-redial reuses the channel name, and the old
// pump's parting report must not kill the new channel.
func (r *Runner) portLost(channel string, p transport.Port) {
	ci := r.box.record(channel)
	if ci == nil || ci.port != p {
		return
	}
	p.Close()
	ci.port = nil
	if ci.live {
		// The box destroys the channel and, the port being gone, retires
		// the record.
		r.handle(Event{Kind: EvEnvelope, Channel: channel, Env: sig.Envelope{Meta: teardownMeta}})
	} else {
		r.box.retire(ci)
	}
}

// SeqName is the Listen nameFor that names the n-th accepted channel
// in<n> and never reuses a name: the default naming without the reuse.
// It is for boxes that address their callers by arrival order — a
// feature box whose program calls its first caller in0, a conference
// bridge whose legs an application server names in its mix requests —
// or that keep state of their own under a channel's name beyond the
// channel's teardown.
func SeqName(n int) string { return "in" + strconv.Itoa(n) }

// Listen accepts signaling channels at addr. With a nil nameFor an
// accepted channel is named in<k>, and a name is reused once its
// channel is destroyed and its port gone, so k stays near the most
// channels the box has held at once; a program learns the name from
// the channel's setup meta event, not by counting, and must drop what
// it keeps under the name when the channel is torn down. With nameFor
// the n-th accepted channel is named nameFor(n), never reused.
func (r *Runner) Listen(addr string, nameFor func(n int) string) error {
	l, err := r.net.Listen(addr)
	if err != nil {
		return err
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer l.Close()
		for {
			p, err := l.Accept()
			if err != nil {
				return
			}
			if !r.sh.inbox.push(inboxItem{kind: itemAccept, r: r, port: p, nameFor: nameFor}) {
				// Lost the race with Stop: the loop will never register
				// this port, so close it here instead of leaking it.
				p.Close()
				return
			}
		}
	}()
	go func() {
		<-r.stopc
		l.Close()
	}()
	return nil
}

// accept registers an accepted port as a channel: under nameFor's next
// name, or by default under a parked in<k> if the box has one and a
// newly minted one otherwise. Loop goroutine only.
func (r *Runner) accept(p transport.Port, nameFor func(n int) string) {
	if r.receivable(p) != nil {
		return
	}
	var ci *chanInfo
	if nameFor == nil {
		ci = r.box.reopenMinted()
	}
	if ci == nil {
		n := r.acceptN
		r.acceptN++
		if nameFor != nil {
			ci = r.box.addChannel(nameFor(n), false, false)
		} else {
			ci = r.box.addChannel(SeqName(n), false, true)
		}
	}
	r.addPort(ci, p)
}

// notifyChanged wakes the AwaitChannel waiters of exactly the channels
// the last dispatch touched. With 100k boxes redialing on a host,
// waking every waiter in the process on every table change melts into
// a thundering herd; per-key wakeups keep AwaitChannel O(changes).
// Loop goroutine only.
func (r *Runner) notifyChanged() {
	names := r.box.DirtyChannels()
	if len(names) == 0 {
		// Version moved without named dirt (tracking toggled off):
		// fall back to waking everyone rather than missing a waiter.
		r.notifyAllWaiters()
		return
	}
	r.waitMu.Lock()
	for _, name := range names {
		if ws := r.waiters[name]; len(ws) > 0 {
			for _, w := range ws {
				close(w)
			}
			delete(r.waiters, name)
		}
	}
	r.waitMu.Unlock()
	r.box.ResetDirtyChannels()
}

// notifyAllWaiters wakes every AwaitChannel waiter (runner shutdown,
// or a table change without attribution).
func (r *Runner) notifyAllWaiters() {
	r.waitMu.Lock()
	for name, ws := range r.waiters {
		for _, w := range ws {
			close(w)
		}
		delete(r.waiters, name)
	}
	r.waitMu.Unlock()
}

// unwait removes a waiter that stopped waiting (found its channel, or
// timed out) so abandoned registrations do not pile up on hot names.
func (r *Runner) unwait(name string, w chan struct{}) {
	r.waitMu.Lock()
	ws := r.waiters[name]
	for i, c := range ws {
		if c == w {
			ws[i] = ws[len(ws)-1]
			ws[len(ws)-1] = nil
			r.waiters[name] = ws[:len(ws)-1]
			break
		}
	}
	if len(r.waiters[name]) == 0 {
		delete(r.waiters, name)
	}
	r.waitMu.Unlock()
}

// AwaitChannel waits until the box has a channel with the given name
// (e.g. an accepted incoming channel) and reports whether it appeared
// before the timeout. Waiting is notification-based and keyed: the
// loop wakes exactly the waiters of channels whose table entries
// changed.
func (r *Runner) AwaitChannel(name string, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		// Register before checking, so a change that lands between the
		// check and the wait cannot be missed.
		w := make(chan struct{})
		r.waitMu.Lock()
		if r.waiters == nil {
			r.waiters = map[string][]chan struct{}{}
		}
		r.waiters[name] = append(r.waiters[name], w)
		r.waitMu.Unlock()

		has := false
		r.Do(func(*Ctx) { has = r.box.HasChannel(name) })
		if has {
			r.unwait(name, w)
			return true
		}
		d := time.Until(deadline)
		if d <= 0 {
			r.unwait(name, w)
			return false
		}
		t := time.NewTimer(d)
		select {
		case <-w:
			t.Stop()
		case <-t.C:
			r.unwait(name, w)
			return false
		case <-r.stopc:
			t.Stop()
			r.unwait(name, w)
			return false
		}
	}
}

// Connect dials addr and registers the channel under the given name,
// synchronously. It is the out-of-program counterpart of Ctx.Dial,
// used by devices placing calls.
func (r *Runner) Connect(channel, addr string) error {
	var err error
	r.Do(func(ctx *Ctx) {
		if r.box.HasChannel(channel) {
			err = fmt.Errorf("box %s: channel %q already exists", r.box.Name(), channel)
			return
		}
		var p transport.Port
		p, err = r.net.Dial(addr)
		if err == nil {
			err = r.receivable(p)
		}
		if err != nil {
			return
		}
		ci := r.box.addChannel(channel, true, false)
		r.addPort(ci, p)
		r.lcSetup(channel, addr)
		p.Send(sig.Envelope{Meta: r.setupMetaFor(ci)})
	})
	return err
}
