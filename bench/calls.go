package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"ipmedia/internal/box"
	"ipmedia/internal/core"
	"ipmedia/internal/sig"
	"ipmedia/internal/store"
	"ipmedia/internal/transport"
)

// callsParams shapes one calls workload.
type callsParams struct {
	mux         bool          // clients and servers behind two routers joined by mux/rel/TCP
	closedLoop  bool          // clients redial as soon as a call ends; otherwise a seeded schedule
	loopClients int           // closed loop: cycling client boxes
	rate        float64       // open loop: calls per second
	meanHold    time.Duration // open loop: mean hold (±25 %)
	pool        int           // open loop: client boxes available to the generator
	parked      int           // standing population of held calls
	relays      int
	devs        int
	subscribers int // registry size; 0 runs without a store
	giveup      time.Duration
}

const (
	callCh = "c"   // every client's one signaling channel
	genCh  = "gen" // pseudo-channel the harness injects its control events on
)

var (
	goEnv   = sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaApp, App: "go"}}
	stopEnv = sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaApp, App: "stop"}}
)

// epoch anchors the benchmark's monotonic clock.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// callsWorld is one built instance of a calls workload: the network,
// the runtime, the store and every box, plus the counters the program
// stamps as calls move through their lifecycle.
type callsWorld struct {
	p   callsParams
	tr  *tracer // nil on untraced runs
	dir string  // store directory, "" without a store

	cluster *box.Cluster  // ring workloads
	runners []*box.Runner // every runner, for Stop (mux) and the far-end closed check
	servers []*box.Runner // relays and devices
	closers []func()

	st     *store.Store
	binder *store.Binder
	subs   []string // subscriber names, index = callSpec.sub

	clients []*client
	parkedC []*client
	free    chan *client // idle pool clients, FIFO so the whole pool is exercised

	stop    atomic.Bool // finish the current call and idle; the generator stops issuing
	looping bool        // closed loop: the clients were set cycling

	attempted atomic.Int64 // calls issued (dialed, or refused for want of an idle client)
	completed atomic.Int64 // calls that flowed, held and were torn down
	failed    atomic.Int64 // give-up, unavailable, refused
	flowed    atomic.Int64 // calls that reached flowing
	closed    atomic.Int64 // flowed calls whose channel was torn down
	parkedUp  atomic.Int64 // parked calls currently flowing
	idle      atomic.Int64 // loop clients that have stopped (closed loop drain)

	// recFrom/recTo bound the measurement window (benchmark clock); a
	// latency sample is kept when its call was due inside it.
	recFrom, recTo atomic.Int64
	latency        *samples // ns
	genLag         *samples // ns, open loop
}

// client is one client box and the harness state of its current call.
type client struct {
	w      *callsWorld
	name   string
	target string
	r      *box.Runner
	parked bool
	rng    *rand.Rand // closed loop: this client's hold jitter

	// The current call. Written by the generator before the "go" event
	// is injected (open loop) or by the client's own program (closed
	// loop); read only by the program.
	due    int64 // benchmark clock, ns
	hold   time.Duration
	sub    string
	dialAt int64
	ct     *callTrace
}

func devProfile(name string, port int) *core.EndpointProfile {
	return core.NewEndpointProfile(name, "10.9.0.1", port,
		[]sig.Codec{sig.G711, sig.G726}, []sig.Codec{sig.G711, sig.G726})
}

// namesOwnedBy returns n names prefix0, prefix1, … that the placement
// function assigns to shard of shards.
func namesOwnedBy(prefix string, n, shard, shards int) []string {
	out := make([]string, 0, n)
	for i := 0; len(out) < n; i++ {
		name := prefix + strconv.Itoa(i)
		if box.ShardOfName(name, shards) == shard {
			out = append(out, name)
		}
	}
	return out
}

// buildCalls stands the workload's world up and parks its standing
// population; it returns once every parked call is flowing.
func buildCalls(p callsParams, cfg config, tr *tracer, instance int) (*callsWorld, error) {
	w := &callsWorld{p: p, tr: tr}
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()

	// Networks. Clients dial through cliNet, servers listen and dial
	// through srvNet; on the ring workloads they are the same network.
	var cliNet, srvNet transport.Network
	shards := 1
	newRunner := box.NewRunner
	if p.mux {
		nets, err := buildMuxFabric(cfg.seed, &w.closers)
		if err != nil {
			return nil, err
		}
		cliNet, srvNet = nets[0], nets[1]
		shards = 2 // clients are shard 0's boxes, servers shard 1's
	} else {
		ring := transport.NewRingMemNetwork()
		cliNet, srvNet = ring, ring
	}
	cliNames := namesOwnedBy("cli", p.pool+p.loopClients+p.parked, 0, shards)
	relayNames := namesOwnedBy("relay", p.relays, shards-1, shards)
	devNames := namesOwnedBy("dev", p.devs, shards-1, shards)
	cliNet, srvNet = tr.wrapNet(cliNet), tr.wrapNet(srvNet)
	if !p.mux {
		// One wrapped network, one shard: every box on one loop.
		w.cluster = box.NewCluster(cliNet, 1)
		newRunner = func(b *box.Box, _ transport.Network) *box.Runner { return w.cluster.Runner(b) }
	}

	// Store: the production configuration (read cache on, group-commit
	// WAL) over a registry of p.subscribers profiles.
	if p.subscribers > 0 {
		w.dir = filepath.Join(cfg.outDir, fmt.Sprintf("store-%d-%d", os.Getpid(), instance))
		if err := os.MkdirAll(w.dir, 0o755); err != nil {
			return nil, err
		}
		st, err := store.Open(w.dir, store.Options{})
		if err != nil {
			return nil, fmt.Errorf("store open: %w", err)
		}
		w.st = st
		w.subs = make([]string, p.subscribers)
		for i := range w.subs {
			w.subs[i] = "sub" + strconv.Itoa(i)
			if err := st.PutProfile(store.Profile{Name: w.subs[i], Features: []string{"bench"}}); err != nil {
				return nil, fmt.Errorf("put profile: %w", err)
			}
		}
		w.binder = store.NewBinder(st)
	}

	// Servers first, so every client dial lands on a listener.
	listen := func(name string, b *box.Box) error {
		r := newRunner(b, srvNet)
		r.OnError = func(err error) { fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err) }
		w.runners = append(w.runners, r)
		w.servers = append(w.servers, r)
		return r.Listen(name, nil)
	}
	for i, name := range devNames {
		if err := listen(name, box.New(name, devProfile(name, 20000+i))); err != nil {
			return nil, err
		}
	}
	for i, name := range relayNames {
		b := box.New(name, core.ServerProfile{Name: name})
		b.Hook = relayHook(devNames, i, tr.spliceFor(name))
		if err := listen(name, b); err != nil {
			return nil, err
		}
	}

	// Clients.
	newClient := func(i int, name string, parked bool) *client {
		c := &client{w: w, name: name, target: relayNames[i%len(relayNames)], parked: parked}
		if p.closedLoop && !parked {
			c.rng = rand.New(rand.NewSource(cfg.seed*7919 + int64(i)))
		}
		c.r = newRunner(box.New(name, devProfile(name, 30000+i)), cliNet)
		c.r.OnError = func(err error) { fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err) }
		if w.binder != nil && !parked {
			c.r.SetLifecycle(w.lifecycleFor(c))
		}
		c.r.SetProgram(c.program())
		w.runners = append(w.runners, c.r)
		return c
	}
	active := p.pool + p.loopClients
	w.free = make(chan *client, active) // sized to the pool: a release never blocks
	for i := 0; i < active; i++ {
		c := newClient(i, cliNames[i], false)
		w.clients = append(w.clients, c)
		if !p.closedLoop {
			w.free <- c
		}
	}
	for i := 0; i < p.parked; i++ {
		w.parkedC = append(w.parkedC, newClient(active+i, cliNames[active+i], true))
	}

	// Park the standing population in waves, so the ramp's queue depths
	// stay near the steady state's and the high-water gauges keep meaning.
	const wave = 250
	deadline := time.Now().Add(30 * time.Second)
	parkedAtLeast := func(n int) error {
		for w.parkedUp.Load() < int64(n) {
			if time.Now().After(deadline) {
				return fmt.Errorf("parked population stalled at %d of %d", w.parkedUp.Load(), p.parked)
			}
			time.Sleep(200 * time.Microsecond)
		}
		return nil
	}
	for i, c := range w.parkedC {
		c.r.Inject(box.Event{Kind: box.EvEnvelope, Channel: genCh, Env: goEnv})
		if err := parkedAtLeast(i + 1 - wave); err != nil {
			return nil, err
		}
	}
	if err := parkedAtLeast(p.parked); err != nil {
		return nil, err
	}
	ok = true
	return w, nil
}

// buildMuxFabric builds the two-process-shaped fabric inside one
// process: two routers of a two-shard fleet, each with its own local
// network and its own mux over the reliable layer over TCP loopback.
// Only shard 0 (clients) ever dials shard 1 (servers), so the fabric
// holds one TCP connection.
func buildMuxFabric(seed int64, closers *[]func()) ([2]transport.Network, error) {
	var nets [2]transport.Network
	var routers [2]*box.Router
	var addrs [2]string
	for s := 0; s < 2; s++ {
		rel := transport.NewRelNetwork(transport.TCPNetwork{}, transport.RelConfig{Seed: seed + int64(s)})
		mux := transport.NewMux(rel)
		addr, err := mux.ListenCarrier("127.0.0.1:0")
		if err != nil {
			mux.Close()
			return nets, fmt.Errorf("carrier listen: %w", err)
		}
		routers[s] = box.NewRouter(s, 2, transport.NewMemNetwork(), mux)
		addrs[s] = addr
		r := routers[s]
		*closers = append(*closers, func() { r.Close(); mux.Close() })
		nets[s] = r
	}
	routers[0].SetAddr(1, addrs[1])
	routers[1].SetAddr(0, addrs[0])
	return nets, nil
}

// relayHook splices every incoming call onward to a device with a
// flowLink and propagates teardowns to the spliced leg; it is the
// storm harnesses' relay, with out-leg names pooled so a steady state
// cycles a bounded set of strings. onSplice, if set, observes each
// splice (the in-leg's setup meta and both channel names).
func relayHook(devAddrs []string, seed int, onSplice func(setup *sig.Meta, in, out string)) func(*box.Ctx, *box.Event) {
	next := seed
	outOf := map[string]string{}
	var free []string
	minted := 0
	return func(ctx *box.Ctx, ev *box.Event) {
		if ev.Kind != box.EvEnvelope || !ev.Env.IsMeta() {
			return
		}
		in := ev.Channel
		if strings.HasPrefix(in, "o-") {
			return
		}
		switch ev.Env.Meta.Kind {
		case sig.MetaSetup:
			var out string
			if n := len(free); n > 0 {
				out, free = free[n-1], free[:n-1]
			} else {
				out = "o-" + strconv.Itoa(minted)
				minted++
			}
			outOf[in] = out
			if onSplice != nil {
				onSplice(ev.Env.Meta, in, out)
			}
			ctx.Dial(out, devAddrs[next%len(devAddrs)])
			next++
			ctx.SetGoal(core.NewFlowLink(box.TunnelSlot(in, 0), box.TunnelSlot(out, 0)))
		case sig.MetaTeardown:
			if out, ok := outOf[in]; ok {
				delete(outOf, in)
				free = append(free, out)
				ctx.Teardown(out)
			}
		}
	}
}

// inWindow reports whether a call due at t counts toward the window.
func (w *callsWorld) inWindow(t int64) bool {
	return t >= w.recFrom.Load() && t < w.recTo.Load()
}

// program is the client lifecycle: idle until told to go, dial and
// open, hold while flowing, tear down; then idle again (open loop) or
// straight into the next call (closed loop).
func (c *client) program() *box.Program {
	w := c.w
	s0 := box.TunnelSlot(callCh, 0)
	open := []box.Annot{box.OpenSlotAnn(s0, sig.Audio)}
	flowing := false
	return &box.Program{Initial: "idle", States: []*box.State{
		{
			Name: "idle",
			Trans: []box.Trans{
				{When: func(ctx *box.Ctx) bool { return ctx.OnApp(genCh, "go") }, To: "call"},
			},
		},
		{
			Name:   "call",
			Annots: open,
			OnEnter: func(ctx *box.Ctx) {
				c.dialAt = nowNS()
				if c.parked || w.p.closedLoop {
					c.due = c.dialAt // due the moment the last call ended
				}
				if w.p.closedLoop && !c.parked {
					// The hold is drawn from the client's own seeded stream
					// (the runtime rounds it up to a wheel tick).
					w.attempted.Add(1)
					c.hold = time.Millisecond + time.Duration(c.rng.Int63n(int64(4*time.Millisecond)))
				}
				c.ct = w.tr.beginCall(c)
				ctx.Dial(callCh, c.target)
				ctx.SetTimer("giveup", w.p.giveup)
			},
			Trans: []box.Trans{
				{When: func(ctx *box.Ctx) bool { return ctx.IsFlowing(s0) }, To: "hold",
					Do: func(ctx *box.Ctx) {
						ctx.CancelTimer("giveup")
						now := nowNS()
						flowing = true
						c.ct.flowing(now)
						if c.parked {
							w.parkedUp.Add(1)
							return
						}
						w.flowed.Add(1)
						if w.inWindow(c.due) {
							w.latency.add(now - c.due)
						}
					}},
				{When: func(ctx *box.Ctx) bool { return ctx.OnMeta(callCh, sig.MetaUnavailable) }, To: "over",
					Do: func(ctx *box.Ctx) { ctx.CancelTimer("giveup"); w.failed.Add(1) }},
				{When: func(ctx *box.Ctx) bool { return ctx.OnTimer("giveup") }, To: "over",
					Do: func(ctx *box.Ctx) { w.failed.Add(1) }},
			},
		},
		{
			Name:   "hold",
			Annots: open,
			OnEnter: func(ctx *box.Ctx) {
				if !c.parked {
					ctx.SetTimer("hold", c.hold)
				}
			},
			Trans: []box.Trans{
				{When: func(ctx *box.Ctx) bool { return ctx.OnTimer("hold") }, To: "over"},
				{When: func(ctx *box.Ctx) bool { return c.parked && ctx.OnApp(genCh, "stop") }, To: "over"},
			},
		},
		{
			Name: "over",
			OnEnter: func(ctx *box.Ctx) {
				now := nowNS()
				c.ct.holdEnd(now)
				ctx.Teardown(callCh)
				c.ct.end(nowNS())
				c.ct = nil
				if !flowing {
					return
				}
				flowing = false
				if c.parked {
					w.parkedUp.Add(-1)
					return
				}
				w.closed.Add(1)
				w.completed.Add(1)
			},
			Trans: []box.Trans{
				{When: func(*box.Ctx) bool { return w.p.closedLoop && !c.parked && !w.stop.Load() }, To: "call"},
				{When: func(*box.Ctx) bool { return true }, To: "idle",
					Do: func(*box.Ctx) {
						switch {
						case c.parked:
						case w.p.closedLoop:
							w.idle.Add(1)
						default:
							w.free <- c
						}
					}},
			},
		},
	}}
}

// subLifecycle presents the client's current call to the store under
// the calling subscriber's name: a pool client stands for whichever
// subscriber the schedule says is calling.
type subLifecycle struct {
	c     *client
	inner box.Lifecycle
}

func (l *subLifecycle) ChannelSetup(_, peer, channel string) {
	l.inner.ChannelSetup(l.c.sub, peer, channel)
}

func (l *subLifecycle) ChannelTeardown(_, peer, channel string, setupAt time.Time) {
	l.inner.ChannelTeardown(l.c.sub, peer, channel, setupAt)
}

func (w *callsWorld) lifecycleFor(c *client) box.Lifecycle {
	return &subLifecycle{c: c, inner: w.tr.wrapLifecycle(c, w.binder)}
}

// startLoops sets the closed-loop clients cycling.
func (w *callsWorld) startLoops() {
	w.looping = true
	for _, c := range w.clients {
		c.r.Inject(box.Event{Kind: box.EvEnvelope, Channel: genCh, Env: goEnv})
	}
}

// generate plays the schedule against the pool: at each call's due
// time it hands the call to an idle client, or refuses it if none is
// idle. It returns when the schedule is exhausted or the world is told
// to stop. One goroutine: the load source must not out-thread the
// machine.
func (w *callsWorld) generate(calls []callSpec, start time.Time) {
	base := int64(start.Sub(epoch))
	for i := range calls {
		cs := &calls[i]
		due := base + int64(cs.due)
		sleepUntil(due)
		if w.stop.Load() {
			return
		}
		w.attempted.Add(1)
		lag := nowNS() - due
		if w.inWindow(due) {
			w.genLag.add(lag)
		}
		select {
		case c := <-w.free:
			c.due, c.hold = due, cs.hold
			if w.subs != nil {
				c.sub = w.subs[cs.sub]
			}
			c.r.Inject(box.Event{Kind: box.EvEnvelope, Channel: genCh, Env: goEnv})
		default:
			w.failed.Add(1) // refused: no idle client at the due time
		}
	}
}

// sleepUntil blocks until the benchmark clock reads t. It sleeps in
// the kernel, not on a runtime timer: an idle Go scheduler waits in
// epoll with millisecond resolution, which would make every call half
// a millisecond late on average and bury the setup latency under the
// generator's own lateness. nanosleep wakes within ~0.1 ms.
func sleepUntil(t int64) {
	for {
		d := t - nowNS()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR just re-enters the loop
	}
}

// quiesce ends the load and waits for every call in flight to finish
// (complete or give up); the parked population stays standing.
func (w *callsWorld) quiesce() []string {
	w.stop.Store(true)
	return w.await("calls still in flight", w.p.giveup+2*w.p.meanHold+2*time.Second, func() bool {
		if w.looping && w.idle.Load() < int64(len(w.clients)) {
			return false
		}
		return w.completed.Load()+w.failed.Load() >= w.attempted.Load()
	})
}

// await polls done until it holds or limit passes, and returns the
// violation if it never held.
func (w *callsWorld) await(what string, limit time.Duration, done func() bool) []string {
	for end := time.Now().Add(limit); !done(); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			return []string{"drain: " + what}
		}
	}
	return nil
}

// drain quiesces the load, tears the parked population down, and
// requires every server box to end with no channel. It returns the
// violations of the output checks.
func (w *callsWorld) drain() []string {
	bad := w.quiesce()
	for _, c := range w.parkedC {
		c.r.Inject(box.Event{Kind: box.EvEnvelope, Channel: genCh, Env: stopEnv})
	}
	bad = append(bad, w.await("parked calls not torn down", 10*time.Second, func() bool { return w.parkedUp.Load() == 0 })...)
	// The far ends learn of each teardown by a meta-signal in flight;
	// give the fabric a moment, then require every server box empty.
	bad = append(bad, w.await("server boxes still hold channels", 5*time.Second, func() bool {
		for _, r := range w.servers {
			n := 0
			r.Do(func(ctx *box.Ctx) { n = len(ctx.Box().Channels()) })
			if n > 0 {
				return false
			}
		}
		return true
	})...)
	if f, c := w.flowed.Load(), w.closed.Load(); f != c {
		bad = append(bad, fmt.Sprintf("%d calls reached flowing but %d were closed", f, c))
	}
	if a, c, f := w.attempted.Load(), w.completed.Load(), w.failed.Load(); a != c+f {
		bad = append(bad, fmt.Sprintf("attempted %d != completed %d + failed %d", a, c, f))
	}
	if w.st != nil {
		if err := w.st.Sync(); err != nil {
			bad = append(bad, "store sync: "+err.Error())
		}
		// Every dialed call cuts one CDR at teardown, whether it flowed
		// or gave up; only with zero failures is that the completed count.
		if n, c := int64(w.st.CDRCount()), w.completed.Load(); w.failed.Load() == 0 && n != c {
			bad = append(bad, fmt.Sprintf("CDRCount %d != completed calls %d", n, c))
		}
		if n, i := uint64(w.st.CDRCount()), w.binder.Issued(); n != i {
			bad = append(bad, fmt.Sprintf("CDRCount %d != CDRs issued %d", n, i))
		}
	}
	return bad
}

// close stops every runner and releases the fabric and the store.
func (w *callsWorld) close() {
	if w.cluster != nil {
		w.cluster.Stop()
	} else {
		stopRunners(w.runners)
	}
	for i := len(w.closers) - 1; i >= 0; i-- {
		w.closers[i]()
	}
	if w.st != nil {
		_ = w.st.Close() // every CDR was synced in drain; a close error loses nothing
	}
	if w.dir != "" {
		_ = os.RemoveAll(w.dir) // scratch under the benchmark's own out directory
	}
}

// stopRunners stops standalone runners through a small worker pool;
// each Stop waits for its loop, so thousands in series would dominate
// the run.
func stopRunners(rs []*box.Runner) {
	work := make(chan *box.Runner)
	done := make(chan struct{})
	const workers = 16
	for i := 0; i < workers; i++ {
		go func() {
			for r := range work {
				r.Stop()
			}
			done <- struct{}{}
		}()
	}
	for _, r := range rs {
		work <- r
	}
	close(work)
	for i := 0; i < workers; i++ {
		<-done
	}
}
