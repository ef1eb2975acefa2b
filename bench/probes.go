package main

import (
	"runtime"
	"sort"
	"time"

	"ipmedia/internal/box"
	"ipmedia/internal/core"
	"ipmedia/internal/media"
	"ipmedia/internal/sig"
	"ipmedia/internal/slot"
	"ipmedia/internal/telemetry"
	"ipmedia/internal/timerwheel"
	"ipmedia/internal/transport"
)

// Layer probes. Each drives one layer alone, through its public
// functions, with the inputs the traced pass recorded: the envelopes
// the ports carried, the wire events one relay saw. A probe runs only
// for a layer that is on the workload's path; the others stay 0.

// perIter runs f reps times over n iterations and returns the median
// ns per iteration. Three repetitions and a median: the sandbox stalls
// for milliseconds at a time, and one stall should not set the reading.
func perIter(reps, n int, f func()) float64 {
	if n == 0 {
		return 0
	}
	v := make([]float64, reps)
	for i := range v {
		t0 := time.Now()
		f()
		v[i] = float64(time.Since(t0)) / float64(n)
	}
	return median(v)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (r *run) probes() {
	tr := r.tr
	probeTelemetry(r)
	probeTimerWheel(r)
	if r.spec.media != nil {
		probeMediaPlane(r)
		return
	}
	tr.recMu.Lock()
	envs, evs := tr.recEnv, tr.recEv
	tr.recMu.Unlock()
	probeRelayEngines(r, evs)
	if len(envs) == 0 {
		return
	}
	if r.spec.calls.mux {
		probeCodec(r, envs)
		probeMuxStack(r, envs)
	} else {
		probeRing(r, envs)
	}
}

func probeTelemetry(r *run) {
	reg := telemetry.NewRegistry()
	c, h := reg.Counter("probe.c"), reg.Histogram("probe.h")
	const n = 1 << 20
	r.set("telemetry.counter_inc_ns", perIter(3, n, func() {
		for i := 0; i < n; i++ {
			c.Inc()
		}
	}))
	r.set("telemetry.hist_observe_ns", perIter(3, n, func() {
		for i := 0; i < n; i++ {
			h.Observe(time.Duration(i&0xffff) * time.Microsecond)
		}
	}))
}

// probeTimerWheel measures a wheel loaded with as many pending timers
// as the workload held at the end of its window.
func probeTimerWheel(r *run) {
	w := timerwheel.NewNamed(timerwheel.DefaultTick, "probe")
	defer w.Close()
	nop := func() {}
	for i := int64(0); i < r.pendingTimer; i++ {
		w.Schedule(time.Hour+time.Duration(i)*time.Millisecond, nop)
	}
	const n = 1 << 14
	timers := make([]*timerwheel.Timer, n)
	r.set("timerwheel.schedule_ns", perIter(3, n, func() {
		for i := range timers {
			timers[i] = w.Schedule(time.Second+time.Duration(i&1023)*time.Millisecond, nop)
		}
	}))
	// Only the last repetition's timers are still addressed; time their
	// cancellation alone.
	t0 := time.Now()
	for _, t := range timers {
		t.Stop()
	}
	r.set("timerwheel.stop_ns", float64(time.Since(t0))/n)

	const fires = 64
	lag := newSamples(fires)
	done := make(chan struct{}, fires) // one slot per timer: a fire never blocks the wheel
	for i := 0; i < fires; i++ {
		d := 10*time.Millisecond + time.Duration(i)*time.Millisecond/2
		due := time.Now().Add(d)
		w.Schedule(d, func() {
			lag.add(int64(time.Since(due)))
			done <- struct{}{}
		})
	}
	for i := 0; i < fires; i++ {
		<-done
	}
	r.set("timerwheel.fire_lag_us_p50", lag.pct(0.5)/1e3)
}

// probeRelayEngines replays one relay's recorded wire events through
// the pure engines: the whole box core (Handle+Recycle), the goal
// objects fed the same events (flowLink over two fresh slots per
// call), and the slot FSM alone.
func probeRelayEngines(r *run, evs []relayEvent) {
	var recvs []relayEvent
	for _, e := range evs {
		if e.dir == 0 {
			recvs = append(recvs, e)
		}
	}
	if len(recvs) == 0 {
		return
	}

	// Box: a fresh relay with the same hook. Its out-leg names come off
	// the same deterministic free list, so the recorded device-side
	// events land on the channels the replayed hook dials.
	type splice struct{ in, out string }
	var splices []splice
	replayBox := func(record bool) {
		b := box.New("relay-probe", core.ServerProfile{Name: "relay-probe"})
		b.Hook = relayHook([]string{"dev-probe"}, 0, func(_ *sig.Meta, in, out string) {
			if record {
				splices = append(splices, splice{in, out})
			}
		})
		for _, e := range recvs {
			if e.env.Meta != nil && e.env.Meta.Kind == sig.MetaSetup && !b.HasChannel(e.channel) {
				b.AddChannel(e.channel, false) // what the runner does on accept
			}
			// Errors are signals of calls already in flight when recording
			// began, whose channels this box never had; the core drops them.
			outs, _ := b.Handle(box.Event{Kind: box.EvEnvelope, Channel: e.channel, Env: e.env})
			b.Recycle(outs)
		}
	}
	replayBox(true)
	m0 := mallocs()
	r.set("box.handle_ns_per_event", perIter(3, len(recvs), func() { replayBox(false) }))
	r.set("box.allocs_per_event", float64(mallocs()-m0)/float64(3*len(recvs)))

	// Core: per spliced call a flowLink over two fresh slots, fed the
	// recorded signals (Receive classifies, OnEvent decides and sends).
	replayCore := func() {
		ss := probeSlots{}
		goals := map[string]core.Goal{}
		next := 0
		for _, e := range recvs {
			if m := e.env.Meta; m != nil {
				if m.Kind == sig.MetaSetup && next < len(splices) && splices[next].in == e.channel {
					in, out := box.TunnelSlot(splices[next].in, 0), box.TunnelSlot(splices[next].out, 0)
					next++
					ss[in], ss[out] = slot.New(in, false), slot.New(out, true)
					g := core.NewFlowLink(in, out)
					goals[in], goals[out] = g, g
					_, _ = g.Attach(ss) // two closed slots: nothing to emit
				}
				continue
			}
			name := box.TunnelSlot(e.channel, e.env.Tunnel)
			s, g := ss[name], goals[name]
			if s == nil {
				continue
			}
			ev, err := s.Receive(e.env.Sig)
			if err != nil {
				continue
			}
			_, _ = g.OnEvent(ss, name, ev, e.env.Sig) // a protocol error here is the recording's, not the probe's
		}
	}
	nSig := 0
	for _, e := range recvs {
		if e.env.Meta == nil {
			nSig++
		}
	}
	r.set("core.goal_ns_per_event", perIter(3, nSig, replayCore))

	// Slot: every recorded signal, received or sent, through the FSM of
	// its own slot; an open starts a fresh slot.
	type op struct {
		s    *slot.Slot
		g    sig.Signal
		send bool
	}
	build := func() []op {
		slots := map[string]*slot.Slot{}
		var ops []op
		for _, e := range evs {
			if e.env.Meta != nil {
				continue
			}
			name := box.TunnelSlot(e.channel, e.env.Tunnel)
			if e.env.Sig.Kind == sig.KindOpen || slots[name] == nil {
				// The relay initiated its out-legs; an open it sends or
				// receives always starts a call on a closed slot.
				slots[name] = slot.New(name, len(e.channel) > 1 && e.channel[:2] == "o-")
			}
			ops = append(ops, op{slots[name], e.env.Sig, e.dir == 1})
		}
		return ops
	}
	reps := make([][]op, 3)
	for i := range reps {
		reps[i] = build() // fresh slots per repetition, built outside the timing
	}
	i := 0
	r.set("slot.ns_per_signal", perIter(len(reps), len(reps[0]), func() {
		for _, o := range reps[i] {
			if o.send {
				_ = o.s.Send(o.g) // an illegal transition is a mid-call recording start; the FSM's cost is the same
			} else {
				_, _ = o.s.Receive(o.g)
			}
		}
		i++
	}))
}

// probeSlots is the core.Slots the goal probe hands its flowLinks.
type probeSlots map[string]*slot.Slot

func (p probeSlots) Slot(name string) *slot.Slot { return p[name] }

// probeCodec replays the recorded envelopes through the wire codec.
func probeCodec(r *run, envs []sig.Envelope) {
	bufs := make([][]byte, len(envs))
	var buf []byte
	encode := func() {
		for i, e := range envs {
			b, err := e.AppendBinary(buf[:0])
			if err != nil {
				continue
			}
			buf = b
			if bufs[i] == nil {
				bufs[i] = append([]byte(nil), b...)
			}
		}
	}
	decode := func() {
		for _, b := range bufs {
			if e, err := sig.UnmarshalEnvelope(b); err == nil {
				e.Release()
			}
		}
	}
	encode() // fills bufs and sizes buf
	decode() // warms the intern table, as the workload's own traffic has
	const rounds = 16
	m0 := mallocs()
	r.set("sig.encode_ns_per_env", perIter(3, rounds*len(envs), func() {
		for i := 0; i < rounds; i++ {
			encode()
		}
	}))
	r.set("sig.decode_ns_per_env", perIter(3, rounds*len(envs), func() {
		for i := 0; i < rounds; i++ {
			decode()
		}
	}))
	r.set("sig.allocs_per_env", float64(mallocs()-m0)/float64(3*rounds*len(envs)))
}

// probeRing sends the recorded envelopes through one SPSC ring pipe,
// drained inline the way a shard loop drains it.
func probeRing(r *run, envs []sig.Envelope) {
	a, b := transport.RingPipe("probe-a", "probe-b")
	defer a.Close()
	in := b.(transport.InlinePort)
	in.SetReady(func() {})
	var buf [16]sig.Envelope
	const rounds = 16
	r.set("transport.ring_pipe_ns", perIter(3, rounds*len(envs), func() {
		for k := 0; k < rounds; k++ {
			for i, e := range envs {
				_ = a.Send(e) // the pipe is open for the whole probe
				if i&15 == 15 {
					in.TryRecvBatch(buf[:])
				}
			}
			for {
				if n, _ := in.TryRecvBatch(buf[:]); n == 0 {
					break
				}
			}
		}
	}))
}

// probeMuxStack measures the layers under the calls-mux workload one
// at a time, each fed the recorded envelopes: the in-memory queue
// pipe, a TCP loopback round trip, the reliable layer's Send and the
// mux's Send (encode into a carrier envelope), the last two over an
// in-memory wire so only the layer itself is timed.
func probeMuxStack(r *run, envs []sig.Envelope) {
	const rounds = 4
	n := rounds * len(envs)

	a, b := transport.Pipe("probe-a", "probe-b")
	bb := b.(transport.BatchPort)
	var buf [16]sig.Envelope
	r.set("transport.mem_pipe_ns", perIter(3, n, func() {
		for k := 0; k < rounds; k++ {
			sent := 0
			for _, e := range envs {
				_ = a.Send(e) // the pipe is open for the whole probe
				if sent++; sent == len(buf) {
					bb.RecvBatch(buf[:]) // exactly len(buf) queued: never blocks
					sent = 0
				}
			}
			if sent > 0 {
				bb.RecvBatch(buf[:sent])
			}
		}
	}))
	a.Close()

	// drain consumes everything a port receives until it closes.
	drain := func(p transport.Port, done chan<- struct{}) {
		bp, sink := p.(transport.BatchPort), make([]sig.Envelope, 64)
		for {
			k, ok := bp.RecvBatch(sink)
			for i := 0; i < k; i++ {
				sink[i].Release()
			}
			if !ok {
				close(done)
				return
			}
		}
	}
	// sendProbe dials, drains the accepted end, and times Send on the
	// dialed end.
	sendProbe := func(metric string, dial func() (transport.Port, error), l transport.Listener) {
		defer l.Close()
		accepted := make(chan transport.Port, 1)
		go func() {
			p, err := l.Accept()
			if err != nil {
				close(accepted)
				return
			}
			accepted <- p
		}()
		p, err := dial()
		if err != nil {
			return
		}
		done := make(chan struct{})
		var far transport.Port
		// The far end appears once the first envelope has crossed (the
		// mux opens channels lazily; the reliable layer after its hello).
		_ = p.Send(envs[0])
		select {
		case far = <-accepted:
		case <-time.After(2 * time.Second):
		}
		if far == nil {
			p.Close()
			return
		}
		go drain(far, done)
		r.set(metric, perIter(3, n, func() {
			for k := 0; k < rounds; k++ {
				for _, e := range envs {
					_ = p.Send(e) // a failed send would show as a stalled drain below
				}
			}
		}))
		p.Close()
		far.Close()
		<-done
	}

	rel := transport.NewRelNetwork(transport.NewMemNetwork(), transport.RelConfig{Seed: 1})
	if l, err := rel.Listen("probe-rel"); err == nil {
		sendProbe("transport.rel_send_ns", func() (transport.Port, error) { return rel.Dial("probe-rel") }, l)
	}

	mem := transport.NewMemNetwork()
	muxA, muxB := transport.NewMux(mem), transport.NewMux(mem)
	if carrier, err := muxB.ListenCarrier("probe-carrier"); err == nil {
		if l, err := muxB.Listen("probe-mux"); err == nil {
			sendProbe("transport.mux_send_ns", func() (transport.Port, error) { return muxA.Dial(carrier, "probe-mux") }, l)
		}
	}
	muxA.Close()
	muxB.Close()

	// TCP: one envelope out, the same envelope back, p50 of the round trips.
	var tcp transport.TCPNetwork
	l, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		return
	}
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		p, err := l.Accept()
		if err != nil {
			return
		}
		defer p.Close()
		bp, in := p.(transport.BatchPort), make([]sig.Envelope, 16)
		for {
			k, ok := bp.RecvBatch(in)
			for i := 0; i < k; i++ {
				if p.Send(in[i]) != nil {
					return
				}
			}
			if !ok {
				return
			}
		}
	}()
	if c, err := tcp.Dial(l.Addr()); err == nil {
		cb, in := c.(transport.BatchPort), make([]sig.Envelope, 1)
		rtts := make([]float64, 0, 512)
		for i := 0; i < cap(rtts); i++ {
			t0 := time.Now()
			if c.Send(envs[i%len(envs)]) != nil {
				break
			}
			if _, ok := cb.RecvBatch(in); !ok {
				break
			}
			rtts = append(rtts, float64(time.Since(t0))/1e3)
			in[0].Release()
		}
		sort.Float64s(rtts)
		r.set("transport.tcp_rtt_us", quantile(rtts, 0.5))
		c.Close()
	}
	l.Close()
	<-echoDone
}

// probeMediaPlane measures the in-memory plane's per-packet cost with
// no carrier under it: header-only packets (stage, classify, deliver)
// and full TS bursts (the same plus mux and demux).
func probeMediaPlane(r *run) {
	tick := func(framing string) float64 {
		p := media.NewPlane()
		if f, _ := media.NewFramingFactory(framing); f != nil {
			p.SetFraming(f)
		}
		tx := p.Agent("probe-tx", media.AddrPort{Addr: "probe", Port: 1})
		rx := p.Agent("probe-rx", media.AddrPort{Addr: "probe", Port: 2})
		tx.SetSending(rx.Origin(), sig.G711)
		rx.SetExpecting(tx.Origin(), sig.G711, true)
		const n = 1 << 16
		p.Tick(64)
		return perIter(3, n, func() { p.Tick(n) })
	}
	r.set("media.stage_ns_per_pkt", tick("none"))
	r.set("media.deliver_ns_per_pkt", tick("ts"))
}
