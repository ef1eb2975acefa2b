package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ipmedia/internal/box"
	"ipmedia/internal/media"
	"ipmedia/internal/sig"
	"ipmedia/internal/transport"
)

// The traced pass. A tracer wraps the seams the runtime exposes — the
// network handed to the runners, the lifecycle observer, the media
// framing — and the client program stamps its own transitions, so
// every layer is measured at the port it presents to the layer above
// and nothing inside the program is touched. Spans and counts stay in
// memory; analysis and the trace file come after the window.
//
// Every method is safe on a nil *tracer (and a nil *callTrace), which
// is the untraced run: no decorator is installed at all.

type spanKind uint8

const (
	spCall spanKind = iota
	spSchedWait
	spSetup
	spHold
	spTeardown
	spHop    // transport.hop: Send → the matching receive (the paper's n)
	spBoxHop // box.hop: envelope received by a box → its next send (the paper's c)
	spDial
	spLookup
	spAppend
	spRound
	spStage
	spWire
	spDemux
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"call", "schedule-wait", "setup", "hold", "teardown",
	"transport.hop", "box.hop", "transport.dial", "store.lookup", "store.append_cdr",
	"round", "stage", "wire", "demux"}

// Box roles along a call's path; a span's role is the box that did
// the work (for a transport.hop, the box that received).
const (
	roleClient = iota
	roleRelay
	roleDevice
)

var roleNames = [...]string{"client", "relay", "device"}

// span is one recorded interval. It holds no pointer, so the span
// buffer costs the collector nothing to scan.
type span struct {
	call       uint32 // call id (or media round number)
	kind       spanKind
	role       uint8
	start, end int64 // benchmark clock, ns
}

const (
	spanCap   = 1 << 20 // spans kept per run; recording stops when full
	recEnvCap = 4096    // envelopes kept for the codec and pipe probes
	recEvCap  = 1 << 15 // relay wire events kept for the box/core/slot probes
)

type tracer struct {
	on atomic.Bool // recording; decorators pass through while false

	spans []span
	nSpan atomic.Int64

	nextCall atomic.Uint32

	mu      sync.Mutex
	pending map[legKey]*leg       // dialed legs whose accept end has not linked yet
	live    map[legKey]*callTrace // in-leg of every call in progress, for the relay's bridge

	envelopes atomic.Int64 // envelopes sent through traced ports while on
	signals   atomic.Int64 // of which tunnel signals
	calls     atomic.Int64 // calls that completed while on

	sendNS   *samples // Port.Send call time
	lookupNS *samples // Lifecycle.ChannelSetup (registry lookup) time
	appendNS *samples // Lifecycle.ChannelTeardown (CDR append) time
	lookups  atomic.Int64

	recMu   sync.Mutex
	recEnv  []sig.Envelope // envelopes as sent, for the sig and transport probes
	recEv   []relayEvent   // one relay's wire events in order, for the box/core/slot probes
	envFull atomic.Bool    // recEnv reached its cap: Send skips the lock

	// Media framing decorator totals (sampled one call in framingSample).
	muxNS, muxN     atomic.Int64
	demuxNS, demuxN atomic.Int64
	firstCheck      atomic.Int64 // first CheckPayload of the current round
}

func newTracer() *tracer {
	return &tracer{
		spans:    make([]span, spanCap),
		pending:  map[legKey]*leg{},
		live:     map[legKey]*callTrace{},
		sendNS:   newSamples(1 << 18),
		lookupNS: newSamples(1 << 17),
		appendNS: newSamples(1 << 17),
	}
}

// stop ends recording; ports already linked keep stamping so their
// FIFOs stay matched, but no new call is traced.
func (t *tracer) stop() {
	if t != nil {
		t.on.Store(false)
	}
}

func (t *tracer) record(call uint32, kind spanKind, role uint8, start, end int64) {
	i := t.nSpan.Add(1) - 1
	if int(i) < len(t.spans) {
		t.spans[i] = span{call: call, kind: kind, role: role, start: start, end: end}
	}
}

// recorded returns the spans kept so far.
func (t *tracer) recorded() []span {
	n := int(t.nSpan.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// ---------------------------------------------------------------------
// Calls: legs, call traces and the port decorator.

type legKey struct{ from, ch string }

// callTrace is the trace state of one call, shared by the ports of
// both its legs.
type callTrace struct {
	t        *tracer
	id       uint32
	key      legKey
	due      int64
	dial     int64
	flow     int64
	heldTo   int64
	lastRecv [3]atomic.Int64 // per role: when this call's last envelope reached the box
}

// leg is one signaling channel of a call: two ends, and per direction
// the FIFO of send stamps the receiving end matches against (channels
// are FIFO and reliable, so the n-th receive is the n-th send).
type leg struct {
	ct    *callTrace
	roles [2]uint8 // role of the dial end, role of the accept end
	q     [2]stampQueue
}

type stampQueue struct {
	mu   sync.Mutex
	ts   []int64
	head int
}

func (q *stampQueue) push(v int64) {
	q.mu.Lock()
	if q.head > 0 && q.head == len(q.ts) {
		q.ts, q.head = q.ts[:0], 0
	}
	q.ts = append(q.ts, v)
	q.mu.Unlock()
}

func (q *stampQueue) pop() (int64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.ts) {
		return 0, false
	}
	v := q.ts[q.head]
	q.head++
	return v, true
}

// beginCall opens the trace of the call c is about to dial.
func (t *tracer) beginCall(c *client) *callTrace {
	if t == nil || !t.on.Load() || c.parked {
		return nil
	}
	ct := &callTrace{t: t, id: t.nextCall.Add(1), key: legKey{c.name, callCh}, due: c.due, dial: c.dialAt}
	t.mu.Lock()
	t.pending[ct.key] = &leg{ct: ct, roles: [2]uint8{roleClient, roleRelay}}
	t.live[ct.key] = ct
	t.mu.Unlock()
	return ct
}

// spliceFor returns the relay hook's splice observer: when the relay
// splices an incoming call onward, the out-leg belongs to the same
// call as the in-leg the setup meta names.
func (t *tracer) spliceFor(relay string) func(setup *sig.Meta, in, out string) {
	if t == nil {
		return nil
	}
	return func(setup *sig.Meta, _, out string) {
		in := legKey{setup.Get("from"), setup.Get("chan")}
		t.mu.Lock()
		if ct := t.live[in]; ct != nil {
			t.pending[legKey{relay, out}] = &leg{ct: ct, roles: [2]uint8{roleRelay, roleDevice}}
		}
		t.mu.Unlock()
	}
}

// legFor resolves a setup meta to its pending leg; the accept end
// takes it off the table.
func (t *tracer) legFor(setup *sig.Meta, take bool) *leg {
	k := legKey{setup.Get("from"), setup.Get("chan")}
	t.mu.Lock()
	lg := t.pending[k]
	if take && lg != nil {
		delete(t.pending, k)
	}
	t.mu.Unlock()
	return lg
}

func (ct *callTrace) flowing(now int64) {
	if ct == nil {
		return
	}
	ct.flow = now
	// The last blocking step: the envelope that completed the slot's
	// path reached the client, and the program saw flowing.
	ct.t.record(ct.id, spBoxHop, roleClient, ct.lastRecv[roleClient].Load(), now)
}

func (ct *callTrace) holdEnd(now int64) {
	if ct != nil {
		ct.heldTo = now
	}
}

// end closes the client's side of the call and writes its phase
// spans. The call and teardown spans of a call that flowed run on to
// the instant its device sees the teardown, and are written there.
func (ct *callTrace) end(now int64) {
	if ct == nil {
		return
	}
	t := ct.t
	t.mu.Lock()
	delete(t.live, ct.key)
	delete(t.pending, ct.key) // a call that never reached its relay
	t.mu.Unlock()
	t.record(ct.id, spSchedWait, roleClient, ct.due, ct.dial)
	if ct.flow == 0 {
		t.record(ct.id, spCall, roleClient, ct.due, now)
		return
	}
	t.calls.Add(1)
	t.record(ct.id, spSetup, roleClient, ct.dial, ct.flow)
	t.record(ct.id, spHold, roleClient, ct.flow, ct.heldTo)
}

// wrapNet decorates a network so every port it hands out is traced.
func (t *tracer) wrapNet(n transport.Network) transport.Network {
	if t == nil {
		return n
	}
	return &tracedNet{t: t, inner: n}
}

type tracedNet struct {
	t     *tracer
	inner transport.Network
}

func (n *tracedNet) Dial(addr string) (transport.Port, error) {
	t0 := nowNS()
	p, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return n.t.wrapPort(p, 0, t0, nowNS()), nil
}

func (n *tracedNet) Listen(addr string) (transport.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tracedListener{Listener: l, t: n.t}, nil
}

type tracedListener struct {
	transport.Listener
	t *tracer
}

func (l *tracedListener) Accept() (transport.Port, error) {
	p, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.wrapPort(p, 1, 0, 0), nil
}

// tracedPort is the port decorator. It keeps the inner port's receive
// contract — a decorated ring port is still an InlinePort, a decorated
// queue port still a BatchPort — so the runner takes the delivery path
// it takes untraced.
type tracedPort struct {
	transport.Port
	t              *tracer
	end            uint8 // 0 dial end, 1 accept end
	dial0, dial1   int64 // dial end: when Dial was called and returned
	lg             atomic.Pointer[leg]
	tried          atomic.Bool // linking was attempted; an unlinked port stays a pass-through
	recvBatch      func(buf []sig.Envelope) (int, bool)
	inlineSetReady func(fn func())
}

type tracedInlinePort struct{ *tracedPort }

func (p tracedInlinePort) SetReady(fn func()) { p.inlineSetReady(fn) }
func (p tracedInlinePort) TryRecvBatch(buf []sig.Envelope) (int, bool) {
	n, ok := p.recvBatch(buf)
	p.received(buf[:n])
	return n, ok
}

type tracedBatchPort struct{ *tracedPort }

func (p tracedBatchPort) RecvBatch(buf []sig.Envelope) (int, bool) {
	n, ok := p.recvBatch(buf)
	p.received(buf[:n])
	return n, ok
}

func (t *tracer) wrapPort(p transport.Port, end uint8, dial0, dial1 int64) transport.Port {
	tp := &tracedPort{Port: p, t: t, end: end, dial0: dial0, dial1: dial1}
	switch ip := p.(type) {
	case transport.InlinePort:
		tp.recvBatch, tp.inlineSetReady = ip.TryRecvBatch, ip.SetReady
		return tracedInlinePort{tp}
	case transport.BatchPort:
		tp.recvBatch = ip.RecvBatch
		return tracedBatchPort{tp}
	}
	return tp
}

func (p *tracedPort) Send(e sig.Envelope) error {
	t := p.t
	lg := p.lg.Load()
	if lg == nil {
		if !t.on.Load() {
			return p.Port.Send(e)
		}
		// The dial end links on the first thing it sends, the setup meta
		// that names its box and channel.
		if p.end == 0 && !p.tried.Swap(true) && e.Meta != nil && e.Meta.Kind == sig.MetaSetup {
			if lg = t.legFor(e.Meta, false); lg != nil {
				p.lg.Store(lg)
				t.record(lg.ct.id, spDial, lg.roles[0], p.dial0, p.dial1)
			}
		}
	}
	now := nowNS()
	if t.on.Load() {
		t.envelopes.Add(1)
		if e.Meta == nil {
			t.signals.Add(1)
		}
		t.keepEnvelope(e)
	}
	if lg != nil {
		role := lg.roles[p.end]
		from := lg.ct.lastRecv[role].Load()
		if from == 0 {
			from = lg.ct.dial // the client's first sends follow its dial, not a receive
		}
		t.record(lg.ct.id, spBoxHop, role, from, now)
		lg.q[p.end].push(now)
	}
	err := p.Port.Send(e)
	if t.on.Load() {
		t.sendNS.add(nowNS() - now)
	}
	return err
}

// received stamps a burst the inner port just handed over.
func (p *tracedPort) received(es []sig.Envelope) {
	if len(es) == 0 {
		return
	}
	lg := p.lg.Load()
	if lg == nil {
		if p.end != 1 || p.tried.Load() {
			return
		}
		p.tried.Store(true)
		// The accept end links on the first thing it receives.
		if m := es[0].Meta; m == nil || m.Kind != sig.MetaSetup {
			return
		} else if lg = p.t.legFor(m, true); lg == nil {
			return
		}
		p.lg.Store(lg)
	}
	now := nowNS()
	role := lg.roles[p.end]
	for i := range es {
		if sent, ok := lg.q[1-p.end].pop(); ok {
			p.t.record(lg.ct.id, spHop, role, sent, now)
		}
		if role == roleDevice && es[i].Meta != nil && es[i].Meta.Kind == sig.MetaTeardown {
			// heldTo was written before the teardown was sent; the stamp
			// queue's lock orders that write before this read.
			p.t.record(lg.ct.id, spTeardown, roleDevice, lg.ct.heldTo, now)
			p.t.record(lg.ct.id, spCall, roleDevice, lg.ct.due, now)
		}
	}
	lg.ct.lastRecv[role].Store(now)
}

// keepEnvelope retains a copy of e for the probes. Meta frames on the
// decode path are pooled and die at the end of dispatch, so the meta is
// copied; signal payloads are immutable values.
func (t *tracer) keepEnvelope(e sig.Envelope) {
	if t.envFull.Load() {
		return
	}
	t.recMu.Lock()
	if len(t.recEnv) < recEnvCap {
		t.recEnv = append(t.recEnv, cloneEnvelope(e))
	} else {
		t.envFull.Store(true)
	}
	t.recMu.Unlock()
}

func cloneEnvelope(e sig.Envelope) sig.Envelope {
	if e.Meta != nil {
		e.Meta = &sig.Meta{Kind: e.Meta.Kind, App: e.Meta.App, Attrs: append([]sig.Attr(nil), e.Meta.Attrs...)}
	}
	return e
}

// relayEvent is one entry of a relay's recorded wire log: an envelope
// it received or sent on a channel, or the hook's in→out splice.
type relayEvent struct {
	dir     uint8 // 0 recv, 1 send
	channel string
	env     sig.Envelope
}

// watchRelay records r's wire events through the runner's own trace
// seam, for replay through the pure box, goal and slot engines.
func (t *tracer) watchRelay(r *box.Runner) {
	if t == nil {
		return
	}
	r.SetTrace(func(ev box.WireEvent) {
		if !t.on.Load() {
			return
		}
		t.recMu.Lock()
		if len(t.recEv) < recEvCap {
			re := relayEvent{channel: ev.Channel, env: cloneEnvelope(ev.Env)}
			if ev.Dir == "send" {
				re.dir = 1
			}
			t.recEv = append(t.recEv, re)
		}
		t.recMu.Unlock()
	})
}

// ---------------------------------------------------------------------
// Store: the lifecycle decorator.

func (t *tracer) wrapLifecycle(c *client, inner box.Lifecycle) box.Lifecycle {
	if t == nil {
		return inner
	}
	return &tracedLifecycle{t: t, c: c, inner: inner}
}

type tracedLifecycle struct {
	t     *tracer
	c     *client
	inner box.Lifecycle
	ct    *callTrace // the call whose setup was observed, until its teardown
}

func (l *tracedLifecycle) ChannelSetup(local, peer, channel string) {
	if !l.t.on.Load() {
		l.inner.ChannelSetup(local, peer, channel)
		return
	}
	t0 := nowNS()
	l.inner.ChannelSetup(local, peer, channel)
	t1 := nowNS()
	l.t.lookups.Add(1)
	l.t.lookupNS.add(t1 - t0)
	if l.ct = l.c.ct; l.ct != nil {
		l.t.record(l.ct.id, spLookup, roleClient, t0, t1)
	}
}

func (l *tracedLifecycle) ChannelTeardown(local, peer, channel string, setupAt time.Time) {
	if !l.t.on.Load() {
		l.inner.ChannelTeardown(local, peer, channel, setupAt)
		return
	}
	t0 := nowNS()
	l.inner.ChannelTeardown(local, peer, channel, setupAt)
	t1 := nowNS()
	l.t.appendNS.add(t1 - t0)
	if l.ct != nil {
		l.t.record(l.ct.id, spAppend, roleClient, t0, t1)
		l.ct = nil
	}
}

// ---------------------------------------------------------------------
// Media: the framing decorator.

// framingSample is how often the framing decorator reads the clock:
// one call in eight, so a ~400 ns burst is not timed by ~100 ns of
// clock reads on every packet.
const framingSample = 8

type tracedFraming struct {
	media.Framing
	t   *tracer
	nTx uint32 // AppendPayload runs only on the agent's transmit path
	nRx uint32 // CheckPayload only on its delivery path
}

func (t *tracer) wrapFraming(f media.FramingFactory) media.FramingFactory {
	if t == nil {
		return f
	}
	return func() media.Framing { return &tracedFraming{Framing: f(), t: t} }
}

func (f *tracedFraming) AppendPayload(dst []byte, seq uint64) []byte {
	f.nTx++
	if f.nTx%framingSample != 0 || !f.t.on.Load() {
		return f.Framing.AppendPayload(dst, seq)
	}
	t0 := nowNS()
	dst = f.Framing.AppendPayload(dst, seq)
	f.t.muxNS.Add(nowNS() - t0)
	f.t.muxN.Add(1)
	return dst
}

func (f *tracedFraming) CheckPayload(seq uint64, payload []byte) error {
	f.nRx++
	first := f.t.firstCheck.Load() == 0
	if (f.nRx%framingSample != 0 && !first) || !f.t.on.Load() {
		return f.Framing.CheckPayload(seq, payload)
	}
	t0 := nowNS()
	if first {
		f.t.firstCheck.CompareAndSwap(0, t0)
	}
	err := f.Framing.CheckPayload(seq, payload)
	f.t.demuxNS.Add(nowNS() - t0)
	f.t.demuxN.Add(1)
	return err
}

// ---------------------------------------------------------------------
// Analysis.

// kindStats summarises the spans of one kind.
type kindStats struct {
	Count   int     `json:"count"`
	P50US   float64 `json:"p50_us"`
	TotalUS float64 `json:"total_us"`
}

func (t *tracer) statsByKind() [numSpanKinds]kindStats {
	var durs [numSpanKinds][]float64
	for _, s := range t.recorded() {
		durs[s.kind] = append(durs[s.kind], float64(s.end-s.start)/1e3)
	}
	var out [numSpanKinds]kindStats
	for k := range durs {
		sort.Float64s(durs[k])
		out[k].Count = len(durs[k])
		out[k].P50US = quantile(durs[k], 0.5)
		for _, d := range durs[k] {
			out[k].TotalUS += d
		}
	}
	return out
}

// callSpans groups the recorded spans by call id.
func (t *tracer) callSpans() map[uint32][]span {
	m := map[uint32][]span{}
	for _, s := range t.recorded() {
		m[s.call] = append(m[s.call], s)
	}
	return m
}

// blockingChain walks a call's setup backwards from the instant the
// client saw flowing: the box.hop that ended there, the transport.hop
// that delivered the envelope it waited for, the box.hop at the sender
// that produced it, and so on back to the dial. Send and receive
// instants are stamped once and shared by the spans on either side, so
// the chain is matched by equality and tiles the setup without gaps.
func blockingChain(spans []span) (setup span, chain []span, ok bool) {
	for _, s := range spans {
		if s.kind == spSetup {
			setup, ok = s, true
		}
	}
	if !ok {
		return setup, nil, false
	}
	find := func(kind spanKind, role uint8, end int64) (span, bool) {
		var best span
		found := false
		for _, s := range spans {
			if s.kind == kind && s.role == role && s.end == end && (!found || s.start > best.start) {
				best, found = s, true
			}
		}
		return best, found
	}
	// Which role sent the envelope a hop delivered: the neighbour whose
	// box.hop ends at the hop's start.
	cur, found := find(spBoxHop, roleClient, setup.end)
	for found {
		chain = append(chain, cur)
		if cur.start <= setup.start || len(chain) > 64 {
			break
		}
		hop, okHop := find(spHop, cur.role, cur.start)
		if !okHop {
			break
		}
		chain = append(chain, hop)
		found = false
		for _, r := range []uint8{roleClient, roleRelay, roleDevice} {
			if r == cur.role {
				continue
			}
			if cur, found = find(spBoxHop, r, hop.start); found {
				break
			}
		}
	}
	return setup, chain, true
}

// medianCallTiling finds the call with the median setup span and
// reports how much of that span its blocking chain covers.
func (t *tracer) medianCallTiling(byCall map[uint32][]span) (id uint32, ratio float64) {
	type cs struct {
		id  uint32
		dur int64
	}
	var setups []cs
	for _, s := range t.recorded() {
		if s.kind == spSetup {
			setups = append(setups, cs{s.call, s.end - s.start})
		}
	}
	if len(setups) == 0 {
		return 0, 0
	}
	sort.Slice(setups, func(i, j int) bool { return setups[i].dur < setups[j].dur })
	id = setups[len(setups)/2].id
	setup, chain, ok := blockingChain(byCall[id])
	if !ok || setup.end == setup.start {
		return id, 0
	}
	var sum int64
	for _, s := range chain {
		sum += s.end - s.start
	}
	return id, float64(sum) / float64(setup.end-setup.start)
}
