// Fault injection for signaling transports: a Network wrapper that
// drops, delays, duplicates, and reorders envelopes, and severs live
// links on demand — an adversarial network in a box, in the spirit
// of chaos-style resilience testing. Everything is driven by a
// deterministic seeded PRNG, so a failing chaos run replays exactly
// from its seed.
//
// Faults are injected on the send side of every port the network
// creates (both the dialing and the accepting end), below whatever
// reliability layer is stacked on top: a dropped envelope is "sent"
// as far as the caller can tell, exactly like a datagram lost by a
// real network, and a severed link looks like a TCP reset.
package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ipmedia/internal/sig"
	"ipmedia/internal/telemetry"
	"ipmedia/internal/timerwheel"
)

// FaultProfile configures a FaultNetwork. Rates are probabilities in
// [0,1], evaluated independently per envelope in the order drop,
// duplicate, delay, reorder. The zero profile injects nothing.
type FaultProfile struct {
	Seed int64 // PRNG seed; runs with the same seed replay

	DropRate    float64       // lose the envelope entirely
	DupRate     float64       // deliver the envelope twice
	DelayRate   float64       // hold the envelope for a random delay
	DelayMin    time.Duration // delay bounds (default 1ms..20ms)
	DelayMax    time.Duration
	ReorderRate float64 // hold the envelope until one more is sent

	// PartitionFor makes Dial fail for that long after each Sever,
	// forcing reconnect backoff to actually back off.
	PartitionFor time.Duration
}

func (p FaultProfile) withDefaults() FaultProfile {
	if p.DelayMin <= 0 {
		p.DelayMin = time.Millisecond
	}
	if p.DelayMax < p.DelayMin {
		p.DelayMax = 20 * time.Millisecond
	}
	return p
}

// FaultNetwork wraps a Network and injects the configured faults into
// every channel established through it.
type FaultNetwork struct {
	under Network
	prof  FaultProfile
	wheel *timerwheel.Wheel

	mu        sync.Mutex
	ports     map[*faultPort]struct{}
	nextSeed  int64
	downUntil time.Time

	faults *telemetry.Counter
}

// NewFaultNetwork wraps under with fault injection per prof. Delay
// and reorder timers run on the shared process timer wheel.
func NewFaultNetwork(under Network, prof FaultProfile) *FaultNetwork {
	return &FaultNetwork{
		under:  under,
		prof:   prof.withDefaults(),
		wheel:  procWheel(),
		ports:  map[*faultPort]struct{}{},
		faults: telemetry.C(MetricFaultsInjected),
	}
}

// Sever cuts every live link established through this network, as a
// partition or mass TCP reset would: readers see EOF, senders a closed
// port. If PartitionFor is set it then refuses new dials for that long.
func (n *FaultNetwork) Sever() {
	n.mu.Lock()
	cut := make([]*faultPort, 0, len(n.ports))
	for p := range n.ports {
		cut = append(cut, p)
	}
	n.ports = map[*faultPort]struct{}{}
	if n.prof.PartitionFor > 0 {
		n.downUntil = time.Now().Add(n.prof.PartitionFor)
	}
	n.mu.Unlock()
	for _, p := range cut {
		n.faults.Inc()
		p.Port.Close() // sever the underlying link; the wrapper stays inert
	}
}

func (n *FaultNetwork) wrap(p Port) (Port, error) {
	in, err := batchOf(p, "fault injection")
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	seed := n.prof.Seed + n.nextSeed
	n.nextSeed++
	fp := &faultPort{
		Port:      p,
		BatchPort: in,
		net:       n,
		rng:       rand.New(rand.NewSource(seed)),
		prof:      n.prof,
		wheel:     n.wheel,
	}
	n.ports[fp] = struct{}{}
	n.mu.Unlock()
	if ip, ok := p.(InlinePort); ok {
		return faultInlinePort{fp, ip}, nil
	}
	return fp, nil
}

func (n *FaultNetwork) drop(fp *faultPort) {
	n.mu.Lock()
	delete(n.ports, fp)
	n.mu.Unlock()
}

// Dial implements Network. During a partition window it fails, like a
// dial into a black-holed route.
func (n *FaultNetwork) Dial(addr string) (Port, error) {
	n.mu.Lock()
	down := time.Now().Before(n.downUntil)
	n.mu.Unlock()
	if down {
		return nil, fmt.Errorf("transport: fault partition: %q unreachable", addr)
	}
	p, err := n.under.Dial(addr)
	if err != nil {
		return nil, err
	}
	return n.wrap(p)
}

// Listen implements Network.
func (n *FaultNetwork) Listen(addr string) (Listener, error) {
	l, err := n.under.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &faultListener{Listener: l, net: n}, nil
}

type faultListener struct {
	Listener
	net *FaultNetwork
}

func (l *faultListener) Accept() (Port, error) {
	p, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.net.wrap(p)
}

// faultPort injects send-side faults, delegating everything else —
// receiving included — to the wrapped port. Over a port with both
// receive contracts (TCP, rel, mux) it is handed out as a
// faultInlinePort, so it keeps the readiness edge too.
type faultPort struct {
	Port
	BatchPort // the wrapped port's receive side
	net       *FaultNetwork
	prof      FaultProfile
	wheel     *timerwheel.Wheel

	mu   sync.Mutex
	rng  *rand.Rand
	held *sig.Envelope // reorder hold: sent after the next envelope
}

func (p *faultPort) Close() error {
	p.net.drop(p)
	return p.Port.Close()
}

func (p *faultPort) Send(e sig.Envelope) error {
	p.mu.Lock()
	prof := &p.prof
	if prof.DropRate > 0 && p.rng.Float64() < prof.DropRate {
		p.mu.Unlock()
		p.net.faults.Inc()
		return nil // lost in transit; the sender cannot tell
	}
	dup := prof.DupRate > 0 && p.rng.Float64() < prof.DupRate
	if prof.DelayRate > 0 && p.rng.Float64() < prof.DelayRate {
		d := prof.DelayMin + time.Duration(p.rng.Int63n(int64(prof.DelayMax-prof.DelayMin)+1))
		p.mu.Unlock()
		p.net.faults.Inc()
		p.wheel.Schedule(d, func() {
			p.Port.Send(e) // the link may have died meanwhile; that's the fault's problem
			if dup {
				p.Port.Send(e)
			}
		})
		return nil
	}
	var flush *sig.Envelope
	if p.held != nil {
		// A held envelope goes out right after this one: the pair is
		// swapped on the wire.
		flush, p.held = p.held, nil
	} else if prof.ReorderRate > 0 && p.rng.Float64() < prof.ReorderRate {
		p.held = &e
		p.mu.Unlock()
		p.net.faults.Inc()
		// Do not hold forever on an idling channel: flush after a beat
		// if nothing overtakes it.
		p.wheel.Schedule(10*time.Millisecond, func() { p.flushHeld() })
		return nil
	}
	p.mu.Unlock()
	if dup {
		p.net.faults.Inc()
	}
	err := p.Port.Send(e)
	if dup {
		p.Port.Send(e)
	}
	if flush != nil {
		p.Port.Send(*flush)
	}
	return err
}

func (p *faultPort) flushHeld() {
	p.mu.Lock()
	held := p.held
	p.held = nil
	p.mu.Unlock()
	if held != nil {
		p.Port.Send(*held)
	}
}

// faultInlinePort is a faultPort over a port that is an InlinePort as
// well as a BatchPort: it hands the readiness edge on, so a runner
// drains it on its loop as it would the wrapped port.
type faultInlinePort struct {
	*faultPort
	in InlinePort
}

// SetReady implements InlinePort.
func (p faultInlinePort) SetReady(fn func()) { p.in.SetReady(fn) }

// TryRecvBatch implements InlinePort.
func (p faultInlinePort) TryRecvBatch(buf []sig.Envelope) (int, bool) {
	return p.in.TryRecvBatch(buf)
}
