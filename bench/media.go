package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"ipmedia/internal/media"
	"ipmedia/internal/sig"
	"ipmedia/internal/telemetry"
)

// mediaParams shapes the media workload.
type mediaParams struct {
	pairs        int           // flowing transmitter/receiver pairs
	burst        int           // mean datagrams per pair per round
	roundTimeout time.Duration // a round's unaccounted datagrams are lost after this
}

// mediaWorld is a UDP plane with its flowing pairs.
type mediaWorld struct {
	p     mediaParams
	plane *media.UDPPlane
	txs   []*media.Agent
	rxs   []*media.Agent
	mErr  *telemetry.Counter // media.decode_errors

	lost uint64 // datagrams written off by round timeouts
}

// buildMedia binds the sockets, wires the pairs and completes one
// one-datagram round, so the senders' connected sockets exist before
// the warm-up.
func buildMedia(p mediaParams, tr *tracer) (*mediaWorld, error) {
	factory, _ := media.NewFramingFactory("ts")
	w := &mediaWorld{p: p, plane: media.NewUDPPlane(), mErr: telemetry.C(media.MetricDecodeErrors)}
	w.plane.SetFraming(tr.wrapFraming(factory))
	ports, err := freeUDPPorts(2 * p.pairs)
	if err != nil {
		return nil, err
	}
	for i := 0; i < p.pairs; i++ {
		tx := w.plane.Agent(fmt.Sprintf("tx%d", i), media.AddrPort{Addr: "127.0.0.1", Port: ports[2*i]})
		rx := w.plane.Agent(fmt.Sprintf("rx%d", i), media.AddrPort{Addr: "127.0.0.1", Port: ports[2*i+1]})
		tx.SetSending(rx.Origin(), sig.G711)
		rx.SetExpecting(tx.Origin(), sig.G711, true)
		w.txs, w.rxs = append(w.txs, tx), append(w.rxs, rx)
	}
	if errs := w.plane.Errs(); len(errs) > 0 {
		w.plane.Close()
		return nil, fmt.Errorf("media setup: %w", errs[0])
	}
	if w.round(1, nil); w.lost > 0 {
		w.plane.Close()
		return nil, fmt.Errorf("media setup: first datagram never arrived")
	}
	return w, nil
}

// freeUDPPorts grabs n currently-free loopback UDP ports by binding
// them all at once, then releases them for the plane to re-bind.
func freeUDPPorts(n int) ([]int, error) {
	conns := make([]*net.UDPConn, 0, n)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, fmt.Errorf("probing free ports: %w", err)
		}
		conns = append(conns, c)
		ports = append(ports, c.LocalAddr().(*net.UDPAddr).Port)
	}
	return ports, nil
}

func (w *mediaWorld) sent() (n uint64) {
	for _, tx := range w.txs {
		n += tx.Stats().Sent
	}
	return n
}

// tally sums the receivers' dispositions. Every datagram a receiver
// got is in exactly one of them.
func (w *mediaWorld) tally() (accepted, clipped, unexpected, framing uint64) {
	for _, rx := range w.rxs {
		st := rx.Stats()
		accepted += st.Accepted
		clipped += st.Clipped
		unexpected += st.Unexpected
		framing += st.FramingErrors
	}
	return
}

func (w *mediaWorld) accounted() uint64 {
	a, c, u, f := w.tally()
	return a + c + u + f + w.mErr.Value()
}

// round transmits n datagrams per pair and waits until the receivers
// account for all of them or the round times out (the remainder is
// written off as lost, so one drop does not stall every later round).
// It returns the round's duration in ns: Tick call → last datagram
// accounted for.
func (w *mediaWorld) round(n int, tr *tracer) int64 {
	t0 := nowNS()
	if tr != nil {
		tr.firstCheck.Store(0)
	}
	w.plane.Tick(n)
	t1 := nowNS()
	target := w.sent() - w.lost
	deadline := t0 + int64(w.p.roundTimeout)
	for {
		got := w.accounted()
		if got >= target {
			break
		}
		if nowNS() > deadline {
			w.lost += target - got
			break
		}
		// Window-limited closed loop: nothing else to send until the
		// receivers catch up, so yield to them.
		runtime.Gosched()
	}
	t2 := nowNS()
	if tr != nil && tr.on.Load() {
		id := tr.nextCall.Add(1)
		d0 := tr.firstCheck.Load()
		if d0 < t1 {
			d0 = t1 // receivers that started while Tick was still sending
		}
		if d0 > t2 {
			d0 = t2
		}
		tr.record(id, spRound, 0, t0, t2)
		tr.record(id, spStage, 0, t0, t1)
		tr.record(id, spWire, 0, t1, d0)
		tr.record(id, spDemux, 0, d0, t2)
	}
	return t2 - t0
}

// settle waits briefly for datagrams written off by a timeout that
// arrive after all, and returns the final loss: sent minus accounted.
func (w *mediaWorld) settle() uint64 {
	sent := w.sent()
	for end := time.Now().Add(200 * time.Millisecond); w.accounted() < sent && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	if got := w.accounted(); got < sent {
		return sent - got
	}
	return 0
}

func (w *mediaWorld) close() { w.plane.Close() }
