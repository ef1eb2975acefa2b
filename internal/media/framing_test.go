package media

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ipmedia/internal/sig"
	"ipmedia/internal/telemetry"
	"ipmedia/internal/ts"
)

func TestFramingFactoryNames(t *testing.T) {
	for name, want := range map[string]string{"ts": "ts", "opaque": "opaque"} {
		fac, ok := NewFramingFactory(name)
		if !ok || fac == nil {
			t.Fatalf("factory %q not resolved", name)
		}
		f := fac()
		if f.Name() != want {
			t.Errorf("factory %q built framing %q", name, f.Name())
		}
		if f.PayloadSize() != TSPayloadSize {
			t.Errorf("%q payload size %d, want %d", name, f.PayloadSize(), TSPayloadSize)
		}
	}
	for _, name := range []string{"none", ""} {
		if fac, ok := NewFramingFactory(name); !ok || fac != nil {
			t.Errorf("%q: want nil factory, ok", name)
		}
	}
	if _, ok := NewFramingFactory("mpeg99"); ok {
		t.Error("unknown framing name resolved")
	}
}

// TestTSFramingMemPlane streams real TS bursts between two agents on
// the in-memory plane: every payload demuxes cleanly (continuity, PSI
// CRC, PES headers, embedded sequence numbers) across several PAT/PMT
// refresh periods, and the ts.* telemetry shows a clean wire.
func TestTSFramingMemPlane(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)

	p := NewPlane()
	p.SetFraming(func() Framing { return NewTSFraming() })
	aAddr := AddrPort{Addr: "a", Port: 1}
	bAddr := AddrPort{Addr: "b", Port: 2}
	a := p.Agent("A", aAddr)
	b := p.Agent("B", bAddr)
	a.SetSending(bAddr, sig.G711)
	b.SetExpecting(aAddr, sig.G711, true)

	const n = 200 // spans three PSI refreshes (seq 1, 65, 129, 193)
	p.Tick(n)

	bs := b.Stats()
	if bs.Accepted != n || bs.FramingErrors != 0 {
		t.Fatalf("accepted %d framing errors %d, want %d/0", bs.Accepted, bs.FramingErrors, n)
	}
	f := b.Framing().(*TSFraming)
	ds := f.DemuxStats()
	if ds.Errors() != 0 {
		t.Fatalf("clean wire shows demux errors: %+v", ds)
	}
	// 4 PSI datagrams × (PAT+PMT).
	if ds.PSISections != 8 {
		t.Errorf("PSI sections %d, want 8", ds.PSISections)
	}
	if got := reg.Counter(MetricTSPackets).Value(); got != uint64(ds.Packets) {
		t.Errorf("ts.packets counter %d, demux saw %d", got, ds.Packets)
	}
	if got := reg.Counter(MetricTSCRCErrors).Value(); got != 0 {
		t.Errorf("ts.crc_errors %d on a clean wire", got)
	}
	if got := reg.Counter(MetricTSCCDiscontinuities).Value(); got != 0 {
		t.Errorf("ts.cc_discontinuities %d on a clean wire", got)
	}
}

// tsWireDatagram muxes one framed wire datagram from a sender framing.
func tsWireDatagram(f Framing, from AddrPort, seq uint64) []byte {
	return AppendPacket(nil, Packet{
		From: from, Codec: sig.G711, Seq: seq,
		Payload: f.AppendPayload(nil, seq),
	})
}

// TestTSFramingCorruptCC is the per-source undecodable-packet contract:
// a corrupted continuity counter is detected, counted
// (ts.cc_discontinuities + Stats.FramingErrors), and the packet is NOT
// delivered — Accepted does not move.
func TestTSFramingCorruptCC(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)

	from := AddrPort{Addr: "127.0.0.1", Port: 40000}
	recv := NewAgent("B", AddrPort{Addr: "127.0.0.1", Port: 40002})
	recv.SetFraming(NewTSFraming())
	recv.SetExpecting(from, sig.G711, true)

	send := NewTSFraming()
	clean1 := tsWireDatagram(send, from, 1) // PSI datagram, learns the PMT PID
	clean2 := tsWireDatagram(send, from, 2)
	if err := recv.deliverWire(clean1); err != nil {
		t.Fatalf("clean PSI datagram rejected: %v", err)
	}

	// Flip one bit in the low nibble of a mid-datagram TS header byte 3:
	// the continuity counter.
	bad := append([]byte(nil), clean2...)
	hdrLen := len(bad) - TSPayloadSize
	bad[hdrLen+3*ts.PacketSize+3] ^= 0x01
	err := recv.deliverWire(bad)
	if !errors.Is(err, ErrFraming) {
		t.Fatalf("corrupted CC: %v, want ErrFraming", err)
	}
	s := recv.Stats()
	if s.FramingErrors != 1 {
		t.Errorf("framing errors %d, want 1", s.FramingErrors)
	}
	if s.Accepted != 1 {
		t.Errorf("accepted %d, want 1 (corrupted packet must not be delivered)", s.Accepted)
	}
	if got := reg.Counter(MetricTSCCDiscontinuities).Value(); got == 0 {
		t.Error("ts.cc_discontinuities not incremented")
	}

	// A corrupted PSI section lands in ts.crc_errors instead.
	send2 := NewTSFraming()
	recv2 := NewAgent("C", AddrPort{Addr: "127.0.0.1", Port: 40004})
	recv2.SetFraming(NewTSFraming())
	recv2.SetExpecting(from, sig.G711, true)
	badPSI := tsWireDatagram(send2, from, 1)
	hdrLen = len(badPSI) - TSPayloadSize
	badPSI[hdrLen+ts.PacketSize-1] ^= 0x01 // last CRC byte of the PAT
	if err := recv2.deliverWire(badPSI); !errors.Is(err, ErrFraming) {
		t.Fatalf("corrupted PAT: %v, want ErrFraming", err)
	}
	if got := reg.Counter(MetricTSCRCErrors).Value(); got == 0 {
		t.Error("ts.crc_errors not incremented")
	}
	if recv2.Stats().Accepted != 0 {
		t.Error("corrupted PSI datagram was delivered")
	}

	// A truncated payload is counted, not panicked on.
	recv3 := NewAgent("D", AddrPort{Addr: "127.0.0.1", Port: 40006})
	recv3.SetFraming(NewTSFraming())
	short := tsWireDatagram(send2, from, 2)
	if err := recv3.deliverWire(short[:len(short)-100]); !errors.Is(err, ErrFraming) {
		t.Fatalf("truncated payload: %v, want ErrFraming", err)
	}
}

// TestTSFramingSeqMismatch rejects a replayed payload whose embedded
// sequence number disagrees with the wire header.
func TestTSFramingSeqMismatch(t *testing.T) {
	from := AddrPort{Addr: "127.0.0.1", Port: 40000}
	recv := NewAgent("B", AddrPort{Addr: "127.0.0.1", Port: 40002})
	recv.SetFraming(NewTSFraming())
	recv.SetExpecting(from, sig.G711, true)

	send := NewTSFraming()
	payload := send.AppendPayload(nil, 5)
	replay := AppendPacket(nil, Packet{From: from, Codec: sig.G711, Seq: 9, Payload: payload})
	if err := recv.deliverWire(replay); !errors.Is(err, ErrFraming) {
		t.Fatalf("seq-mismatched payload: %v, want ErrFraming", err)
	}
	if recv.Stats().Accepted != 0 {
		t.Error("mismatched payload was delivered")
	}
}

// TestOpaqueFraming checks the control framing: same-size raw
// payloads round-trip, and corruption is caught by the seq stamp.
func TestOpaqueFraming(t *testing.T) {
	from := AddrPort{Addr: "127.0.0.1", Port: 40000}
	recv := NewAgent("B", AddrPort{Addr: "127.0.0.1", Port: 40002})
	recv.SetFraming(NewOpaqueFraming(TSPayloadSize))
	recv.SetExpecting(from, sig.G711, true)

	send := NewOpaqueFraming(TSPayloadSize)
	ok := AppendPacket(nil, Packet{From: from, Codec: sig.G711, Seq: 3, Payload: send.AppendPayload(nil, 3)})
	if err := recv.deliverWire(ok); err != nil {
		t.Fatalf("clean opaque datagram rejected: %v", err)
	}
	bad := append([]byte(nil), ok...)
	bad[len(bad)-1] ^= 0xFF // tail corruption changes nothing the stamp covers
	if err := recv.deliverWire(bad); err != nil {
		t.Fatalf("tail corruption is beyond the opaque check: %v", err)
	}
	bad[len(bad)-TSPayloadSize] ^= 0xFF // corrupt the seq stamp
	if err := recv.deliverWire(bad); !errors.Is(err, ErrFraming) {
		t.Fatalf("corrupted opaque stamp: %v, want ErrFraming", err)
	}
	if s := recv.Stats(); s.Accepted != 2 || s.FramingErrors != 1 {
		t.Fatalf("stats %+v, want 2 accepted / 1 framing error", s)
	}
}

// TestUDPPlaneTSFraming runs framed media over real UDP sockets: the
// plane-installed factory gives each agent private framing state, and
// the stream arrives with zero integrity errors — sent as one burst,
// and paced.
func TestUDPPlaneTSFraming(t *testing.T) {
	t.Run("burst", func(t *testing.T) {
		p := NewUDPPlane()
		p.SetFraming(func() Framing { return NewTSFraming() })
		defer p.Close()

		aAddr := AddrPort{Addr: "127.0.0.1", Port: freeUDPPort(t)}
		bAddr := AddrPort{Addr: "127.0.0.1", Port: freeUDPPort(t)}
		a := p.Agent("A", aAddr)
		b := p.Agent("B", bAddr)
		a.SetSending(bAddr, sig.G711)
		b.SetExpecting(aAddr, sig.G711, true)

		p.Tick(100)
		await(t, "framed delivery", func() bool { return b.Stats().Accepted >= 100 })
		bs := b.Stats()
		if bs.FramingErrors != 0 {
			t.Fatalf("framing errors on a clean wire: %d", bs.FramingErrors)
		}
		ds := b.Framing().(*TSFraming).DemuxStats()
		if ds.Errors() != 0 {
			t.Fatalf("demux errors on a clean wire: %+v", ds)
		}
		if ds.Packets < 100*TSPacketsPerDatagram {
			t.Fatalf("demuxed %d TS packets, want at least %d", ds.Packets, 100*TSPacketsPerDatagram)
		}
		for _, err := range p.Errs() {
			t.Errorf("plane error: %v", err)
		}
	})

	// The integrity gate: 8 flows paced at 50 bursts/s for two seconds,
	// well under capacity, so the wire is clean and any CRC error,
	// continuity discontinuity or framing drop is the container's fault.
	// (A saturated sender legitimately loses datagrams; a paced one must
	// not.)
	t.Run("paced", func(t *testing.T) {
		const flows, pps = 8, 50
		reg := telemetry.NewRegistry()
		telemetry.SetDefault(reg) // before the agents resolve their instruments
		defer telemetry.SetDefault(nil)
		p := NewUDPPlane()
		p.SetFraming(func() Framing { return NewTSFraming() })
		defer p.Close()

		rxs := make([]*Agent, flows)
		pacers := make([]*Pacer, flows)
		for i := range rxs {
			// Each port is probed after the last agent bound its own.
			tx := p.Agent(fmt.Sprintf("tx%d", i), AddrPort{Addr: "127.0.0.1", Port: freeUDPPort(t)})
			rx := p.Agent(fmt.Sprintf("rx%d", i), AddrPort{Addr: "127.0.0.1", Port: freeUDPPort(t)})
			tx.SetSending(rx.Origin(), sig.G711)
			rx.SetExpecting(tx.Origin(), sig.G711, true)
			rxs[i] = rx
			pacers[i] = p.StartPacer(tx, time.Second/pps, 1)
		}
		time.Sleep(2 * time.Second)
		for _, pc := range pacers {
			pc.Stop()
		}
		time.Sleep(100 * time.Millisecond) // in-flight datagrams land

		for i, rx := range rxs {
			if s := rx.Stats(); s.Accepted == 0 || s.FramingErrors != 0 {
				t.Errorf("flow %d: %d bursts accepted, %d framing drops", i, s.Accepted, s.FramingErrors)
			}
		}
		if n := reg.Counter(MetricTSCRCErrors).Value(); n != 0 {
			t.Errorf("%d TS CRC errors on a clean wire", n)
		}
		if n := reg.Counter(MetricTSCCDiscontinuities).Value(); n != 0 {
			t.Errorf("%d TS continuity discontinuities on a clean wire", n)
		}
		for _, err := range p.Errs() {
			t.Errorf("plane error: %v", err)
		}
	})
}
