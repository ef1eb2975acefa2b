package box

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ipmedia/internal/sig"
	"ipmedia/internal/transport"
)

// nameOnShard finds a box name that places onto the wanted shard.
func nameOnShard(want, n int) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("box%d", i)
		if ShardOfName(name, n) == want {
			return name
		}
	}
}

// recvWithin returns the next envelope from a batch port; ok is false
// once it is closed and drained. Neither happening within d fails the
// test. (transport's tests have the same helper for both port kinds;
// in-package tests cannot share one across packages.)
func recvWithin(t *testing.T, p transport.Port, d time.Duration) (sig.Envelope, bool) {
	t.Helper()
	var buf [1]sig.Envelope
	got := make(chan bool, 1)
	go func() {
		n, _ := p.(transport.BatchPort).RecvBatch(buf[:])
		got <- n == 1
	}()
	select {
	case ok := <-got:
		return buf[0], ok
	case <-time.After(d):
		t.Fatalf("nothing received from %s within %v", p.Peer(), d)
		return sig.Envelope{}, false
	}
}

// twoRouters builds a two-shard fleet in one process: each shard has
// its own local network and mux, carriers ride a shared mem network.
func twoRouters(t *testing.T) (*Router, *Router) {
	t.Helper()
	carrierNet := transport.NewMemNetwork()
	mux0, mux1 := transport.NewMux(carrierNet), transport.NewMux(carrierNet)
	addr0, err := mux0.ListenCarrier("carrier0")
	if err != nil {
		t.Fatalf("ListenCarrier: %v", err)
	}
	addr1, err := mux1.ListenCarrier("carrier1")
	if err != nil {
		t.Fatalf("ListenCarrier: %v", err)
	}
	r0 := NewRouter(0, 2, transport.NewMemNetwork(), mux0)
	r1 := NewRouter(1, 2, transport.NewMemNetwork(), mux1)
	r0.SetAddr(1, addr1)
	r1.SetAddr(0, addr0)
	t.Cleanup(func() { r0.Close(); r1.Close(); mux0.Close(); mux1.Close() })
	return r0, r1
}

func TestRouterPlacementRouting(t *testing.T) {
	r0, r1 := twoRouters(t)
	local := nameOnShard(0, 2)  // owned by shard 0
	remote := nameOnShard(1, 2) // owned by shard 1

	l0, err := r0.Listen(local)
	if err != nil {
		t.Fatalf("Listen local: %v", err)
	}
	l1, err := r1.Listen(remote)
	if err != nil {
		t.Fatalf("Listen remote: %v", err)
	}

	// Same-owner dial stays on the local network.
	p, err := r0.Dial(local)
	if err != nil {
		t.Fatalf("local dial: %v", err)
	}
	acc, err := l0.Accept()
	if err != nil {
		t.Fatalf("local accept: %v", err)
	}
	if err := p.Send(sig.Envelope{Tunnel: 1, Sig: sig.Close()}); err != nil {
		t.Fatalf("local send: %v", err)
	}
	if e, _ := recvWithin(t, acc, 5*time.Second); e.Tunnel != 1 {
		t.Fatalf("local delivery: %v", e)
	}

	// Cross-owner dial goes over the carrier, invisibly to the boxes.
	p2, err := r0.Dial(remote)
	if err != nil {
		t.Fatalf("cross dial: %v", err)
	}
	acc2, err := l1.Accept()
	if err != nil {
		t.Fatalf("cross accept: %v", err)
	}
	if err := p2.Send(sig.Envelope{Tunnel: 2, Sig: sig.Close()}); err != nil {
		t.Fatalf("cross send: %v", err)
	}
	if e, _ := recvWithin(t, acc2, 5*time.Second); e.Tunnel != 2 {
		t.Fatalf("cross delivery: %v", e)
	}
	// And the reverse direction reaches shard 0's listener remotely.
	p3, err := r1.Dial(local)
	if err != nil {
		t.Fatalf("reverse dial: %v", err)
	}
	acc3, err := l0.Accept()
	if err != nil {
		t.Fatalf("reverse accept: %v", err)
	}
	if err := p3.Send(sig.Envelope{Tunnel: 3, Sig: sig.Close()}); err != nil {
		t.Fatalf("reverse send: %v", err)
	}
	if e, _ := recvWithin(t, acc3, 5*time.Second); e.Tunnel != 3 {
		t.Fatalf("reverse delivery: %v", e)
	}
}

func TestRouterDialWaitsForAddress(t *testing.T) {
	carrierNet := transport.NewMemNetwork()
	mux0, mux1 := transport.NewMux(carrierNet), transport.NewMux(carrierNet)
	addr1, _ := mux1.ListenCarrier("carrier1")
	r0 := NewRouter(0, 2, transport.NewMemNetwork(), mux0)
	r1 := NewRouter(1, 2, transport.NewMemNetwork(), mux1)
	t.Cleanup(func() { r0.Close(); r1.Close(); mux0.Close(); mux1.Close() })

	remote := nameOnShard(1, 2)
	if _, err := r1.Listen(remote); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	// Dial before the address is known: it must block until SetAddr,
	// not fail — this is the crash-restart re-broadcast window.
	done := make(chan error, 1)
	go func() {
		_, err := r0.Dial(remote)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("dial returned before address known: %v", err)
	default:
	}
	r0.SetAddr(1, addr1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("dial after SetAddr: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("dial did not complete after SetAddr")
	}
}

// TestRouterAddrRace pins, under -race, that address resolution is
// safe against a concurrent shard restart: dialers resolve the owner's
// carrier while SetAddr swaps it between incarnations (invalidating
// the old carrier each flip).
func TestRouterAddrRace(t *testing.T) {
	carrierNet := transport.NewMemNetwork()
	muxD := transport.NewMux(carrierNet)
	// Two incarnations of shard 1's carrier, both live so dials toward
	// either address can succeed mid-flip.
	muxA, muxB := transport.NewMux(carrierNet), transport.NewMux(carrierNet)
	addrA, _ := muxA.ListenCarrier("carrierA")
	addrB, _ := muxB.ListenCarrier("carrierB")
	r := NewRouter(0, 2, transport.NewMemNetwork(), muxD)
	r.SetAddr(1, addrA)
	t.Cleanup(func() { r.Close(); muxD.Close(); muxA.Close(); muxB.Close() })

	remote := nameOnShard(1, 2)
	lA, _ := muxA.Listen(remote)
	lB, _ := muxB.Listen(remote)
	go func() {
		for {
			p, err := lA.Accept()
			if err != nil {
				return
			}
			p.Close()
		}
	}()
	go func() {
		for {
			p, err := lB.Accept()
			if err != nil {
				return
			}
			p.Close()
		}
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the "supervisor": restart shard 1 over and over
		defer wg.Done()
		addrs := [2]string{addrA, addrB}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.SetAddr(1, addrs[i%2])
			time.Sleep(time.Millisecond)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() { // the boxes: dial across shards throughout
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p, err := r.Dial(remote)
				if err == nil {
					p.Close()
				}
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}
