package box

import "time"

// Lifecycle observes signaling-channel setup and teardown at this
// box's edge of the network — the attachment point for the durable
// state layer: setup is where a subscriber registry is consulted,
// teardown is where a call-detail record is cut.
//
// Callbacks run on the box goroutine and must not block or call back
// into the Runner. Each channel produces at most one setup and, if a
// setup was observed, exactly one teardown — whether the channel ends
// by explicit teardown, transport loss, or runner Stop.
type Lifecycle interface {
	// ChannelSetup fires when a signaling channel comes up: on dial
	// (peer is the dialed address) and on a received MetaSetup (peer is
	// the announced far box name).
	ChannelSetup(local, peer, channel string)
	// ChannelTeardown fires when the channel goes away, with the setup
	// observation time for call-duration accounting.
	ChannelTeardown(local, peer, channel string, setupAt time.Time)
}

// SetLifecycle installs the lifecycle observer (nil removes it).
// Install before traffic starts: channels already up when the observer
// is installed produce no setup, and therefore no teardown.
func (r *Runner) SetLifecycle(l Lifecycle) {
	r.Do(func(*Ctx) { r.lifecycle = l })
}

// lcSetup records ci's channel coming up and fires ChannelSetup. The
// record dedups: a channel already set up (e.g. an envelope replay) is
// not announced twice. A nil record (an event injected for a channel
// the box never had) is not tracked. Loop goroutine only.
func (r *Runner) lcSetup(ci *chanInfo, peer string) {
	if r.lifecycle == nil || ci == nil || (ci.lc != nil && ci.lc.at != 0) {
		return
	}
	if ci.lc == nil {
		ci.lc = new(lcState)
	}
	ci.lc.peer, ci.lc.at = peer, time.Now().UnixNano()
	r.lifecycle.ChannelSetup(r.box.Name(), peer, ci.name)
}

// lcTeardown fires ChannelTeardown for ci's channel if it was set up,
// exactly once: the local OutTeardown, the received MetaTeardown, and
// the port-loss synthesized teardown all funnel here while the box
// still keeps the channel's record, and whichever lands first wins.
// Loop goroutine only.
func (r *Runner) lcTeardown(ci *chanInfo) {
	if r.lifecycle == nil || ci == nil || ci.lc == nil || ci.lc.at == 0 {
		return
	}
	peer, at := ci.lc.peer, ci.lc.at
	ci.lc.peer, ci.lc.at = "", 0
	r.lifecycle.ChannelTeardown(r.box.Name(), peer, ci.name, time.Unix(0, at))
}

// lcFlush tears down every channel still set up — the runner is
// stopping, and CDR accounting must not leak the calls it takes down
// with it. Loop goroutine only.
func (r *Runner) lcFlush() {
	for _, ci := range r.box.chans {
		r.lcTeardown(ci)
	}
}
