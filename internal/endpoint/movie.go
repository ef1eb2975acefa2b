// MovieServer: the media resource of the collaborative-television
// scenario (paper Figure 8). Each signaling channel to the server is
// associated with a movie and a time pointer; because all the tunnels
// of one channel share that association, the media on all of them is
// from the same movie at the same time point. Pause/play/seek commands
// arrive as meta-signals and affect all the channel's media streams at
// once.
package endpoint

import (
	"fmt"
	"strconv"
	"sync"

	"ipmedia/internal/box"
	"ipmedia/internal/core"
	"ipmedia/internal/media"
	"ipmedia/internal/sig"
	"ipmedia/internal/slot"
	"ipmedia/internal/transport"
)

// MovieSession is the state the server associates with one signaling
// channel: which movie, where in it, and whether it is playing.
type MovieSession struct {
	Movie   string
	Pos     int // seconds into the movie
	Playing bool
}

// MovieServer serves movies over per-tunnel media channels.
type MovieServer struct {
	name string
	r    *box.Runner

	mu       sync.Mutex
	sessions map[string]*MovieSession         // channel -> session
	profs    map[string]*core.EndpointProfile // slot -> media profile
	agents   map[string]*media.Agent
	nport    int
}

// NewMovieServer creates and starts a movie server listening at its
// name. A dialing box names the movie in the setup meta-signal's
// "movie" attribute.
func NewMovieServer(name string, net transport.Network, plane media.Registry) (*MovieServer, error) {
	ms := &MovieServer{
		name:     name,
		sessions: map[string]*MovieSession{},
		profs:    map[string]*core.EndpointProfile{},
		agents:   map[string]*media.Agent{},
	}
	b := box.New(name, core.ServerProfile{Name: name})
	b.DefaultGoal = func(slotName string) core.Goal {
		return core.NewHoldSlot(slotName, ms.slotProfile(slotName, plane))
	}
	b.Hook = func(ctx *box.Ctx, ev *box.Event) {
		if ev.Kind == box.EvEnvelope && ev.Env.IsMeta() {
			ms.onMeta(ctx, ev.Channel, ev.Env.Meta)
		}
		ms.refreshAgents(ctx.Box())
	}
	ms.r = box.NewRunner(b, net)
	// The per-tunnel profiles and agents are keyed by slot name and
	// outlive their channel, so a channel name is never given to a later
	// one.
	if err := ms.r.Listen(name, box.SeqName); err != nil {
		ms.r.Stop()
		return nil, err
	}
	return ms, nil
}

func (ms *MovieServer) onMeta(ctx *box.Ctx, channel string, m *sig.Meta) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	switch m.Kind {
	case sig.MetaSetup:
		movie := m.Get("movie")
		pos := 0
		if p, err := strconv.Atoi(m.Get("pos")); err == nil {
			pos = p
		}
		ms.sessions[channel] = &MovieSession{Movie: movie, Pos: pos}
		ctx.SendMeta(channel, sig.Meta{Kind: sig.MetaAvailable})
	case sig.MetaTeardown:
		delete(ms.sessions, channel)
	case sig.MetaApp:
		s := ms.sessions[channel]
		if s == nil {
			return
		}
		switch m.App {
		case "watch":
			// (Re)associate the channel with a movie and time pointer.
			s.Movie = m.Get("movie")
			if p, err := strconv.Atoi(m.Get("pos")); err == nil {
				s.Pos = p
			}
		case "play":
			s.Playing = true
		case "pause":
			s.Playing = false
		case "seek":
			if p, err := strconv.Atoi(m.Get("pos")); err == nil {
				s.Pos = p
			}
		}
	}
}

// slotProfile builds (once) the per-tunnel media profile and agent.
// Video tunnels get video codecs; the medium is discovered from the
// open signal, so the profile offers both menus and the opener's
// descriptor decides.
func (ms *MovieServer) slotProfile(slotName string, plane media.Registry) *core.EndpointProfile {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if p := ms.profs[slotName]; p != nil {
		return p
	}
	ms.nport++
	port := 7000 + ms.nport
	codecs := []sig.Codec{sig.G711, sig.G726, sig.H264, sig.H263}
	p := core.NewEndpointProfile(fmt.Sprintf("%s/%s", ms.name, slotName), ms.name, port, codecs, codecs)
	ms.profs[slotName] = p
	if plane != nil {
		ms.agents[slotName] = plane.Agent(fmt.Sprintf("%s/%s", ms.name, slotName), media.AddrPort{Addr: ms.name, Port: port})
	}
	return p
}

// refreshAgents mirrors slot state into per-tunnel agents: the server
// transmits on every enabled tunnel whose session is playing.
func (ms *MovieServer) refreshAgents(b *box.Box) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	for slotName, agent := range ms.agents {
		s := b.Slot(slotName)
		var sendTo media.AddrPort
		var sendCodec sig.Codec
		ch := slotChan(slotName)
		sess := ms.sessions[ch]
		if s != nil && s.State() == slot.Flowing && s.Enabled() && sess != nil && sess.Playing {
			if d, ok := s.Desc(); ok && !d.NoMedia() {
				sendTo = media.AddrPort{Addr: d.Addr, Port: d.Port}
				sendCodec = s.Hist().SelSent.Codec
			}
		}
		agent.SetSending(sendTo, sendCodec)
	}
}

// Session returns a snapshot of the session on a channel.
func (ms *MovieServer) Session(channel string) (MovieSession, bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	s := ms.sessions[channel]
	if s == nil {
		return MovieSession{}, false
	}
	return *s, true
}

// SessionCount returns the number of live sessions.
func (ms *MovieServer) SessionCount() int {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return len(ms.sessions)
}

// Runner exposes the server's box runner.
func (ms *MovieServer) Runner() *box.Runner { return ms.r }

// Stop shuts the server down.
func (ms *MovieServer) Stop() { ms.r.Stop() }
