// Supervisor: shard processes under OTP-style supervision. The
// supervisor spawns one OS process per shard, watches each through two
// independent signals — process exit (Wait) and heartbeat silence on
// the control channel — and restarts crashed shards with jittered
// exponential backoff. Restarts are not free forever: a shard that
// crashes more than MaxRestarts times inside Window is given up on
// (restart intensity, straight from the OTP playbook), because a
// supervisor that restarts a deterministic crasher in a tight loop is
// worse than one that admits defeat and surfaces the failure.
//
// The control plane is deliberately boring: one plain TCP channel per
// shard carrying small MetaApp envelopes —
//
//	ctl/ready  s=<shard> carrier=<addr> http=<addr>   child's hello
//	ctl/hb     <vital signs as attrs>                  heartbeat
//	ctl/addr   <shard>=<carrier addr> ...              full table push
//	ctl/stop                                           drain and exit
//	ctl/report id=<n> [b=<payload>]                    request / reply
//
// Heartbeats piggyback each shard's vital signs (completed calls,
// durable CDR count, formula violations), so the supervisor's
// last-known view of a shard survives the shard's death — the fleet
// gate can still account for a victim killed mid-storm.
package box

import (
	"fmt"
	"math/rand"
	"net/http"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ipmedia/internal/sig"
	"ipmedia/internal/telemetry"
	"ipmedia/internal/transport"
)

// Control protocol application names.
const (
	CtlReadyApp  = "ctl/ready"
	CtlAddrApp   = "ctl/addr"
	CtlStopApp   = "ctl/stop"
	CtlReportApp = "ctl/report"
)

// Telemetry instrument name prefixes exported by the supervisor; the
// shard index is appended ("cluster.restarts.s2").
const (
	// MetricRestarts counts supervisor restarts of a shard process.
	MetricRestarts = "cluster.restarts"
	// MetricHeartbeatMiss counts heartbeat-silence detections that led
	// to a liveness probe (and, failing that, a kill).
	MetricHeartbeatMiss = "cluster.heartbeat_miss"
	// MetricGiveUps counts shards abandoned by restart intensity.
	MetricGiveUps = "cluster.giveups"
)

// SupervisorConfig shapes one supervision tree.
type SupervisorConfig struct {
	Shards int

	// Heartbeat is the cadence shards beat at; MaxMissed whole silent
	// intervals trigger a liveness probe and then a kill.
	Heartbeat time.Duration
	MaxMissed int

	// BackoffMin doubles per consecutive restart up to BackoffMax,
	// jittered ±50% so a correlated crash doesn't resynchronize the
	// fleet's restarts.
	BackoffMin time.Duration
	BackoffMax time.Duration

	// MaxRestarts within Window gives the shard up (restart intensity).
	MaxRestarts int
	Window      time.Duration

	Seed int64

	// Command builds the shard process. The child must dial ctlAddr and
	// speak the control protocol (RunControl does).
	Command func(shard int, ctlAddr string) *exec.Cmd

	// Log, if set, receives one line per supervision event.
	Log func(format string, args ...any)
}

func (c *SupervisorConfig) defaults() {
	if c.Heartbeat <= 0 {
		c.Heartbeat = 250 * time.Millisecond
	}
	if c.MaxMissed <= 0 {
		c.MaxMissed = 4
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 5
	}
	if c.Window <= 0 {
		c.Window = 30 * time.Second
	}
	if c.Log == nil {
		c.Log = func(string, ...any) {}
	}
}

// Supervisor runs and supervises a fleet of shard processes.
type Supervisor struct {
	cfg     SupervisorConfig
	net     transport.Network
	lst     transport.Listener
	ctlAddr string

	rngMu sync.Mutex
	rng   *rand.Rand

	mu       sync.Mutex
	shards   []*supShard
	stopping bool

	reqID   atomic.Uint64
	giveups *telemetry.Counter
	done    chan struct{}
}

// supShard is the supervisor's view of one shard slot.
type supShard struct {
	idx      int
	restarts *telemetry.Counter
	hbMiss   *telemetry.Counter

	mu       sync.Mutex
	epoch    int
	cmd      *exec.Cmd
	ctl      transport.Port
	mon      *transport.HeartbeatMonitor
	carrier  string
	httpAddr string
	vitals   map[string]string
	times    []time.Time // restart instants inside the intensity window
	gaveUp   bool
	probing  bool
	reports  map[string]chan string
}

// NewSupervisor spawns the fleet: a control listener on an ephemeral
// TCP port, then one shard process per slot.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	cfg.defaults()
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("box: supervisor: need at least 1 shard")
	}
	if cfg.Command == nil {
		return nil, fmt.Errorf("box: supervisor: no Command")
	}
	s := &Supervisor{
		cfg:     cfg,
		net:     transport.TCPNetwork{},
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		giveups: telemetry.C(MetricGiveUps),
		done:    make(chan struct{}),
	}
	lst, err := s.net.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.lst = lst
	s.ctlAddr = lst.Addr()
	s.shards = make([]*supShard, cfg.Shards)
	for i := range s.shards {
		tag := ".s" + strconv.Itoa(i)
		s.shards[i] = &supShard{
			idx:      i,
			restarts: telemetry.C(MetricRestarts + tag),
			hbMiss:   telemetry.C(MetricHeartbeatMiss + tag),
			mon:      transport.NewHeartbeatMonitor(cfg.Heartbeat),
			vitals:   map[string]string{},
			reports:  map[string]chan string{},
		}
	}
	go s.acceptLoop()
	go s.watchdog()
	for i := range s.shards {
		if err := s.spawn(i); err != nil {
			s.Stop(2 * time.Second)
			return nil, err
		}
	}
	return s, nil
}

// CtlAddr reports the control-plane address shards dial.
func (s *Supervisor) CtlAddr() string { return s.ctlAddr }

// spawn starts shard i's process and a watcher for its exit.
func (s *Supervisor) spawn(i int) error {
	sh := s.shards[i]
	cmd := s.cfg.Command(i, s.ctlAddr)
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("box: supervisor: spawn shard %d: %w", i, err)
	}
	sh.mu.Lock()
	sh.epoch++
	epoch := sh.epoch
	sh.cmd = cmd
	sh.mon.Reset()
	sh.mu.Unlock()
	s.cfg.Log("sup: shard %d started (pid %d, epoch %d)", i, cmd.Process.Pid, epoch)
	go func() {
		err := cmd.Wait()
		s.onExit(i, epoch, err)
	}()
	return nil
}

// onExit runs when shard i's process (of the given epoch) has exited;
// it decides between restart and give-up.
func (s *Supervisor) onExit(i, epoch int, werr error) {
	s.mu.Lock()
	stopping := s.stopping
	s.mu.Unlock()
	sh := s.shards[i]
	sh.mu.Lock()
	if sh.epoch != epoch {
		sh.mu.Unlock()
		return
	}
	if ctl := sh.ctl; ctl != nil {
		sh.ctl = nil
		ctl.Close()
	}
	sh.carrier = ""
	if stopping || sh.gaveUp {
		sh.mu.Unlock()
		return
	}
	now := time.Now()
	live := sh.times[:0]
	for _, t := range sh.times {
		if now.Sub(t) < s.cfg.Window {
			live = append(live, t)
		}
	}
	sh.times = live
	if len(sh.times) >= s.cfg.MaxRestarts {
		sh.gaveUp = true
		sh.mu.Unlock()
		s.giveups.Inc()
		s.cfg.Log("sup: shard %d gave up: %d restarts inside %v (last exit: %v)",
			i, len(live), s.cfg.Window, werr)
		return
	}
	sh.times = append(sh.times, now)
	attempt := len(sh.times)
	sh.mu.Unlock()

	sh.restarts.Inc()
	backoff := s.cfg.BackoffMin << (attempt - 1)
	if backoff > s.cfg.BackoffMax {
		backoff = s.cfg.BackoffMax
	}
	backoff = s.jitter(backoff)
	s.cfg.Log("sup: shard %d exited (%v); restart %d in %v", i, werr, attempt, backoff)
	time.AfterFunc(backoff, func() {
		s.mu.Lock()
		stopping := s.stopping
		s.mu.Unlock()
		if stopping {
			return
		}
		if err := s.spawn(i); err != nil {
			s.cfg.Log("sup: %v", err)
			s.onExit(i, epoch+1, err)
		}
	})
}

// jitter spreads d over [d/2, 3d/2).
func (s *Supervisor) jitter(d time.Duration) time.Duration {
	s.rngMu.Lock()
	f := 0.5 + s.rng.Float64()
	s.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// acceptLoop attaches incoming control channels to their shard slots.
func (s *Supervisor) acceptLoop() {
	for {
		p, err := s.lst.Accept()
		if err != nil {
			return
		}
		go s.serveCtl(p)
	}
}

// serveCtl drives one shard's control channel: a ctl/ready identifies
// the shard, then heartbeats and report replies stream in until the
// channel dies with the shard.
func (s *Supervisor) serveCtl(p transport.Port) {
	in, err := ctlReader(p)
	if err != nil {
		s.cfg.Log("sup: %v", err)
		return
	}
	var sh *supShard
	eachCtl(in, func(e sig.Envelope, m *sig.Meta) bool {
		switch m.App {
		case CtlReadyApp:
			idx, err := strconv.Atoi(m.Get("s"))
			if err != nil || idx < 0 || idx >= len(s.shards) {
				e.Release()
				p.Close()
				return false
			}
			sh = s.shards[idx]
			sh.mu.Lock()
			if old := sh.ctl; old != nil && old != p {
				old.Close()
			}
			sh.ctl = p
			sh.carrier = m.Get("carrier")
			sh.httpAddr = m.Get("http")
			sh.mon.Reset()
			sh.mu.Unlock()
			e.Release()
			s.cfg.Log("sup: shard %d ready (carrier %s)", idx, sh.CarrierAddr())
			s.broadcastAddrs()
		case transport.HeartbeatApp:
			if sh != nil {
				sh.mu.Lock()
				sh.mon.Beat()
				for _, a := range m.Attrs {
					sh.vitals[a.Key] = a.Val
				}
				sh.mu.Unlock()
			}
			e.Release()
		case CtlReportApp:
			if sh != nil {
				id, body := m.Get("id"), m.Get("b")
				sh.mu.Lock()
				ch := sh.reports[id]
				delete(sh.reports, id)
				sh.mu.Unlock()
				if ch != nil {
					ch <- body
				}
			}
			e.Release()
		default:
			e.Release()
		}
		return true
	})
}

// ctlReader returns the receive side of a control port. Each end reads
// its control channel on a goroutine of its own, so the port must be a
// BatchPort; any other is closed and refused.
func ctlReader(p transport.Port) (transport.BatchPort, error) {
	in, ok := p.(transport.BatchPort)
	if !ok {
		p.Close()
		return nil, fmt.Errorf("box: control port %T is not a BatchPort", p)
	}
	return in, nil
}

// eachCtl feeds fn every control envelope (an app meta-signal) arriving
// on in, releasing anything else, until the port closes or fn returns
// false.
func eachCtl(in transport.BatchPort, fn func(e sig.Envelope, m *sig.Meta) bool) {
	var buf [8]sig.Envelope
	for {
		n, ok := in.RecvBatch(buf[:])
		if !ok {
			return
		}
		for _, e := range buf[:n] {
			if m := e.Meta; m == nil || m.Kind != sig.MetaApp {
				e.Release()
			} else if !fn(e, m) {
				return
			}
		}
	}
}

// broadcastAddrs pushes the full carrier-address table to every
// connected shard. Shards apply it through Router.SetAddr, which
// invalidates carriers toward addresses that changed.
func (s *Supervisor) broadcastAddrs() {
	attrs := make([]sig.Attr, 0, len(s.shards))
	ports := make([]transport.Port, 0, len(s.shards))
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.carrier != "" {
			attrs = sig.SetAttr(attrs, strconv.Itoa(sh.idx), sh.carrier)
		}
		if sh.ctl != nil {
			ports = append(ports, sh.ctl)
		}
		sh.mu.Unlock()
	}
	for _, p := range ports {
		p.Send(sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaApp, App: CtlAddrApp, Attrs: attrs}})
	}
}

// watchdog patrols heartbeat silence: a shard past MaxMissed silent
// intervals gets one /healthz probe, and a failed probe gets a kill —
// the exit watcher then drives the ordinary restart path.
func (s *Supervisor) watchdog() {
	tick := time.NewTicker(s.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-tick.C:
		}
		for i, sh := range s.shards {
			sh.mu.Lock()
			live := sh.ctl != nil && !sh.gaveUp && !sh.probing
			missed := sh.mon.Missed()
			httpAddr := sh.httpAddr
			if live && missed > s.cfg.MaxMissed {
				sh.probing = true
			}
			sh.mu.Unlock()
			if !live || missed <= s.cfg.MaxMissed {
				continue
			}
			sh.hbMiss.Inc()
			go func(i int, sh *supShard, httpAddr string) {
				defer func() {
					sh.mu.Lock()
					sh.probing = false
					sh.mu.Unlock()
				}()
				if probeHealthz(httpAddr) {
					// Alive but tardy (a long GC pause, a loaded box): give
					// it a fresh silence budget rather than killing a
					// healthy shard.
					sh.mu.Lock()
					sh.mon.Reset()
					sh.mu.Unlock()
					s.cfg.Log("sup: shard %d missed heartbeats but probes healthy", i)
					return
				}
				s.cfg.Log("sup: shard %d silent and unprobeable; killing", i)
				s.Kill(i)
			}(i, sh, httpAddr)
		}
	}
}

// probeHealthz asks a shard's telemetry endpoint whether it is alive.
func probeHealthz(addr string) bool {
	if addr == "" {
		return false
	}
	client := http.Client{Timeout: 500 * time.Millisecond}
	resp, err := client.Get("http://" + addr + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Kill SIGKILLs shard i's current process — the chaos entry point; the
// exit watcher observes the death and the restart policy takes over.
func (s *Supervisor) Kill(i int) {
	sh := s.shards[i]
	sh.mu.Lock()
	cmd := sh.cmd
	sh.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		cmd.Process.Kill()
	}
}

// Pid reports shard i's current process id (0 if not running).
func (s *Supervisor) Pid(i int) int {
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.cmd == nil || sh.cmd.Process == nil {
		return 0
	}
	return sh.cmd.Process.Pid
}

// CarrierAddr reports sh's current carrier address ("" while down).
func (sh *supShard) CarrierAddr() string {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.carrier
}

// Carrier reports shard i's current carrier address ("" while down).
func (s *Supervisor) Carrier(i int) string { return s.shards[i].CarrierAddr() }

// GaveUp reports whether shard i exhausted its restart intensity.
func (s *Supervisor) GaveUp(i int) bool {
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.gaveUp
}

// Restarts reports how many times shard i has been restarted.
func (s *Supervisor) Restarts(i int) int { return int(s.shards[i].restarts.Value()) }

// Vitals reports the last heartbeat payload seen from shard i — valid
// even while the shard is dead, which is exactly when the fleet gate
// needs the victim's last-known numbers.
func (s *Supervisor) Vitals(i int) map[string]string {
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make(map[string]string, len(sh.vitals))
	for k, v := range sh.vitals {
		out[k] = v
	}
	return out
}

// AwaitReady blocks until every non-given-up shard has a live control
// channel and a carrier address, or the timeout passes.
func (s *Supervisor) AwaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ready := true
		for _, sh := range s.shards {
			sh.mu.Lock()
			ok := sh.gaveUp || (sh.ctl != nil && sh.carrier != "")
			sh.mu.Unlock()
			if !ok {
				ready = false
				break
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("box: supervisor: fleet not ready after %v", timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Report asks shard i for a report and waits for the reply payload.
func (s *Supervisor) Report(i int, timeout time.Duration) (string, error) {
	sh := s.shards[i]
	id := strconv.FormatUint(s.reqID.Add(1), 10)
	ch := make(chan string, 1)
	sh.mu.Lock()
	ctl := sh.ctl
	if ctl != nil {
		sh.reports[id] = ch
	}
	sh.mu.Unlock()
	if ctl == nil {
		return "", fmt.Errorf("box: supervisor: shard %d has no control channel", i)
	}
	err := ctl.Send(sig.Envelope{Meta: &sig.Meta{
		Kind: sig.MetaApp, App: CtlReportApp, Attrs: sig.NewAttrs("id", id),
	}})
	if err != nil {
		return "", err
	}
	select {
	case body := <-ch:
		return body, nil
	case <-time.After(timeout):
		sh.mu.Lock()
		delete(sh.reports, id)
		sh.mu.Unlock()
		return "", fmt.Errorf("box: supervisor: shard %d report timed out", i)
	}
}

// Stop shuts the fleet down: ctl/stop to every live shard, a grace
// period for clean exits, then SIGKILL for stragglers. Idempotent.
func (s *Supervisor) Stop(grace time.Duration) {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return
	}
	s.stopping = true
	s.mu.Unlock()
	close(s.done)
	for _, sh := range s.shards {
		sh.mu.Lock()
		ctl := sh.ctl
		sh.mu.Unlock()
		if ctl != nil {
			ctl.Send(sig.Envelope{Meta: &sig.Meta{Kind: sig.MetaApp, App: CtlStopApp}})
		}
	}
	deadline := time.Now().Add(grace)
	for _, sh := range s.shards {
		for {
			sh.mu.Lock()
			cmd := sh.cmd
			sh.mu.Unlock()
			if cmd == nil || cmd.ProcessState != nil {
				break
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// Reap stragglers we had to kill.
	killDeadline := time.Now().Add(2 * time.Second)
	for _, sh := range s.shards {
		for {
			sh.mu.Lock()
			cmd := sh.cmd
			sh.mu.Unlock()
			if cmd == nil || cmd.ProcessState != nil || time.Now().After(killDeadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	s.lst.Close()
}

// Alive reports whether shard i's process is currently running.
func (s *Supervisor) Alive(i int) bool {
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.cmd != nil && sh.cmd.ProcessState == nil
}

// ---------------------------------------------------------------------
// Child side.

// ControlHooks are the shard-process callbacks driven by the control
// channel.
type ControlHooks struct {
	// Vitals stamps each heartbeat with the shard's vital signs. Runs
	// on the transport timer wheel; must not block.
	Vitals func(m *sig.Meta)
	// OnAddrs receives the full shard→carrier-address table.
	OnAddrs func(table map[int]string)
	// OnStop is called when the supervisor requests a clean shutdown.
	OnStop func()
	// Report builds the payload for a ctl/report request.
	Report func() string
}

// ControlClient is the shard-process end of the control channel.
type ControlClient struct {
	port transport.Port
	hb   *transport.Heartbeater
}

// RunControl dials the supervisor, announces readiness, starts
// heartbeating, and services control requests until the channel dies.
func RunControl(net transport.Network, ctlAddr string, shard int, carrierAddr, httpAddr string, every time.Duration, hooks ControlHooks) (*ControlClient, error) {
	p, err := net.Dial(ctlAddr)
	if err != nil {
		return nil, err
	}
	in, err := ctlReader(p)
	if err != nil {
		return nil, err
	}
	err = p.Send(sig.Envelope{Meta: &sig.Meta{
		Kind: sig.MetaApp,
		App:  CtlReadyApp,
		Attrs: sig.NewAttrs(
			"carrier", carrierAddr,
			"http", httpAddr,
			"s", strconv.Itoa(shard),
		),
	}})
	if err != nil {
		p.Close()
		return nil, err
	}
	c := &ControlClient{port: p}
	c.hb = transport.StartHeartbeat(p, every, hooks.Vitals)
	go c.serve(in, hooks)
	return c, nil
}

func (c *ControlClient) serve(in transport.BatchPort, hooks ControlHooks) {
	eachCtl(in, func(e sig.Envelope, m *sig.Meta) bool {
		switch m.App {
		case CtlAddrApp:
			table := make(map[int]string, len(m.Attrs))
			for _, a := range m.Attrs {
				if idx, err := strconv.Atoi(a.Key); err == nil {
					table[idx] = a.Val
				}
			}
			e.Release()
			if hooks.OnAddrs != nil {
				hooks.OnAddrs(table)
			}
		case CtlStopApp:
			e.Release()
			if hooks.OnStop != nil {
				hooks.OnStop()
			}
		case CtlReportApp:
			id := m.Get("id")
			e.Release()
			body := ""
			if hooks.Report != nil {
				body = hooks.Report()
			}
			c.port.Send(sig.Envelope{Meta: &sig.Meta{
				Kind:  sig.MetaApp,
				App:   CtlReportApp,
				Attrs: sig.NewAttrs("b", body, "id", id),
			}})
		default:
			e.Release()
		}
		return true
	})
	// The control channel is gone: the supervisor died or disowned us.
	// An unsupervised shard must not linger — treat it as a stop.
	// OnStop implementations must be idempotent.
	if hooks.OnStop != nil {
		hooks.OnStop()
	}
}

// Close stops heartbeating and hangs up the control channel.
func (c *ControlClient) Close() {
	c.hb.Stop()
	c.port.Close()
}
