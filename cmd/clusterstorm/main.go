// clusterstorm is the multi-process resilience harness: the chaos
// storm's call lifecycles run across a fleet of supervised shard
// processes, and the chaos is a real SIGKILL. One binary plays both
// roles: the parent supervises N shard processes (spawned from this
// same executable with -shard), kills one mid-storm, and audits the
// fleet afterwards; each child hosts the slice of the box population
// that jump-hashes onto it, with cross-shard channels riding the
// inter-shard carrier mux (RelNetwork over TCP) so a box cannot tell
// whether its peer is a goroutine away or a process away.
//
// Mid-storm the parent SIGKILLs a shard — no flush, no goodbye. The
// supervisor restarts it with backoff; peers' carriers are invalidated
// onto the new address; the restarted shard recovers its shard-local
// CDR store from its WAL; and the storm keeps going. The run gates on
// the full robustness story: the victim restarted (and nobody gave
// up), calls kept completing after the kill, fleet-wide Section V
// formula checking stayed clean (including the victim's last-reported
// count before it died), cross-shard setups stayed under the bound,
// every client drained, no acked CDR was lost (fleet reconciliation
// reopens every shard's store), no child process survived shutdown,
// and no goroutine leaked in the parent.
//
// Usage:
//
//	clusterstorm [-shards 3] [-paths 24] [-servers 6] [-duration 12s]
//	             [-hold 300ms] [-giveup 8s] [-bound 5s] [-poll 25ms]
//	             [-hb 150ms] [-kill 1] [-seed 1] [-min-cps 2]
//	             [-giveup-budget 0.05] [-store-backend btree]
//	             [-store-dir DIR] [-out BENCH_cluster.json] [-check]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"ipmedia/internal/box"
	"ipmedia/internal/pathmon"
	"ipmedia/internal/sig"
	"ipmedia/internal/store"
	"ipmedia/internal/storm"
	"ipmedia/internal/telemetry"
	"ipmedia/internal/transport"
)

// Setup-latency histograms, split by whether the dialed box is owned
// by this shard or a peer process.
const (
	metricSetupLocal = "cluster.setup_local"
	metricSetupCross = "cluster.setup_cross"
)

type options struct {
	shard        int // -1: parent
	shards       int
	paths        int
	servers      int
	duration     time.Duration
	hold         time.Duration
	giveup       time.Duration
	bound        time.Duration
	poll         time.Duration
	hb           time.Duration
	kills        int
	seed         int64
	minCPS       float64
	giveupBudget float64
	storeBackend string
	storeDir     string
	ctlAddr      string
	out          string
	check        bool
}

func parseFlags() *options {
	o := &options{}
	flag.IntVar(&o.shard, "shard", -1, "run as shard process N (internal; spawned by the parent)")
	flag.IntVar(&o.shards, "shards", 3, "shard processes in the fleet")
	flag.IntVar(&o.paths, "paths", 24, "concurrent call lifecycles across the fleet")
	flag.IntVar(&o.servers, "servers", 6, "holding device boxes across the fleet")
	flag.DurationVar(&o.duration, "duration", 12*time.Second, "storm window before drain")
	flag.DurationVar(&o.hold, "hold", 300*time.Millisecond, "mean hold time per call")
	flag.DurationVar(&o.giveup, "giveup", 8*time.Second, "client abandons a call not flowing after this long")
	flag.DurationVar(&o.bound, "bound", 5*time.Second, "bounded-time patience per temporal formula")
	flag.DurationVar(&o.poll, "poll", 25*time.Millisecond, "LTL tracker poll interval")
	flag.DurationVar(&o.hb, "hb", 150*time.Millisecond, "shard heartbeat cadence")
	flag.IntVar(&o.kills, "kill", 1, "shards to SIGKILL mid-storm")
	flag.Int64Var(&o.seed, "seed", 1, "seed for placement-independent schedules and jitter")
	flag.Float64Var(&o.minCPS, "min-cps", 2, "minimum aggregate completed calls per second")
	flag.Float64Var(&o.giveupBudget, "giveup-budget", 0.05, "max tolerated client give-up rate")
	flag.StringVar(&o.storeBackend, "store-backend", "btree", "index backend for shard stores")
	flag.StringVar(&o.storeDir, "store-dir", "", "base directory for shard stores (empty: a temp dir)")
	flag.StringVar(&o.ctlAddr, "ctl", "", "supervisor control address (internal; child only)")
	flag.StringVar(&o.out, "out", "", "write the result JSON here (empty: stdout only)")
	flag.BoolVar(&o.check, "check", true, "exit nonzero when a resilience gate fails")
	flag.Parse()
	return o
}

func main() {
	o := parseFlags()
	if o.shard >= 0 {
		childMain(o)
		return
	}
	parentMain(o)
}

func devName(i int) string { return fmt.Sprintf("dev%d", i) }
func cliName(i int) string { return fmt.Sprintf("cli%d", i) }

// ---------------------------------------------------------------------
// Shard report: what a child ships back over ctl/report.

type shardReport struct {
	Shard     int   `json:"shard"`
	Boxes     int   `json:"boxes"`
	Setups    int64 `json:"setups"`
	Completed int64 `json:"completed_calls"`
	Giveups   int64 `json:"call_giveups"`
	Clients   int64 `json:"clients"`
	Idle      int64 `json:"clients_drained"`

	Pathmon pathmon.Report `json:"pathmon"`

	CDRIssued  uint64 `json:"cdrs_issued"`
	CDRDurable uint64 `json:"cdrs_durable"`
	CDRCount   int    `json:"cdrs_in_log"`
	LookupMiss int64  `json:"store_lookup_miss"`

	LocalSetups     uint64  `json:"local_setups"`
	LocalSetupP95MS float64 `json:"local_setup_p95_ms"`
	CrossSetups     uint64  `json:"cross_setups"`
	CrossSetupP50MS float64 `json:"cross_setup_p50_ms"`
	CrossSetupP95MS float64 `json:"cross_setup_p95_ms"`
}

// ---------------------------------------------------------------------
// Child: one shard process.

func childMain(o *options) {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "[shard %d] "+format+"\n", append([]any{o.shard}, args...)...)
	}
	reg := telemetry.Enable()
	health := &telemetry.Health{}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		logf("http listen: %v", err)
		os.Exit(1)
	}
	go http.Serve(httpLn, telemetry.Handler(reg, health))

	st, err := store.Open(o.storeDir, store.Options{Backend: o.storeBackend})
	if err != nil {
		logf("store open: %v", err)
		os.Exit(1)
	}
	if rec := st.Recovery(); rec.Records > 0 {
		logf("store recovered: %d records, %d CDRs", rec.Records, st.CDRCount())
	}
	binder := store.NewBinder(st)

	// Inter-shard carriers: reliable channels over real TCP, multiplexed.
	// The seed is salted with the pid: rel channel identities derive from
	// the seed, and a restarted shard re-dialing a surviving peer with
	// its predecessor's identity would be "rebound" onto the dead
	// epoch's port — mismatched seqnos, silent stall. Each process
	// epoch must dial with identities of its own.
	carrierNet := transport.NewRelNetwork(transport.TCPNetwork{}, transport.RelConfig{
		Seed: o.seed + int64(o.shard) + int64(os.Getpid())*2654435761,
	})
	mux := transport.NewMux(carrierNet)
	carrierAddr, err := mux.ListenCarrier("127.0.0.1:0")
	if err != nil {
		logf("carrier listen: %v", err)
		os.Exit(1)
	}
	router := box.NewRouter(o.shard, o.shards, transport.NewMemNetwork(), mux)

	mon := pathmon.New()
	stats := &storm.Stats{}
	hLocal, hCross := telemetry.H(metricSetupLocal), telemetry.H(metricSetupCross)

	// This process creates exactly the boxes the placement function
	// assigns to it; the rest of the population lives in peer processes
	// reachable through the router.
	var runners []*box.Runner
	boxes := 0
	for i := 0; i < o.servers; i++ {
		name := devName(i)
		if box.ShardOfName(name, o.shards) != o.shard {
			continue
		}
		b := box.New(name, storm.DevProfile(name, 20000+i))
		// Only same-shard pairs are trackable here: a remote client's
		// slot state lives in another process, and a path with an
		// unobservable end cannot be held to its formula by this
		// tracker. Cross-shard behavior is gated at the call level.
		b.Hook = storm.DeviceHook(mon, name, func(from string) bool {
			return box.ShardOfName(from, o.shards) == o.shard
		})
		r := box.NewRunner(b, router)
		if err := r.Listen(name, nil); err != nil {
			logf("listen %s: %v", name, err)
			os.Exit(1)
		}
		mon.AddBox(r)
		runners = append(runners, r)
		boxes++
	}
	rng := rand.New(rand.NewSource(o.seed*7919 + int64(o.shard)))
	var clientCount int64
	for i := 0; i < o.paths; i++ {
		name := cliName(i)
		if box.ShardOfName(name, o.shards) != o.shard {
			continue
		}
		if err := st.PutProfile(store.Profile{Name: name, Features: []string{"storm"}}); err != nil {
			logf("profile %s: %v", name, err)
			os.Exit(1)
		}
		dev := devName(i % o.servers)
		hist := hLocal
		if box.ShardOfName(dev, o.shards) != o.shard {
			hist = hCross
		}
		b := box.New(name, storm.DevProfile(name, 30000+i))
		r := box.NewRunner(b, router)
		r.SetLifecycle(binder)
		// Every set-up lands in hist; the cross-shard histogram is the
		// number the capstone gates against the bound.
		r.SetProgram(storm.ClientProgram(stats, dev, o.hold, o.duration/4, o.giveup, rng.Int63(), hist.Observe))
		mon.AddBox(r)
		runners = append(runners, r)
		boxes++
		clientCount++
	}
	logf("hosting %d boxes (%d clients), carrier %s", boxes, clientCount, carrierAddr)

	tk := pathmon.NewTracker(mon, o.bound)
	stopPolling := storm.Poll(tk, o.poll, func(err error) { logf("tracker: %v", err) })

	stopCh := make(chan struct{})
	var stopOnce sync.Once
	var drainOnce sync.Once
	drain := func() {
		drainOnce.Do(func() {
			stats.Drain(clientCount, o.giveup+o.bound+5*time.Second)
			stopPolling()
			if err := st.Sync(); err != nil {
				logf("store sync: %v", err)
			}
		})
	}

	hooks := box.ControlHooks{
		Vitals: func(m *sig.Meta) {
			stt := tk.Stats()
			m.Attrs = sig.NewAttrs(
				"completed", strconv.FormatInt(stats.Completed.Load(), 10),
				"durable", strconv.FormatUint(st.DurableCDRs(), 10),
				"giveups", strconv.FormatInt(stats.Giveups.Load(), 10),
				"setups", strconv.FormatInt(stats.Setups.Load(), 10),
				"viol", strconv.Itoa(len(stt.Violations)),
			)
		},
		OnAddrs: func(table map[int]string) {
			for s, a := range table {
				router.SetAddr(s, a)
			}
		},
		OnStop: func() {
			stopOnce.Do(func() { close(stopCh) })
		},
		Report: func() string {
			// The report request IS the drain signal: park the clients,
			// final-poll the tracker, settle the WAL, then answer.
			drain()
			snap := reg.Snapshot()
			rep := shardReport{
				Shard:     o.shard,
				Boxes:     boxes,
				Setups:    stats.Setups.Load(),
				Completed: stats.Completed.Load(),
				Giveups:   stats.Giveups.Load(),
				Clients:   clientCount,
				Idle:      stats.Idle.Load(),
				Pathmon:   tk.FinalReport(),

				CDRIssued:  binder.Issued(),
				CDRDurable: st.DurableCDRs(),
				CDRCount:   st.CDRCount(),
				LookupMiss: int64(snap.Counters[store.MetricLookupMiss]),
			}
			if h, ok := snap.Histograms[metricSetupLocal]; ok {
				rep.LocalSetups = h.Count
				rep.LocalSetupP95MS = float64(h.P95) / float64(time.Millisecond)
			}
			if h, ok := snap.Histograms[metricSetupCross]; ok {
				rep.CrossSetups = h.Count
				rep.CrossSetupP50MS = float64(h.P50) / float64(time.Millisecond)
				rep.CrossSetupP95MS = float64(h.P95) / float64(time.Millisecond)
			}
			blob, _ := json.Marshal(rep)
			return string(blob)
		},
	}
	ctl, err := box.RunControl(transport.TCPNetwork{}, o.ctlAddr, o.shard, carrierAddr,
		httpLn.Addr().String(), o.hb, hooks)
	if err != nil {
		logf("control dial: %v", err)
		os.Exit(1)
	}
	health.SetReady(true)

	<-stopCh
	drain()
	for _, r := range runners {
		r.Stop()
	}
	router.Close()
	mux.Close()
	ctl.Close()
	st.Close()
	logf("clean exit: %d completed, %d CDRs durable", stats.Completed.Load(), st.DurableCDRs())
	os.Exit(0)
}

// ---------------------------------------------------------------------
// Parent: supervision, chaos, and the fleet audit.

type result struct {
	Date       string `json:"date"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`

	Shards     int   `json:"shards"`
	Paths      int   `json:"paths"`
	Servers    int   `json:"servers"`
	DurationMS int64 `json:"duration_ms"`
	Seed       int64 `json:"seed"`
	BoundMS    int64 `json:"bound_ms"`
	HBMS       int64 `json:"heartbeat_ms"`

	Kills           int     `json:"kills"`
	KillShard       int     `json:"kill_shard"`
	RecoverMS       float64 `json:"recover_ms"`
	Restarts        int     `json:"restarts"`
	GiveUpShards    int     `json:"gaveup_shards"`
	HeartbeatMisses int64   `json:"heartbeat_misses"`

	Setups          int64   `json:"setups"`
	Completed       int64   `json:"completed_calls"`
	CompletedAtKill int64   `json:"completed_at_kill"`
	CallGiveups     int64   `json:"call_giveups"`
	GiveupRate      float64 `json:"giveup_rate"`
	Drained         int64   `json:"clients_drained"`
	Clients         int64   `json:"clients"`
	CallsPerSec     float64 `json:"calls_per_sec"`

	LocalSetups     uint64  `json:"local_setups"`
	LocalSetupP95MS float64 `json:"local_setup_p95_ms"`
	CrossSetups     uint64  `json:"cross_setups"`
	CrossSetupP50MS float64 `json:"cross_setup_p50_ms"`
	CrossSetupP95MS float64 `json:"cross_setup_p95_ms"`

	LTLPolls      int      `json:"ltl_polls"`
	LTLViolations []string `json:"ltl_violations"`
	Wedged        []string `json:"wedged_paths"`
	VictimViols   int      `json:"victim_last_hb_violations"`

	Reconciliation store.FleetReport `json:"cdr_reconciliation"`

	ChildrenReaped     bool `json:"children_reaped"`
	GoroutinesBaseline int  `json:"goroutines_baseline"`
	GoroutinesFinal    int  `json:"goroutines_final"`
	Leaked             bool `json:"goroutines_leaked"`
}

func parentMain(o *options) {
	fatal := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "clusterstorm: "+format+"\n", args...)
		os.Exit(1)
	}
	if o.shards < 2 {
		fatal("need at least 2 shard processes (-shards)")
	}
	reg := telemetry.Enable()
	baselineG := runtime.NumGoroutine()

	dir := o.storeDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "clusterstorm-*")
		if err != nil {
			fatal("%v", err)
		}
		defer os.RemoveAll(dir)
	}
	dirs := make(map[int]string, o.shards)
	for i := 0; i < o.shards; i++ {
		dirs[i] = filepath.Join(dir, fmt.Sprintf("s%d", i))
	}

	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	sup, err := box.NewSupervisor(box.SupervisorConfig{
		Shards:    o.shards,
		Heartbeat: o.hb,
		Seed:      o.seed,
		Command: func(shard int, ctlAddr string) *exec.Cmd {
			cmd := exec.Command(self,
				"-shard", strconv.Itoa(shard),
				"-ctl", ctlAddr,
				"-shards", strconv.Itoa(o.shards),
				"-paths", strconv.Itoa(o.paths),
				"-servers", strconv.Itoa(o.servers),
				"-duration", o.duration.String(),
				"-hold", o.hold.String(),
				"-giveup", o.giveup.String(),
				"-bound", o.bound.String(),
				"-poll", o.poll.String(),
				"-hb", o.hb.String(),
				"-seed", strconv.FormatInt(o.seed, 10),
				"-store-backend", o.storeBackend,
				"-store-dir", dirs[shard],
			)
			cmd.Stderr = os.Stderr
			return cmd
		},
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "clusterstorm: "+format+"\n", args...)
		},
	})
	if err != nil {
		fatal("%v", err)
	}
	if err := sup.AwaitReady(15 * time.Second); err != nil {
		sup.Stop(2 * time.Second)
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "clusterstorm: fleet of %d shard processes ready; %d paths vs %d devices for %v\n",
		o.shards, o.paths, o.servers, o.duration)

	// Warm up, then the chaos: SIGKILL — not a polite stop — of a live
	// shard, mid-storm. Bank the victim's last heartbeat first: those
	// numbers are all that survives of its pre-kill epoch.
	warm := o.duration * 2 / 5
	time.Sleep(warm)
	victim := pickVictim(o)
	banked := map[string]uint64{}
	var completedAtKill int64
	var recoverMS float64
	if o.kills > 0 {
		for i := 0; i < o.shards; i++ {
			completedAtKill += int64(vital(sup.Vitals(i), "completed"))
		}
		v := sup.Vitals(victim)
		for k := range v {
			banked[k] = vital(v, k)
		}
		fmt.Fprintf(os.Stderr, "clusterstorm: SIGKILL shard %d (pid %d) — last hb: %d completed, %d CDRs durable\n",
			victim, sup.Pid(victim), banked["completed"], banked["durable"])
		restartsBefore := sup.Restarts(victim)
		killAt := time.Now()
		sup.Kill(victim)
		// The SIGKILL races the supervisor's exit watcher: readiness only
		// drops once Wait returns. Recovery starts at the kill and ends
		// when the replacement process reports ready, so wait for the
		// restart to be counted before asking about readiness.
		for deadline := killAt.Add(20 * time.Second); sup.Restarts(victim) == restartsBefore && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
		}
		if err := sup.AwaitReady(20 * time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "clusterstorm: fleet did not recover: %v\n", err)
		}
		recoverMS = float64(time.Since(killAt)) / float64(time.Millisecond)
		fmt.Fprintf(os.Stderr, "clusterstorm: shard %d back (pid %d) in %.0f ms\n",
			victim, sup.Pid(victim), recoverMS)
	}
	time.Sleep(o.duration - warm)

	// Drain and collect: the report request parks each shard's clients
	// and answers with its final numbers; shards drain concurrently.
	reports := make([]shardReport, o.shards)
	repErrs := make([]error, o.shards)
	var wg sync.WaitGroup
	for i := 0; i < o.shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := sup.Report(i, o.giveup+o.bound+15*time.Second)
			if err == nil {
				err = json.Unmarshal([]byte(body), &reports[i])
			}
			repErrs[i] = err
		}(i)
	}
	wg.Wait()

	restarts := 0
	gaveUp := 0
	for i := 0; i < o.shards; i++ {
		restarts += sup.Restarts(i)
		if sup.GaveUp(i) {
			gaveUp++
		}
	}
	sup.Stop(5 * time.Second)
	reaped := true
	for i := 0; i < o.shards; i++ {
		if sup.Alive(i) {
			reaped = false
		}
	}

	// Fleet-wide CDR reconciliation: reopen every shard's store. What a
	// shard must not have lost is the larger of its last heartbeat's
	// durable count (the victim's death snapshot) and its final report.
	acked := make(map[int]uint64, o.shards)
	for i := 0; i < o.shards; i++ {
		acked[i] = reports[i].CDRDurable
	}
	if o.kills > 0 && banked["durable"] > acked[victim] {
		acked[victim] = banked["durable"]
	}
	recon, reconErr := store.ReconcileFleet(dirs, acked, store.Options{Backend: o.storeBackend})
	if reconErr != nil {
		fmt.Fprintf(os.Stderr, "clusterstorm: reconciliation: %v\n", reconErr)
	}

	// Merge the fleet view. The victim's final report covers only its
	// post-restart epoch; its banked heartbeat covers the first.
	fleetPM := pathmon.Report{Violations: []string{}, Wedged: []string{}}
	res := result{
		Date:       time.Now().Format("2006-01-02"),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Shards:     o.shards,
		Paths:      o.paths,
		Servers:    o.servers,
		DurationMS: o.duration.Milliseconds(),
		Seed:       o.seed,
		BoundMS:    o.bound.Milliseconds(),
		HBMS:       o.hb.Milliseconds(),

		Kills:           o.kills,
		KillShard:       victim,
		RecoverMS:       recoverMS,
		Restarts:        restarts,
		GiveUpShards:    gaveUp,
		CompletedAtKill: completedAtKill,

		ChildrenReaped:     reaped,
		GoroutinesBaseline: baselineG,
	}
	for i := 0; i < o.shards; i++ {
		r := reports[i]
		res.Setups += r.Setups
		res.Completed += r.Completed
		res.CallGiveups += r.Giveups
		res.Drained += r.Idle
		res.Clients += r.Clients
		res.LocalSetups += r.LocalSetups
		res.CrossSetups += r.CrossSetups
		if r.LocalSetupP95MS > res.LocalSetupP95MS {
			res.LocalSetupP95MS = r.LocalSetupP95MS
		}
		if r.CrossSetupP95MS > res.CrossSetupP95MS {
			res.CrossSetupP95MS = r.CrossSetupP95MS
		}
		if r.CrossSetupP50MS > res.CrossSetupP50MS {
			res.CrossSetupP50MS = r.CrossSetupP50MS
		}
		fleetPM = fleetPM.Merge(r.Pathmon)
	}
	if o.kills > 0 {
		res.Setups += int64(banked["setups"])
		res.Completed += int64(banked["completed"])
		res.CallGiveups += int64(banked["giveups"])
		res.VictimViols = int(banked["viol"])
	}
	attempts := res.Setups + res.CallGiveups
	if attempts > 0 {
		res.GiveupRate = float64(res.CallGiveups) / float64(attempts)
	}
	res.CallsPerSec = float64(res.Completed) / o.duration.Seconds()
	res.LTLPolls = fleetPM.Polls
	res.LTLViolations = fleetPM.Violations
	res.Wedged = fleetPM.Wedged
	res.Reconciliation = recon

	snap := reg.Snapshot()
	for i := 0; i < o.shards; i++ {
		res.HeartbeatMisses += int64(snap.Counters[box.MetricHeartbeatMiss+".s"+strconv.Itoa(i)])
	}

	res.GoroutinesFinal, res.Leaked = storm.SettledGoroutines(baselineG)

	if _, err := storm.WriteReport(res, o.out); err != nil {
		fatal("%v", err)
	}

	if !o.check {
		return
	}
	fail := func(format string, args ...any) { storm.FailGate("clusterstorm", format, args...) }
	for i, err := range repErrs {
		if err != nil {
			fail("shard %d report: %v", i, err)
		}
	}
	if o.kills > 0 && restarts < o.kills {
		fail("killed %d shard(s) but supervisor restarted %d", o.kills, restarts)
	}
	if gaveUp > 0 {
		fail("%d shard(s) exhausted restart intensity", gaveUp)
	}
	if n := len(res.LTLViolations); n > 0 {
		fail("%d bounded-time formula violations, first: %s", n, res.LTLViolations[0])
	}
	if res.VictimViols > 0 {
		fail("victim reported %d violations in its last heartbeat", res.VictimViols)
	}
	if n := len(res.Wedged); n > 0 {
		fail("%d wedged paths after drain, first: %s", n, res.Wedged[0])
	}
	if res.Drained < res.Clients {
		fail("only %d/%d clients drained", res.Drained, res.Clients)
	}
	if res.GiveupRate >= o.giveupBudget {
		fail("give-up rate %.2f%% >= budget %.2f%%", res.GiveupRate*100, o.giveupBudget*100)
	}
	if o.kills > 0 && res.Completed <= res.CompletedAtKill {
		fail("no calls completed after the kill: %d at kill, %d final", res.CompletedAtKill, res.Completed)
	}
	if o.kills > 0 && reports[victim].Clients > 0 && reports[victim].Completed == 0 {
		fail("restarted shard %d completed no calls in its new epoch", victim)
	}
	if res.CrossSetups == 0 {
		fail("no cross-shard setups observed — the fleet never exercised the carriers")
	}
	if res.CrossSetupP95MS > float64(o.bound.Milliseconds()) {
		fail("cross-shard setup p95 %.1f ms exceeds the %v bound", res.CrossSetupP95MS, o.bound)
	}
	if res.CallsPerSec < o.minCPS {
		fail("aggregate %.2f calls/s below floor %.2f", res.CallsPerSec, o.minCPS)
	}
	if reconErr != nil {
		fail("reconciliation: %v", reconErr)
	}
	if !recon.OK {
		fail("CDR reconciliation failed: %d lost, %d duplicates", recon.Lost, recon.Duplicates)
	}
	if !reaped {
		fail("child process leak: a shard survived Stop")
	}
	if res.Leaked {
		fail("goroutines leaked in parent: baseline %d, final %d", baselineG, res.GoroutinesFinal)
	}
	fmt.Fprintf(os.Stderr, "clusterstorm: all gates passed: %d lifecycles across %d processes (%.1f calls/s), %d restart(s), recovery %.0f ms, %d CDRs reconciled, 0 violations\n",
		res.Completed, o.shards, res.CallsPerSec, restarts, recoverMS, recon.TotalCDRs)
}

// pickVictim chooses the shard to kill: the one hosting the most
// clients, so the kill actually hurts.
func pickVictim(o *options) int {
	counts := make([]int, o.shards)
	for i := 0; i < o.paths; i++ {
		counts[box.ShardOfName(cliName(i), o.shards)]++
	}
	victim, best := 0, -1
	for s, c := range counts {
		if c > best {
			victim, best = s, c
		}
	}
	return victim
}

func vital(v map[string]string, key string) uint64 {
	n, _ := strconv.ParseUint(v[key], 10, 64)
	return n
}
