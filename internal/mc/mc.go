// Package mc is an explicit-state model checker, the stdlib-only
// substitute for the Spin verification of paper Section VIII-A. Where
// the paper modeled its Java implementation in Promela, this checker
// explores the actual Go goal and slot engines directly: a Model
// supplies an initial state; each state enumerates its successors
// (signal deliveries and nondeterministic internal moves); the checker
// builds the full reachable graph, then checks safety (deadlocks,
// final-state invariants, channel emptiness) and the paper's temporal
// properties under exact weak fairness of queue service.
//
// Exploration runs single-threaded by default (Options.Workers <= 1,
// the reference implementation) or on a worker pool (parallel.go) that
// expands frontier states concurrently against a lock-striped visited
// set. Both modes produce the same state graph up to state numbering:
// identical state and transition counts and identical verdicts.
package mc

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"ipmedia/internal/ltl"
	"ipmedia/internal/telemetry"
)

// Telemetry instrument names exported by this package. The counters
// advance live during exploration; the gauges summarize the last
// completed run.
const (
	// MetricStates counts distinct states interned across all runs.
	MetricStates = "mc.states"
	// MetricTransitions counts transitions explored across all runs.
	MetricTransitions = "mc.transitions"
	// MetricStatesPerSec is the exploration rate of the last run.
	MetricStatesPerSec = "mc.states_per_sec"
	// MetricWorkerUtil is the percentage of worker wall-clock spent
	// expanding states (vs. waiting on the frontier) in the last run.
	MetricWorkerUtil = "mc.worker_utilization_pct"
)

// State is one global state of the model.
type State interface {
	// AppendKey appends a canonical fingerprint to dst and returns the
	// extended slice; two states are identical iff their appended
	// bytes are equal. Append-style so the checker can fingerprint
	// millions of states through one reused scratch buffer.
	AppendKey(dst []byte) []byte
	// Succs enumerates the successor states with their transition
	// labels. An empty slice marks a terminal state.
	Succs() []Succ
	// Obs evaluates the path-state observation in this state.
	Obs() ltl.Obs
	// QueueMask returns a bitmask of the model's nonempty queues
	// (bit i set iff queue i is nonempty). Used for weak fairness.
	QueueMask() uint64
	// Quiescent reports whether the state is a legitimate resting
	// state: all queues empty and no internal moves pending.
	Quiescent() bool
	// Check validates state invariants in a quiescent state (e.g. the
	// paper's "each slot is closed or flowing"); non-nil means a safety
	// violation.
	Check() error
}

// InvariantState is an optional State capability: Invariant is checked
// in EVERY reachable state (not only quiescent ones). It carries the
// inductive-lemma checks of paper Section VIII-B — properties such as
// the flowlink's up-to-date soundness that must hold continuously.
type InvariantState interface {
	State
	Invariant() error
}

// Succ is one labeled transition.
type Succ struct {
	State State
	// Queue is the index of the queue whose head was delivered, or -1
	// for internal (chaos/switch) moves, which are not fairness-bound.
	Queue int
	// Label describes the transition for counterexamples.
	Label string
}

// Options tunes exploration.
type Options struct {
	// MaxStates aborts exploration beyond this many states (0: 30M).
	MaxStates int
	// HashCompaction stores 64-bit FNV-1a fingerprints instead of full
	// state keys — the counterpart of the compression the paper's Spin
	// runs relied on ("Even with partial order reduction, compression,
	// and a few simplifying assumptions...", Section VIII-A). Memory
	// per state drops to a few dozen bytes at the cost of a collision
	// probability of about states²/2⁶⁵; the Result reports the bound.
	HashCompaction bool
	// Workers sets the number of exploration goroutines. Values <= 1
	// select the single-threaded reference implementation; higher
	// values enable the worker pool of parallel.go. Both modes agree
	// on state/transition counts and verdicts.
	Workers int
}

// Graph is the explored state graph.
type Graph struct {
	obs   []ltl.Obs
	masks []uint64
	quies []bool
	adj   [][]edge
	// parent edge for counterexample reconstruction
	parent []int32
	plabel []string

	// KeyBytes is the total size of all state fingerprints, the bulk of
	// the checker's memory use.
	KeyBytes int64
}

type edge struct {
	to    int32
	queue int32
}

// Result summarizes one model-checking run, the data behind the
// paper's Section VIII-A statistics.
type Result struct {
	States      int
	Transitions int
	Elapsed     time.Duration
	AllocBytes  uint64 // bytes allocated during exploration (what the explorer built, kept or not)
	Workers     int    // exploration goroutines actually used
	Deadlocks   []string
	SafetyErrs  []string
	Truncated   bool
	// CollisionBound is the approximate probability that hash
	// compaction merged two distinct states (0 without compaction).
	CollisionBound float64
}

// violation records a safety problem found during exploration by state
// id. Trace reconstruction is deferred until the graph is complete, so
// the parallel explorer's workers never touch the shared parent
// arrays.
type violation struct {
	id   int32
	kind violKind
	msg  string
}

type violKind uint8

const (
	violInvariant violKind = iota
	violDeadlock
	violFinal
)

// maxInvariantReports bounds how many continuous-invariant violations
// are collected; one is enough for a verdict and each carries a trace.
const maxInvariantReports = 16

// Explore builds the reachable state graph by breadth-first search and
// performs the paper's safety checks along the way: no deadlocks or
// other abnormal terminations, and every final state passes
// State.Check (each slot closed or flowing, channels empty).
//
// With opts.Workers > 1 the frontier is expanded by a worker pool; see
// parallel.go. The sequential path below is the reference both for
// semantics and for the parallel-agreement tests.
func Explore(init State, opts Options) (*Graph, *Result) {
	maxStates := opts.MaxStates
	if maxStates == 0 {
		maxStates = 30_000_000
	}
	// Bytes allocated, not heap in use: a difference of HeapAlloc
	// readings depends on when the collector last ran.
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()

	var g *Graph
	var res *Result
	var viols []violation
	if opts.Workers > 1 {
		g, res, viols = exploreParallel(init, opts, maxStates)
	} else {
		g, res, viols = exploreSeq(init, opts, maxStates)
	}

	res.States = len(g.obs)
	if opts.HashCompaction {
		n := float64(res.States)
		res.CollisionBound = n * n / (2 * 18446744073709551616.0)
	}
	g.report(viols, res)
	res.Elapsed = time.Since(start)
	if secs := res.Elapsed.Seconds(); secs > 0 {
		telemetry.G(MetricStatesPerSec).Set(int64(float64(res.States) / secs))
	}
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	res.AllocBytes = msAfter.TotalAlloc - msBefore.TotalAlloc
	return g, res
}

// exploreSeq is the single-threaded reference explorer.
func exploreSeq(init State, opts Options, maxStates int) (*Graph, *Result, []violation) {
	g := newGraph()
	res := &Result{Workers: 1}
	var keys map[string]int32
	var sums map[uint64]int32
	if opts.HashCompaction {
		sums = make(map[uint64]int32, 1<<12)
	} else {
		keys = make(map[string]int32, 1<<12)
	}
	statesC := telemetry.C(MetricStates)
	transC := telemetry.C(MetricTransitions)
	telemetry.G(MetricWorkerUtil).Set(100)

	var viols []violation
	invariantViols := 0
	keyBuf := make([]byte, 0, 256)

	add := func(s State, parent int32, label string) int32 {
		id := int32(len(g.obs))
		g.obs = append(g.obs, s.Obs())
		g.masks = append(g.masks, s.QueueMask())
		g.quies = append(g.quies, s.Quiescent())
		g.adj = append(g.adj, nil)
		g.parent = append(g.parent, parent)
		g.plabel = append(g.plabel, label)
		statesC.Inc()
		return id
	}
	intern := func(s State, parent int32, label string) (int32, bool) {
		keyBuf = s.AppendKey(keyBuf[:0])
		if opts.HashCompaction {
			h := fnv64(keyBuf)
			if id, ok := sums[h]; ok {
				return id, false
			}
			id := add(s, parent, label)
			sums[h] = id
			g.KeyBytes += 8
			return id, true
		}
		if id, ok := keys[string(keyBuf)]; ok {
			return id, false
		}
		id := add(s, parent, label)
		keys[string(keyBuf)] = id
		g.KeyBytes += int64(len(keyBuf))
		return id, true
	}

	type item struct {
		id int32
		s  State
	}
	id0, _ := intern(init, -1, "init")
	queue := make([]item, 0, 1024)
	queue = append(queue, item{id0, init})
	head := 0
	for head < len(queue) {
		if len(g.obs) > maxStates {
			res.Truncated = true
			break
		}
		it := queue[head]
		queue[head] = item{} // release the State for GC
		head++
		// The naive queue = queue[1:] pins the whole backing array for
		// the run; a head index with periodic in-place compaction keeps
		// the frontier's working set proportional to its live size.
		if head >= 4096 && head*2 >= len(queue) {
			n := copy(queue, queue[head:])
			for i := n; i < len(queue); i++ {
				queue[i] = item{}
			}
			queue = queue[:n]
			head = 0
		}
		if inv, ok := it.s.(InvariantState); ok {
			if err := inv.Invariant(); err != nil && invariantViols < maxInvariantReports {
				invariantViols++
				viols = append(viols, violation{it.id, violInvariant, err.Error()})
			}
		}
		succs := it.s.Succs()
		if len(succs) == 0 {
			// Terminal: legitimate only if quiescent and invariant-clean.
			if !it.s.Quiescent() {
				viols = append(viols, violation{it.id, violDeadlock, ""})
			} else if err := it.s.Check(); err != nil {
				viols = append(viols, violation{it.id, violFinal, err.Error()})
			}
			// Model a legitimate final state as stuttering.
			g.adj[it.id] = append(g.adj[it.id], edge{to: it.id, queue: -1})
			res.Transitions++
			transC.Inc()
			continue
		}
		if it.s.Quiescent() {
			// Quiescent but with internal moves still possible: the
			// invariants must hold here too.
			if err := it.s.Check(); err != nil {
				viols = append(viols, violation{it.id, violFinal, err.Error()})
			}
		}
		es := make([]edge, 0, len(succs))
		for _, sc := range succs {
			id, fresh := intern(sc.State, it.id, sc.Label)
			es = append(es, edge{to: id, queue: int32(sc.Queue)})
			if fresh {
				queue = append(queue, item{id, sc.State})
			}
		}
		g.adj[it.id] = es
		res.Transitions += len(succs)
		transC.Add(uint64(len(succs)))
	}
	return g, res, viols
}

// newGraph pre-sizes the per-state arrays so early growth does not
// churn through a cascade of small reallocations.
func newGraph() *Graph {
	const c = 1024
	return &Graph{
		obs:    make([]ltl.Obs, 0, c),
		masks:  make([]uint64, 0, c),
		quies:  make([]bool, 0, c),
		adj:    make([][]edge, 0, c),
		parent: make([]int32, 0, c),
		plabel: make([]string, 0, c),
	}
}

// report renders collected violations into the Result, reconstructing
// counterexample traces now that the graph is complete.
func (g *Graph) report(viols []violation, res *Result) {
	for _, v := range viols {
		switch v.kind {
		case violDeadlock:
			res.Deadlocks = append(res.Deadlocks, g.trace(int(v.id)))
		case violInvariant:
			res.SafetyErrs = append(res.SafetyErrs, fmt.Sprintf("invariant: %s\n%s", v.msg, g.trace(int(v.id))))
		case violFinal:
			res.SafetyErrs = append(res.SafetyErrs, fmt.Sprintf("%s\n%s", v.msg, g.trace(int(v.id))))
		}
	}
}

// trace reconstructs the labels along the search-tree path to a state.
func (g *Graph) trace(id int) string {
	var labels []string
	for id >= 0 && int(g.parent[id]) != id {
		labels = append(labels, g.plabel[id])
		id = int(g.parent[id])
		if len(labels) > 200 {
			break
		}
	}
	var b strings.Builder
	n := 0
	for _, l := range labels {
		n += len(l) + 3
	}
	b.Grow(n)
	for i := len(labels) - 1; i >= 0; i-- {
		b.WriteString("  ")
		b.WriteString(labels[i])
		b.WriteByte('\n')
	}
	return b.String()
}

// States returns the number of states in the graph.
func (g *Graph) States() int { return len(g.obs) }

// fnv64 is FNV-1a over the state key.
func fnv64(p []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= 1099511628211
	}
	return h
}
