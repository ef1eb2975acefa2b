// pathcheck runs the verification suite of paper Section VIII-A: the
// twelve signaling-path models — every end-goal combination, with and
// without a flowlink — checked for safety (no deadlocks; final states
// have every slot closed or flowing and all channels empty) and for
// their Section V temporal specification under weak fairness.
//
// Usage:
//
//	pathcheck [-budget N] [-flowlinks N] [-workers N] [-blowup] [-bench FILE]
//
// -budget sets the chaos budget of the nondeterministic initial phases
// (default: the per-model defaults). -flowlinks restricts to one row
// of the suite. -workers sets the exploration goroutine count (default
// GOMAXPROCS; 1 selects the sequential reference explorer). -blowup
// prints the flowlink cost-comparison table that reproduces the
// paper's ×300 memory / ×1000 time observation. -bench writes a JSON
// record of suite wall-clock at workers 1 vs N (see BENCH_mc.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"ipmedia/internal/mc"
	"ipmedia/internal/mcmodel"
)

func main() {
	budget := flag.Int("budget", 0, "chaos budget per goal object (0: per-model default)")
	flowlinks := flag.Int("flowlinks", -1, "check only paths with this many flowlinks (-1: both 0 and 1)")
	blowup := flag.Bool("blowup", false, "print the flowlink cost-comparison table")
	maxStates := flag.Int("maxstates", 30_000_000, "abort exploration beyond this many states")
	compact := flag.Bool("compact", false, "hash compaction: 64-bit state fingerprints (like Spin's compression)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "exploration goroutines (1: sequential reference)")
	bench := flag.String("bench", "", "write a workers-1-vs-N suite benchmark as JSON to this file")
	flag.Parse()

	opts := mc.Options{MaxStates: *maxStates, HashCompaction: *compact, Workers: *workers}
	if *bench != "" {
		runBench(opts, *bench)
		return
	}
	if *blowup {
		runBlowup(opts)
		return
	}

	fls := []int{0, 1}
	if *flowlinks >= 0 {
		fls = []int{*flowlinks}
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "MODEL\tSPEC\tSTATES\tTRANSITIONS\tTIME\tALLOCATED\tSAFETY\tLIVENESS")
	failed := 0
	for _, fl := range fls {
		for _, cfg := range mcmodel.Configs(fl) {
			cfg.ChaosBudget = *budget
			v := mcmodel.Check(cfg, opts)
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%v\t%s\t%s\t%s\n",
				v.Config.Name(), v.Prop,
				v.Result.States, v.Result.Transitions, v.Result.Elapsed.Round(1e6),
				fmtBytes(v.Result.AllocBytes),
				verdict(v.Safety), verdict(v.Liveness))
			if !v.OK() {
				failed++
			}
		}
	}
	w.Flush()
	if failed > 0 {
		fmt.Printf("\n%d model(s) FAILED\n", failed)
		os.Exit(1)
	}
	fmt.Println("\nall models verified: safety + temporal specification hold under weak fairness")
}

// benchRun is one suite pass at a fixed worker count.
type benchRun struct {
	Workers     int     `json:"workers"`
	States      int     `json:"states"`
	Transitions int     `json:"transitions"`
	WallMS      float64 `json:"wall_ms"`
	StatesPerS  float64 `json:"states_per_sec"`
}

// benchReport is the BENCH_mc.json schema.
type benchReport struct {
	Date       string     `json:"date"`
	GoMaxProcs int        `json:"gomaxprocs"`
	NumCPU     int        `json:"num_cpu"`
	Budget     string     `json:"budget"`
	Runs       []benchRun `json:"runs"`
	SpeedupNx1 float64    `json:"speedup_workersN_vs_1"`
	Note       string     `json:"note,omitempty"`
}

// runBench runs the twelve-model suite once sequentially and once at
// opts.Workers, and writes the comparison as JSON. Verdicts must pass
// and both runs must agree on totals, so this doubles as an end-to-end
// agreement check.
func runBench(opts mc.Options, path string) {
	runAt := func(workers int) benchRun {
		o := opts
		o.Workers = workers
		r := benchRun{Workers: workers}
		start := time.Now()
		for _, v := range mcmodel.Suite(o) {
			if !v.OK() {
				fmt.Fprintf(os.Stderr, "bench: %s FAILED: safety=%v liveness=%v\n", v.Config.Name(), v.Safety, v.Liveness)
				os.Exit(1)
			}
			r.States += v.Result.States
			r.Transitions += v.Result.Transitions
		}
		wall := time.Since(start)
		r.WallMS = float64(wall.Microseconds()) / 1000
		r.StatesPerS = float64(r.States) / wall.Seconds()
		return r
	}
	seq := runAt(1)
	rep := benchReport{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Budget:     "per-model defaults",
		Runs:       []benchRun{seq},
	}
	if n := opts.Workers; n > 1 {
		par := runAt(n)
		if par.States != seq.States || par.Transitions != seq.Transitions {
			fmt.Fprintf(os.Stderr, "bench: parallel totals (%d, %d) disagree with sequential (%d, %d)\n",
				par.States, par.Transitions, seq.States, seq.Transitions)
			os.Exit(1)
		}
		rep.Runs = append(rep.Runs, par)
		rep.SpeedupNx1 = seq.WallMS / par.WallMS
	} else {
		rep.SpeedupNx1 = 1
	}
	if runtime.NumCPU() == 1 {
		rep.Note = "single-CPU host: parallel mode cannot beat sequential wall-clock here; see EXPERIMENTS.md"
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: workers=1 %.0fms", path, seq.WallMS)
	if len(rep.Runs) > 1 {
		fmt.Printf(", workers=%d %.0fms (x%.2f)", rep.Runs[1].Workers, rep.Runs[1].WallMS, rep.SpeedupNx1)
	}
	fmt.Println()
}

func runBlowup(opts mc.Options) {
	// Same chaos budget on both sides so the comparison isolates the
	// flowlink (paper: "varying only in that one has a flowlink and the
	// other does not").
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "PATH TYPE\tSTATES 0fl\tSTATES 1fl\tRATIO\tTIME 0fl\tTIME 1fl\tRATIO")
	var sumStates, sumTime float64
	rows := 0
	for _, combo := range mcmodel.Combos {
		base := mcmodel.Check(mcmodel.Config{Left: combo[0], Right: combo[1], Flowlinks: 0, ChaosBudget: 2}, opts)
		link := mcmodel.Check(mcmodel.Config{Left: combo[0], Right: combo[1], Flowlinks: 1, ChaosBudget: 2}, opts)
		sRatio := float64(link.Result.States) / float64(base.Result.States)
		tRatio := float64(link.Result.Elapsed) / float64(base.Result.Elapsed)
		fmt.Fprintf(w, "%s--%s\t%d\t%d\tx%.0f\t%v\t%v\tx%.0f\n",
			combo[0], combo[1],
			base.Result.States, link.Result.States, sRatio,
			base.Result.Elapsed.Round(1e6), link.Result.Elapsed.Round(1e6), tRatio)
		sumStates += sRatio
		sumTime += tRatio
		rows++
		if !base.OK() || !link.OK() {
			fmt.Fprintf(w, "\tVERIFICATION FAILED: %v %v %v %v\n", base.Safety, base.Liveness, link.Safety, link.Liveness)
		}
	}
	w.Flush()
	fmt.Printf("\naverage blow-up from one flowlink: states x%.0f, time x%.0f\n", sumStates/float64(rows), sumTime/float64(rows))
	fmt.Println("(paper, on its Spin models: memory x300, time x1000 on average)")
}

func verdict(err error) string {
	if err == nil {
		return "ok"
	}
	s := err.Error()
	if len(s) > 60 {
		s = s[:60] + "..."
	}
	return "FAIL: " + s
}

func fmtBytes(b uint64) string {
	switch {
	case b > 1<<30:
		return fmt.Sprintf("%.1fGB", float64(b)/(1<<30))
	case b > 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%dKB", b/1024)
	}
}
