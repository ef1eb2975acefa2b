// bench is the repository's benchmark: four named workloads over the
// live call and media runtime, a fixed set of end-to-end metrics with
// regression bounds, and a traced pass that measures every layer at
// the port it presents to the layer above. See README.md.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash bench/run.sh                  # all four workloads, untraced then traced
//	bash bench/run.sh -smoke           # the same in a few seconds, checks armed
//	bash bench/run.sh -selfcheck 3     # two alternating sets of 3 runs, compared
//
// A single-workload run prints its metrics to standard error and one
// JSON object as the last line of standard output.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func main() {
	cfg := config{}
	trace := 0
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: calls-sat, calls-paced, calls-mux, media-ts (empty: all four, untraced then traced)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the call schedule, hold jitter, subscriber draws and burst lengths")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced pass reporting the per-layer metrics; 0: untraced, reporting the end-to-end metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "shrink windows, warm-up and populations so every pass takes about a second")
	selfcheck := flag.Int("selfcheck", 0, "run two alternating sets of N untraced runs per workload and compare them against the bounds")
	flag.StringVar(&cfg.outDir, "out", defaultOutDir(), "directory for scratch stores and trace files")
	flag.Parse()
	cfg.trace = trace != 0

	switch {
	case *selfcheck > 0:
		os.Exit(runSelfcheck(cfg, *selfcheck))
	case cfg.workload == "":
		os.Exit(runAll(cfg))
	}
	if _, ok := specFor(cfg.workload); !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printHuman(os.Stderr, cfg, res)
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
	if !res.Correct {
		os.Exit(1)
	}
}

// defaultOutDir is bench/out from the repository root and out from
// inside bench/ (go run ., go test).
func defaultOutDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return "bench/out"
	}
	return "out"
}

func printHuman(w *os.File, cfg config, res *result) {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	if cfg.smoke {
		mode += " smoke (window ignored)"
	}
	fmt.Fprintf(w, "== %s  seed=%d  window=%gs  %s ==\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	fmt.Fprintf(w, "   ops_attempted=%d ops_failed=%d latency_samples=%d\n", res.Attempted, res.Failed, res.samples)
	q1, q2, q3 := quartiles(res.setups)
	fmt.Fprintf(w, "   set-ups:           %d, quartiles %.4f %.4f %.4f s\n", len(res.setups), q1, q2, q3)
	fmt.Fprintf(w, "   slices ops/s:      %.0f\n", res.rates)
	fmt.Fprintf(w, "   slices cpu µs/op:  %.1f\n", res.cpus)
	section := func(title string, defs []metricDef) {
		fmt.Fprintf(w, "   -- %s --\n", title)
		for _, d := range defs {
			if v, ok := res.all[d.name]; ok {
				fmt.Fprintf(w, "   %-34s %14.4f %s\n", d.name, v, d.unit)
			}
		}
	}
	section("end to end", endToEnd)
	section("per layer", perLayer)
	for _, v := range res.violations {
		fmt.Fprintf(w, "   CHECK FAILED: %s\n", v)
	}
}

// child runs one workload in a fresh process of this same binary, so
// every run starts from process start as the acceptance driver's do,
// and returns its parsed result line.
func child(cfg config, workload string, trace bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", t, "--out", cfg.outDir}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	res := &result{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	return res, nil
}

// runAll runs every workload untraced, then traced; each child prints
// its own table.
func runAll(cfg config) int {
	code := 0
	for _, traced := range []bool{false, true} {
		for _, s := range workloadSpecs {
			res, err := child(cfg, s.name, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
				continue
			}
			if !res.Correct {
				code = 1
			}
		}
	}
	return code
}

// runSelfcheck runs two alternating sets of n untraced runs of this
// same build per workload and prints, per workload × end-to-end
// metric, both medians, the quartile spread, the relative difference
// and the bound — the table committed as SELFCHECK.md.
func runSelfcheck(cfg config, n int) int {
	fmt.Printf("# Self-check: two alternating sets of %d runs of one build\n\n", n)
	fmt.Printf("window %gs, seeds %d… (set A and set B use the same seeds). `diff` is how much worse B's median is than A's (negative: better); `spread` is (Q3−Q1)/median of the wider set.\n\n", cfg.seconds, cfg.seed)
	fmt.Println("| workload | metric | unit | median A | median B | diff | spread | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	code := 0
	for _, s := range workloadSpecs {
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < n; i++ {
			for set := 0; set < 2; set++ {
				c := cfg
				c.seed = cfg.seed + int64(i)
				res, err := child(c, s.name, false)
				if err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: selfcheck: %s run %d%c failed: %v\n", s.name, i, 'A'+set, err)
					code = 1
					continue
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			diff := (mb - ma) / ma
			if d.higherBetter {
				diff = -diff
			}
			spread := iqrRatio(a)
			if sb := iqrRatio(b); sb > spread {
				spread = sb
			}
			verdict := "ok"
			if diff > d.bound {
				verdict = "OVER BOUND"
				code = 1
			}
			fmt.Printf("| %s | %s | %s | %.4g | %.4g | %+.2f%% | %.2f%% | %.0f%% | %s |\n",
				s.name, d.name, d.unit, ma, mb, diff*100, spread*100, d.bound*100, verdict)
		}
	}
	return code
}
