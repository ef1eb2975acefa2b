// benchpair compares the benchmark at a reference commit (the parent)
// with the working tree (the change) by alternated pairs of runs, the
// procedure bench/README.md describes for a claimed gain. It exports
// REF's tree with git archive under .bench_build/, runs each tree's own
// bench/run.sh — which builds that tree's benchmark from its source —
// for every workload, with seeds 1…PAIRS and the side that goes first
// alternating, then prints, per workload and end-to-end metric, both
// sides' median [q1, q3], the pairs the change won, and the metric's
// regression bound. Metrics, directions and bounds are read from
// BENCHMARK.json.
//
// It exits 1 if any metric's change median is worse than the parent's
// by more than its bound, if any run is not correct, or if the change
// fails a larger share of its operations; 2 on a usage or run error.
//
// Usage, from the repository root (make bench-pair wraps it):
//
//	benchpair REF [PAIRS [SECONDS [WORKLOAD...]]]
//
// PAIRS defaults to 10 and SECONDS to 20, the window BENCHMARK.json
// declares; with no WORKLOAD every declared workload runs.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json this tool reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// result is the JSON object a benchmark run prints as its last line.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	args := os.Args[1:]
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		fmt.Fprintln(os.Stderr, "usage: benchpair REF [PAIRS [SECONDS [WORKLOAD...]]]")
		os.Exit(2)
	}
	ref, pairs, seconds := args[0], 10, "20"
	if len(args) > 1 {
		n, err := strconv.Atoi(args[1])
		if err != nil || n < 1 {
			fatalf("PAIRS must be a positive integer, got %q", args[1])
		}
		pairs = n
	}
	if len(args) > 2 {
		if s, err := strconv.ParseFloat(args[2], 64); err != nil || s <= 0 {
			fatalf("SECONDS must be a positive number, got %q", args[2])
		}
		seconds = args[2]
	}
	var sp spec
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &sp)
	}
	if err != nil {
		fatalf("reading BENCHMARK.json (run from the repository root): %v", err)
	}
	var workloads []string
	for _, a := range args[min(len(args), 3):] {
		workloads = append(workloads, strings.FieldsFunc(a, func(r rune) bool { return r == ',' || r == ' ' })...)
	}
	if len(workloads) == 0 {
		for _, w := range sp.Workloads {
			workloads = append(workloads, w.Name)
		}
	}

	sha, err := output("git", "rev-parse", "--verify", ref+"^{commit}")
	if err != nil {
		fatalf("resolving %s: %v", ref, err)
	}
	parent, err := exportTree(sha)
	if err != nil {
		fatalf("exporting %s: %v", ref, err)
	}
	roots := [2]string{parent, "."}
	fmt.Printf("parent %s (%s) vs change (working tree): %d pairs, %s s windows, seeds 1-%d\n",
		ref, sha[:12], pairs, seconds, pairs)

	bad := false
	for _, w := range workloads {
		var runs [2][]result
		for seed := 1; seed <= pairs; seed++ {
			first := (seed + 1) % 2 // odd seeds run the parent first
			for _, side := range [2]int{first, 1 - first} {
				res, err := runOnce(roots[side], w, seed, seconds)
				if err != nil {
					fatalf("%s seed %d on the %s: %v", w, seed, sideName[side], err)
				}
				fmt.Fprintf(os.Stderr, "%s seed %d %s: correct=%v failed=%d/%d\n",
					w, seed, sideName[side], res.Correct, res.Failed, res.Attempted)
				runs[side] = append(runs[side], res)
			}
		}
		if report(os.Stdout, w, sp, runs) {
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
}

var sideName = [2]string{"parent", "change"}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchpair: "+format+"\n", args...)
	os.Exit(2)
}

func output(name string, args ...string) (string, error) {
	out, err := exec.Command(name, args...).Output()
	return strings.TrimSpace(string(out)), err
}

// exportTree extracts the commit's tree under .bench_build/ once; a
// later call for the same commit reuses it, build cache included.
func exportTree(sha string) (string, error) {
	dir := filepath.Join(".bench_build", "ref-"+sha[:12])
	if _, err := os.Stat(filepath.Join(dir, "bench", "run.sh")); err == nil {
		return dir, nil
	}
	tmp := dir + ".partial"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("bash", "-c", `set -o pipefail; git archive "$1" | tar -x -C "$2"`, "export", sha, tmp)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", err
	}
	if _, err := os.Stat(filepath.Join(tmp, "bench", "run.sh")); err != nil {
		return "", fmt.Errorf("the commit has no bench/run.sh")
	}
	return dir, os.Rename(tmp, dir)
}

// runOnce runs one untraced benchmark pass in the tree at root and
// decodes the last line of its output. A run whose checks failed still
// prints its result, with correct false; only a run that printed none
// is an error.
func runOnce(root, workload string, seed int, seconds string) (result, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", seconds, "--trace", "0")
	cmd.Dir, cmd.Stdout, cmd.Stderr = root, &stdout, &stderr
	err := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		return res, fmt.Errorf("no result (%v, %v):\n%s", err, jerr, stderr.String())
	}
	if !res.Correct {
		// The result says only that a check failed; the run's report names it.
		for _, l := range strings.Split(stderr.String(), "\n") {
			if strings.Contains(l, "CHECK FAILED") {
				fmt.Fprintf(os.Stderr, "%s seed %d in %s: %s\n", workload, seed, root, strings.TrimSpace(l))
			}
		}
	}
	return res, nil
}

// row is one workload × metric comparison.
type row struct {
	parent, change [3]float64 // q1, median, q3
	won            int        // pairs in which the change was strictly better
	delta          float64    // change median relative to parent median, signed
	worse          bool       // worse than the parent by more than the bound
	gain           bool       // won 9 pairs in 10 and moved by more than the parent's IQR
}

// compare evaluates one metric over paired runs. better is "lower" or
// "higher"; bound is the largest tolerated relative regression.
func compare(parent, change []float64, better string, bound float64) row {
	sign := 1.0 // +1 when larger is worse
	if better == "higher" {
		sign = -1
	}
	var r row
	for i := range parent {
		if sign*(change[i]-parent[i]) < 0 {
			r.won++
		}
	}
	r.parent, r.change = quartiles(parent), quartiles(change)
	p, c := r.parent[1], r.change[1]
	switch {
	case p != 0:
		r.delta = (c - p) / math.Abs(p)
	case c != 0:
		r.delta = math.Copysign(math.Inf(1), c)
	}
	r.worse = sign*r.delta > bound
	r.gain = 10*r.won >= 9*len(parent) && sign*(p-c) > r.parent[2]-r.parent[0]
	return r
}

// quartiles returns q1, the median and q3, interpolating linearly
// between order statistics.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(f float64) float64 {
		pos := f * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return [3]float64{q(0.25), q(0.5), q(0.75)}
}

// report prints the workload's table and says whether it failed.
func report(w io.Writer, workload string, sp spec, runs [2][]result) bool {
	bad := false
	fmt.Fprintf(w, "\n%s\n%-20s %-34s %-34s %8s %6s %6s  %s\n", workload,
		"metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "won", "bound", "verdict")
	for _, m := range sp.EndToEnd {
		var vals [2][]float64
		for side := range runs {
			for _, res := range runs[side] {
				if v, ok := res.Metrics[m.Name]; ok {
					vals[side] = append(vals[side], v.Value)
				}
			}
		}
		if len(vals[0]) != len(runs[0]) || len(vals[1]) != len(runs[1]) {
			continue // the workload does not report this metric
		}
		r := compare(vals[0], vals[1], m.Better, m.Bound)
		verdict := "ok"
		switch {
		case r.worse:
			verdict, bad = "WORSE", true
		case r.gain:
			verdict = "gain"
		}
		fmt.Fprintf(w, "%-20s %-34s %-34s %+7.1f%% %3d/%-2d %5.0f%%  %s\n", m.Name,
			fmtQ(r.parent), fmtQ(r.change), 100*r.delta, r.won, len(vals[0]), 100*m.Bound, verdict)
	}
	var failed, attempted [2]int64
	for side := range runs {
		for _, res := range runs[side] {
			failed[side] += res.Failed
			attempted[side] += res.Attempted
			if !res.Correct {
				bad = true
				fmt.Fprintf(w, "a %s run was not correct\n", sideName[side])
			}
		}
	}
	verdict := "ok"
	if failed[1]*max(attempted[0], 1) > failed[0]*max(attempted[1], 1) {
		verdict, bad = "WORSE", true
	}
	fmt.Fprintf(w, "%-20s %-34s %-34s %30s\n", "failed ops",
		fmt.Sprintf("%d of %d", failed[0], attempted[0]), fmt.Sprintf("%d of %d", failed[1], attempted[1]), verdict)
	return bad
}

func fmtQ(q [3]float64) string {
	return fmt.Sprintf("%s [%s, %s]", fmtV(q[1]), fmtV(q[0]), fmtV(q[2]))
}

// fmtV prints four significant digits, or the integer part of a value
// that has more.
func fmtV(v float64) string {
	if math.Abs(v) >= 1000 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}
