package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"
)

func TestQuartiles(t *testing.T) {
	got := quartiles([]float64{5, 1, 4, 2, 3})
	if got != [3]float64{2, 3, 4} {
		t.Fatalf("quartiles = %v, want [2 3 4]", got)
	}
	got = quartiles([]float64{1, 2, 3, 4})
	if got != [3]float64{1.75, 2.5, 3.25} {
		t.Fatalf("quartiles = %v, want [1.75 2.5 3.25]", got)
	}
}

func TestCompare(t *testing.T) {
	parent := []float64{120, 121, 120, 119, 120, 120, 121, 120, 120, 120}
	lower := []float64{67, 68, 67, 67, 67, 67, 68, 67, 67, 67}
	r := compare(parent, lower, "lower", 0.1)
	if r.won != 10 || r.worse || !r.gain || math.Abs(r.delta+53.0/120) > 1e-9 {
		t.Fatalf("a lower-is-better drop: %+v", r)
	}
	if r := compare(parent, lower, "higher", 0.1); !r.worse || r.won != 0 || r.gain {
		t.Fatalf("a higher-is-better drop past the bound: %+v", r)
	}
	inside := []float64{125, 126, 125, 124, 125, 125, 126, 125, 125, 125}
	if r := compare(parent, inside, "lower", 0.1); r.worse || r.gain {
		t.Fatalf("a rise inside the bound: %+v", r)
	}
	if r := compare([]float64{0, 0}, []float64{1, 1}, "lower", 0.1); !r.worse {
		t.Fatalf("a rise from zero: %+v", r)
	}
}

// TestReportGates: a workload fails on a run that was not correct, on
// either side, or when the change fails a larger share of its
// operations, even with every metric inside its bound.
func TestReportGates(t *testing.T) {
	var sp spec
	if err := json.Unmarshal([]byte(`{"end_to_end": [{"name": "cpu_us_per_op", "better": "lower", "bound": 0.25}]}`), &sp); err != nil {
		t.Fatal(err)
	}
	run := func(cpu float64, correct bool, failed int) result {
		var r result
		line := fmt.Sprintf(`{"correct": %v, "attempted": 1000, "failed": %d, "metrics": {"cpu_us_per_op": {"value": %g}}}`, correct, failed, cpu)
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	runs := func(change result) [2][]result {
		return [2][]result{
			{run(30, true, 1), run(31, true, 1), run(29, true, 1)},
			{run(30, true, 1), change, run(29, true, 1)},
		}
	}
	if report(io.Discard, "w", sp, runs(run(30, true, 1))) {
		t.Fatal("equal runs, all correct, made the workload fail")
	}
	if !report(io.Discard, "w", sp, runs(run(30, false, 1))) {
		t.Fatal("a change run that was not correct passed")
	}
	bad := runs(run(30, true, 1))
	bad[0][2].Correct = false
	if !report(io.Discard, "w", sp, bad) {
		t.Fatal("a parent run that was not correct passed")
	}
	if !report(io.Discard, "w", sp, runs(run(30, true, 2))) {
		t.Fatal("a larger failed share on the change passed")
	}
}
