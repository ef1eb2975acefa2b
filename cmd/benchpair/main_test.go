package main

import (
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
