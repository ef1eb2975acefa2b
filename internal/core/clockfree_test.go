package core

import (
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestGoalEnginesClockFree: goal engines are pure reactive state
// machines (DESIGN.md §5) — the model checker and the simulator run
// them as they are, so none of the package's non-test files may import
// "time". A latency metric belongs around a goal call, in its runtime,
// not inside the engine.
func TestGoalEnginesClockFree(t *testing.T) {
	ents, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	parsed := 0
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "time" {
				t.Errorf("%s imports %q: goal engines must not read the clock", fset.Position(imp.Pos()), path)
			}
		}
	}
	if parsed == 0 {
		t.Fatal("found no non-test Go files to check")
	}
}
