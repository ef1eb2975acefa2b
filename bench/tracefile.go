package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// The trace file: what the traced pass recorded, written once the run
// is over. It carries the per-kind summaries, the counts taken at the
// same boundaries, and the full span trees of the median call and of
// the first few calls — enough to read where a setup's time went
// without shipping a million spans.

type spanOut struct {
	Name    string  `json:"name"`
	Box     string  `json:"box,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	SelfUS  float64 `json:"self_us"` // the span minus the part of it its children cover
	Parent  int     `json:"parent"`  // index into the same list; -1 for the root
}

type callTree struct {
	ID        uint32    `json:"id"`
	TileRatio float64   `json:"tile_ratio,omitempty"` // blocking chain ÷ setup
	Spans     []spanOut `json:"spans"`
}

type traceFile struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Seconds    float64              `json:"seconds"`
	Counts     map[string]float64   `json:"counts"`
	Kinds      map[string]kindStats `json:"kinds"`
	MedianCall *callTree            `json:"median_call,omitempty"`
	Calls      []callTree           `json:"calls"`
}

const traceFileCalls = 32

// level orders span kinds into a tree: a span's parent is the smallest
// span of a lower level that contains it.
func (k spanKind) level() int {
	switch k {
	case spCall, spRound:
		return 0
	case spSchedWait, spSetup, spHold, spTeardown, spStage, spWire, spDemux:
		return 1
	case spHop, spBoxHop:
		return 2
	}
	return 3 // dial, lookup, append: inside the box.hop that made them
}

// buildTree lays a call's spans out as a tree with self times.
func buildTree(id uint32, spans []span) callTree {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].kind.level() < spans[j].kind.level()
	})
	base := int64(0)
	if len(spans) > 0 {
		base = spans[0].start
	}
	out := make([]spanOut, len(spans))
	for i, s := range spans {
		parent := -1
		for j, p := range spans {
			if j == i || p.kind.level() >= s.kind.level() || p.start > s.start || p.end < s.end {
				continue
			}
			// Work done inside a box belongs to that box's hop.
			if s.kind.level() == 3 && p.kind == spBoxHop && p.role != s.role {
				continue
			}
			if parent < 0 || p.kind.level() > spans[parent].kind.level() ||
				(p.kind.level() == spans[parent].kind.level() && p.end-p.start < spans[parent].end-spans[parent].start) {
				parent = j
			}
		}
		out[i] = spanOut{Name: spanNames[s.kind], StartUS: float64(s.start-base) / 1e3,
			EndUS: float64(s.end-base) / 1e3, Parent: parent}
		if s.kind.level() >= 2 || s.kind == spTeardown {
			out[i].Box = roleNames[s.role]
		}
	}
	// Self time: the span minus the union of its children's intervals.
	for i, s := range spans {
		var kids []span
		for j := range spans {
			if out[j].Parent == i {
				kids = append(kids, spans[j])
			}
		}
		covered, at := int64(0), s.start
		for _, k := range kids { // already in start order
			from := k.start
			if from < at {
				from = at
			}
			if k.end > from {
				covered += k.end - from
				at = k.end
			}
		}
		out[i].SelfUS = float64(s.end-s.start-covered) / 1e3
	}
	return callTree{ID: id, Spans: out}
}

func (t *tracer) writeFile(r *run, kinds [numSpanKinds]kindStats, byCall map[uint32][]span, median *callTree) error {
	tf := traceFile{
		Workload: r.cfg.workload, Seed: r.cfg.seed, Seconds: r.cfg.seconds,
		Counts: map[string]float64{
			"spans_recorded": float64(len(t.recorded())),
			"spans_dropped":  float64(int(t.nSpan.Load()) - len(t.recorded())),
			"calls":          float64(t.calls.Load()),
			"envelopes":      float64(t.envelopes.Load()),
			"signals":        float64(t.signals.Load()),
			"store_lookups":  float64(t.lookups.Load()),
			"ops_traced":     r.tracedOps,
		},
		Kinds:      map[string]kindStats{},
		MedianCall: median,
	}
	for k, st := range kinds {
		if st.Count > 0 {
			tf.Kinds[spanNames[k]] = st
		}
	}
	ids := make([]uint32, 0, len(byCall))
	for id := range byCall {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if len(tf.Calls) == traceFileCalls {
			break
		}
		tf.Calls = append(tf.Calls, buildTree(id, byCall[id]))
	}
	blob, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.cfg.outDir, "trace-"+r.cfg.workload+".json"), append(blob, '\n'), 0o644)
}
