// Tracker: continuous runtime verification of the Section V formulas.
// A Snapshot is one instant; the temporal formulas quantify over whole
// executions. The Tracker polls the Monitor repeatedly, keeps a trace
// per signaling path, and checks the bounded-time reading of each
// spec live:
//
//   - ◇□bothClosed and ◇□¬bothFlowing (stability): media flowing on
//     such a path is tolerated only transiently; flowing continuously
//     past the bound is a violation.
//   - □◇bothFlowing (recurrence): the path must revisit bothFlowing;
//     an outage longer than the bound is a violation, and every
//     recovered outage contributes its duration to the recovery
//     latency histogram — the numbers internal/storm's chaos test
//     logs for its fault profiles.
//   - The hold/hold disjunction is checked as: once the path has ever
//     flowed it is held to the recurrence reading, otherwise to the
//     stability reading.
//
// The bound turns liveness into something falsifiable at runtime: an
// unbounded ◇ can never be refuted by a finite trace, but a recovery
// layer that cannot repair a path within the bound has failed the
// chaos test even if some later miracle would have saved it.
package pathmon

import (
	"fmt"
	"sync"
	"time"

	"ipmedia/internal/ltl"
	"ipmedia/internal/telemetry"
)

// Telemetry instrument names exported by the tracker.
const (
	// MetricBoundViolations counts bounded-time violations of the
	// Section V formulas observed live.
	MetricBoundViolations = "pathmon.bound_violations"
	// MetricRecoveryLatency is the histogram of recurrence-path outage
	// durations that ended in recovery.
	MetricRecoveryLatency = "pathmon.recovery_latency"
)

// Tracker checks the path formulas continuously over Monitor polls.
type Tracker struct {
	mon   *Monitor
	bound time.Duration

	mu         sync.Mutex
	paths      map[string]*pathTrace
	violations []string
	recovered  []time.Duration
	polls      int

	violCounter *telemetry.Counter
	recoveryH   *telemetry.Histogram
}

// pathTrace is the per-path temporal state between polls.
type pathTrace struct {
	lastSeen time.Time
	// flowing tracks the recurrence reading: when the path is not
	// bothFlowing, downSince dates the outage.
	flowing     bool
	everFlowing bool
	downSince   time.Time
	reported    bool // this outage / flowing episode already flagged
	// flowingSince dates a bothFlowing episode on a stability path.
	flowingSince time.Time
}

// NewTracker wraps a Monitor with live formula checking. bound is the
// patience per formula: how long a stability path may flow, and how
// long a recurrence path may stay down, before the tracker calls it a
// violation.
func NewTracker(m *Monitor, bound time.Duration) *Tracker {
	return &Tracker{
		mon:         m,
		bound:       bound,
		paths:       map[string]*pathTrace{},
		violCounter: telemetry.C(MetricBoundViolations),
		recoveryH:   telemetry.H(MetricRecoveryLatency),
	}
}

// Poll snapshots the monitor and advances every path's temporal state.
// It returns the instantaneous reports for callers that also want the
// snapshot view.
func (t *Tracker) Poll() ([]PathReport, error) {
	reports, err := t.mon.Snapshot()
	if err != nil {
		return nil, err
	}
	now := time.Now()
	t.mu.Lock()
	t.polls++
	for _, rep := range reports {
		if !rep.Specified {
			continue
		}
		key := rep.Path.String()
		tr := t.paths[key]
		if tr == nil {
			tr = &pathTrace{downSince: now}
			t.paths[key] = tr
		}
		tr.lastSeen = now
		t.advance(key, rep, tr, now)
	}
	// Paths no longer present resolved themselves: their slots were
	// destroyed, which observes as closed forever after — every formula
	// is satisfied from here, so the trace is dropped.
	for key, tr := range t.paths {
		if tr.lastSeen != now {
			delete(t.paths, key)
		}
	}
	t.mu.Unlock()
	return reports, nil
}

// advance applies one observation to one path's state. Lock held.
func (t *Tracker) advance(key string, rep PathReport, tr *pathTrace, now time.Time) {
	spec := rep.Spec
	if spec == ltl.ClosedOrFlowing {
		// The disjunction commits once the path has flowed: from then on
		// it is held to the recurrence reading.
		if tr.everFlowing {
			spec = ltl.RecFlowing
		} else if rep.Obs.BothFlowing {
			tr.everFlowing = true
			spec = ltl.RecFlowing
		} else {
			spec = ltl.StabClosed
		}
	}
	switch spec {
	case ltl.StabClosed, ltl.StabNotFlowing:
		if !rep.Obs.BothFlowing {
			tr.flowingSince = time.Time{}
			tr.reported = false
			return
		}
		if tr.flowingSince.IsZero() {
			tr.flowingSince = now
			return
		}
		if !tr.reported && now.Sub(tr.flowingSince) > t.bound {
			tr.reported = true
			t.violate("%s: %s: bothFlowing for %v (bound %v)",
				key, rep.Spec, now.Sub(tr.flowingSince).Round(time.Millisecond), t.bound)
		}
	case ltl.RecFlowing:
		if rep.Obs.BothFlowing {
			if !tr.flowing {
				if tr.everFlowing && !tr.downSince.IsZero() {
					d := now.Sub(tr.downSince)
					t.recoveryH.Observe(d)
					if len(t.recovered) < 65536 {
						t.recovered = append(t.recovered, d)
					}
				}
				tr.flowing = true
				tr.reported = false
			}
			tr.everFlowing = true
			return
		}
		if tr.flowing {
			tr.flowing = false
			tr.downSince = now
			return
		}
		if !tr.reported && now.Sub(tr.downSince) > t.bound {
			tr.reported = true
			t.violate("%s: %s: not bothFlowing for %v (bound %v)",
				key, rep.Spec, now.Sub(tr.downSince).Round(time.Millisecond), t.bound)
		}
	}
}

// violate records one bounded-time formula violation. Lock held.
func (t *Tracker) violate(format string, args ...any) {
	t.violCounter.Inc()
	if len(t.violations) < 256 {
		t.violations = append(t.violations, fmt.Sprintf(format, args...))
	}
}

// Drain performs a final poll after the system has been asked to
// quiesce and returns the wedged paths: specified paths whose state
// contradicts the quiescent reading of their current spec (a stability
// path still flowing, a recurrence path not flowing — a slot stuck
// half-open shows up here as a path that is neither closed nor
// flowing).
func (t *Tracker) Drain() ([]string, error) {
	reports, err := t.mon.Snapshot()
	if err != nil {
		return nil, err
	}
	return wedgedIn(reports), nil
}

// wedgedIn classifies quiescent-state reports; see Drain.
func wedgedIn(reports []PathReport) []string {
	var wedged []string
	for _, rep := range reports {
		if !rep.Specified {
			continue
		}
		bad := false
		switch rep.Spec {
		case ltl.StabClosed:
			bad = !rep.Obs.BothClosed
		case ltl.StabNotFlowing:
			bad = rep.Obs.BothFlowing
		case ltl.RecFlowing:
			bad = !rep.Obs.BothFlowing
		case ltl.ClosedOrFlowing:
			bad = !rep.Obs.BothClosed && !rep.Obs.BothFlowing
		}
		if bad {
			wedged = append(wedged, fmt.Sprintf("%s: quiescent state contradicts %s (closed=%v flowing=%v)",
				rep.Path, rep.Spec, rep.Obs.BothClosed, rep.Obs.BothFlowing))
		}
	}
	return wedged
}

// TrackerStats summarizes a tracking run.
type TrackerStats struct {
	Polls      int
	Violations []string
	// Recoveries are the outage durations of recurrence paths that came
	// back, the raw data behind the recovery latency histogram.
	Recoveries []time.Duration
}

// Stats returns a copy of the accumulated tracking state.
func (t *Tracker) Stats() TrackerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TrackerStats{
		Polls:      t.polls,
		Violations: append([]string(nil), t.violations...),
		Recoveries: append([]time.Duration(nil), t.recovered...),
	}
}
