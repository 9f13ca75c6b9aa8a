// Package rebuild closes the drift loop the registry's hook opens: a
// Controller listens for drift notifications (or explicit kicks),
// rebuilds a candidate artifact from a fresh record stream with the
// serving index's own build recipe, evaluates candidate-vs-serving
// fairness over a probe window set, and either promotes the candidate
// atomically (temp file + rename next to the serving artifact, then
// Registry.Swap) or refuses it when a budgeted metric regressed. One
// rebuild is in flight per entry at a time; build failures back off
// exponentially. See docs/REBUILD.md for the lifecycle and budget
// semantics.
package rebuild

import (
	"errors"
	"fmt"
	"math"
	"time"

	"fairindex"
)

// ErrBuild marks a rebuild attempt that failed while producing the
// candidate — opening the source, validating its schema, or running
// BuildStream. Build failures are the transient class: the Controller
// retries them with exponential backoff, and fairindexctl rebuild
// maps them to their own exit code. Gate errors and promotion I/O
// failures do not wrap it and are not retried.
var ErrBuild = errors.New("candidate build failed")

// BuildCandidate builds a rebuild candidate from src with the serving
// index's own resolved build configuration, after checking that the
// source's schema matches the serving index's features and tasks. Every
// failure wraps ErrBuild. The Controller and fairindexctl rebuild both
// build through it.
func BuildCandidate(serving *fairindex.Index, src fairindex.Source) (*fairindex.Index, error) {
	if err := src.Schema().Compatible(serving.FeatureNames(), serving.TaskNames()); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBuild, err)
	}
	candidate, err := fairindex.BuildStream(src, fairindex.WithConfig(serving.Config()))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBuild, err)
	}
	return candidate, nil
}

// ErrInFlight reports a synchronous Rebuild call for an entry that
// already has a rebuild running — rebuilds are single-flight per name.
var ErrInFlight = errors.New("rebuild already in flight")

// Outcome classifies a completed (non-failed) rebuild attempt.
type Outcome int

const (
	// OutcomePromoted: the candidate passed the fairness gate and is
	// now serving (and, for file-backed entries, on disk).
	OutcomePromoted Outcome = iota
	// OutcomeRefused: a budgeted metric regressed beyond its budget;
	// the serving index and its artifact are untouched.
	OutcomeRefused
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomePromoted:
		return "promoted"
	case OutcomeRefused:
		return "refused"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Rebuild states, as reported by Controller.Status and the server's
// index listing. An entry starts idle and cycles
// building → promoted | refused | failed.
const (
	StateIdle     = "idle"
	StateBuilding = "building"
	StatePromoted = "promoted"
	StateRefused  = "refused"
	StateFailed   = "failed"
)

// MetricDelta is one cell of a gate evaluation: one budgeted metric,
// over one probe window, for one task, on both sides of the fence.
type MetricDelta struct {
	Metric    string
	Task      int
	Probe     int     // index into the probe window set
	Serving   float64 // raw metric value over the serving index
	Candidate float64 // raw metric value over the candidate
	// Delta is the regression in badness units: distance from the
	// metric's ideal (1 for cal_ratio, 0 otherwise) of the candidate
	// minus that of the serving index. Positive = candidate worse.
	Delta    float64
	Budget   float64
	Exceeded bool // DriftExceeds(Delta, Budget)
}

// Decision is the gate's verdict over the full (metric × task × probe)
// evaluation grid.
type Decision struct {
	// Promote is true when no budgeted metric regressed beyond its
	// budget anywhere in the grid.
	Promote bool
	// Deltas holds every evaluated cell in deterministic order:
	// probes in the given order, tasks ascending, metrics by sorted
	// name.
	Deltas []MetricDelta
	// Refusals maps each metric that exceeded its budget to the worst
	// (largest) offending delta — the compact refusal summary the
	// server reports.
	Refusals map[string]float64
}

// Result describes one completed rebuild attempt.
type Result struct {
	Name     string
	Outcome  Outcome
	Decision Decision
	// Path is the artifact file the promotion renamed over; empty for
	// refusals and pinned in-memory entries.
	Path     string
	Duration time.Duration
}

// Status is a point-in-time snapshot of one entry's rebuild state.
type Status struct {
	Name string
	// State is one of the State* constants.
	State string
	// Attempts counts consecutive failed build attempts; it resets on
	// any completed evaluation (promoted or refused).
	Attempts int
	// LastErr is the most recent failure, empty after a completed
	// evaluation.
	LastErr string
	// LastPromoted is the wall time of the most recent promotion
	// (zero if none yet).
	LastPromoted time.Time
	// RefusalDeltas holds the worst offending delta per metric from
	// the most recent refusal; nil otherwise.
	RefusalDeltas map[string]float64
	// NextRetry is the scheduled backoff retry after a build failure
	// (zero when none is pending).
	NextRetry time.Time
}

// DefaultBudgets returns the gate's default regression budgets: the
// paper's two headline calibration aggregates, with room for noise but
// not for decay — ENCE may regress by < 0.01 and the pooled
// calibration ratio may move < 0.05 further from 1.
func DefaultBudgets() map[string]float64 {
	return map[string]float64{
		"ence":      0.01,
		"cal_ratio": 0.05,
	}
}

// Badness maps a raw metric value to its distance from the metric's
// ideal, the unit the gate budgets in: cal_ratio is centered on 1
// (perfect calibration), every other registered metric on 0. NaN — the
// metric-undefined sentinel — propagates, and a NaN badness delta
// never exceeds a budget (see fairindex.DriftExceeds).
func Badness(metric string, v float64) float64 {
	if metric == "cal_ratio" {
		return math.Abs(v - 1)
	}
	return math.Abs(v)
}

// validateBudgets rejects budget maps the gate cannot evaluate:
// unregistered metric names and non-finite or negative budgets. A
// zero budget is legal but disarmed (DriftExceeds never fires on a
// non-positive threshold) — the metric is evaluated and reported but
// never refuses.
func validateBudgets(budgets map[string]float64) error {
	if len(budgets) == 0 {
		return errors.New("rebuild: empty budget set")
	}
	for name, b := range budgets {
		if _, ok := fairindex.MetricByName(name); !ok {
			return fmt.Errorf("rebuild: budget for unknown metric %q", name)
		}
		if b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("rebuild: budget %v for metric %q", b, name)
		}
	}
	return nil
}
