package rebuild

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"fairindex"
)

// Evaluate runs the fairness gate: candidate-vs-serving deltas of
// every budgeted metric, over every probe window, for every task. Each
// probe rectangle is resolved to a region window through each index's
// OWN RangeQuery — the two partitions need not agree, the same
// discipline /v1/compare uses — and the metrics are computed by
// GroupStatsMetrics over each side's live sufficient statistics, so a
// serving index that drifted is judged by what it serves today, not by
// its build-time snapshot.
//
// The verdict is Promote unless some metric's badness delta
// (distance-from-ideal of the candidate minus the serving index, see
// Badness) exceeds its budget on the shared inclusive boundary
// predicate fairindex.DriftExceeds. A NaN on either side yields a NaN
// delta, which never refuses: a window where a metric is undefined
// (e.g. cal_ratio with no positives) holds no evidence of regression.
//
// A nil budgets map means DefaultBudgets; an empty probe set means one
// probe covering the serving index's whole box. Evaluate reads both
// indexes and writes nothing — a refusal leaves no artifact behind.
func Evaluate(serving, candidate *fairindex.Index, budgets map[string]float64, probes []fairindex.BBox) (Decision, error) {
	if budgets == nil {
		budgets = DefaultBudgets()
	}
	if err := validateBudgets(budgets); err != nil {
		return Decision{}, err
	}
	tasks := serving.Tasks()
	if !slices.Equal(tasks, candidate.Tasks()) {
		return Decision{}, fmt.Errorf("rebuild: candidate serves tasks %v, serving index %v", candidate.Tasks(), tasks)
	}
	if len(probes) == 0 {
		probes = []fairindex.BBox{serving.Box()}
	}
	names := make([]string, 0, len(budgets))
	for name := range budgets {
		names = append(names, name)
	}
	sort.Strings(names)

	dec := Decision{Promote: true}
	for pi, probe := range probes {
		sregs, err := serving.RangeRegions(probe)
		if err != nil {
			return Decision{}, fmt.Errorf("rebuild: probe %d on serving index: %w", pi, err)
		}
		cregs, err := candidate.RangeRegions(probe)
		if err != nil {
			return Decision{}, fmt.Errorf("rebuild: probe %d on candidate: %w", pi, err)
		}
		for _, task := range tasks {
			sw, err := serving.GroupStatsMetrics(task, sregs, names...)
			if err != nil {
				return Decision{}, fmt.Errorf("rebuild: probe %d task %d on serving index: %w", pi, task, err)
			}
			cw, err := candidate.GroupStatsMetrics(task, cregs, names...)
			if err != nil {
				return Decision{}, fmt.Errorf("rebuild: probe %d task %d on candidate: %w", pi, task, err)
			}
			for _, name := range names {
				d := MetricDelta{
					Metric:    name,
					Task:      task,
					Probe:     pi,
					Serving:   sw.Metrics[name],
					Candidate: cw.Metrics[name],
					Budget:    budgets[name],
				}
				d.Delta = Badness(name, d.Candidate) - Badness(name, d.Serving)
				d.Exceeded = fairindex.DriftExceeds(d.Delta, d.Budget)
				if d.Exceeded {
					dec.Promote = false
					if dec.Refusals == nil {
						dec.Refusals = make(map[string]float64)
					}
					if worst, ok := dec.Refusals[name]; !ok || d.Delta > worst {
						dec.Refusals[name] = d.Delta
					}
				}
				dec.Deltas = append(dec.Deltas, d)
			}
		}
	}
	return dec, nil
}

// PromoteFile atomically replaces the artifact at path with the
// candidate's serialized bytes through WriteFileAtomic, so a crash or
// power loss at any point leaves either the complete old artifact or
// the complete new one, and a restart that lazily reloads from disk
// serves a coherent generation.
func PromoteFile(path string, candidate *fairindex.Index) error {
	data, err := candidate.MarshalBinary()
	if err != nil {
		return fmt.Errorf("rebuild: marshal candidate: %w", err)
	}
	if err := WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("rebuild: promote: %w", err)
	}
	return nil
}

// WriteFileAtomic replaces the file at path with data (mode 0644), the
// one write path for index artifacts and shard manifests. The bytes go
// to a temp file in the same directory (same filesystem, so the final
// step is a true rename), which is fsynced, renamed over path, and
// followed by an fsync of the directory so the rename itself is
// durable. A reader (a registry rescan, a SIGHUP reload) sees either
// the complete old bytes or the complete new bytes, never a torn file.
// A failure before the rename leaves the old file untouched and
// removes the temp file; a failed directory fsync is reported after
// the new bytes are in place. The temp name carries no .fidx suffix,
// so a concurrent Rescan never catalogs a half-written artifact.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err = f.Write(data); err == nil {
		// CreateTemp opens 0600; artifacts are world-readable like
		// any build output.
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = syncFile(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = syncFile(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncFile flushes f to stable storage; a variable so tests can fail
// the durability step of WriteFileAtomic on real files.
var syncFile = (*os.File).Sync
