package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	fairindex "fairindex"
	"fairindex/internal/rebuild"
	"fairindex/internal/registry"
)

// Exit codes of `fairindexctl rebuild`, so scripts and CI can branch
// on the gate's verdict without parsing output. 0 = promoted (or a
// dry run that would promote), 1 = other errors, 2 = flag errors.
const (
	exitRefused     = 3 // the candidate regressed a budgeted metric
	exitBuildFailed = 4 // producing the candidate failed (source/schema/build)
)

// runRebuildCmd is the one-shot trigger→build→gate→promote cycle over
// a saved artifact: rebuild a candidate from -source with the serving
// artifact's own build recipe, evaluate the fairness gate, and — on a
// promote verdict, unless -dry-run — atomically replace the artifact
// file. The returned exit code distinguishes promoted / refused /
// build-failed.
func runRebuildCmd(args []string, w io.Writer) (int, error) {
	fs := flag.NewFlagSet("rebuild", flag.ExitOnError)
	indexPath := fs.String("index", "", "serving index artifact (or pass it positionally)")
	srcPath := fs.String("source", "", "fresh records CSV to rebuild from (required; canonical layout)")
	budgets := map[string]float64{}
	fs.Func("budget", "metric=delta regression budget, e.g. ence=0.01 (repeatable; default ence=0.01 cal_ratio=0.05)",
		func(v string) error { return parseDriftMetric(v, budgets) })
	dryRun := fs.Bool("dry-run", false, "evaluate the gate but never touch the artifact")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	path := *indexPath
	switch {
	case path == "" && fs.NArg() == 1:
		path = fs.Arg(0)
	case path != "" && fs.NArg() == 0:
	default:
		return 1, fmt.Errorf("rebuild: exactly one index file is required (-index or positional)")
	}
	if *srcPath == "" {
		return 1, fmt.Errorf("rebuild: -source is required")
	}
	if len(budgets) == 0 {
		budgets = rebuild.DefaultBudgets()
	}

	serving, err := fairindex.LoadIndex(path)
	if err != nil {
		return 1, err
	}
	src, err := fairindex.OpenCSVSource(*srcPath, serving.DatasetName(), serving.Grid(), serving.Box())
	if err != nil {
		return exitBuildFailed, err
	}
	defer src.Close()
	candidate, err := rebuild.BuildCandidate(serving, src)
	if err != nil {
		return exitBuildFailed, err
	}
	dec, err := rebuild.Evaluate(serving, candidate, budgets, nil)
	if err != nil {
		return 1, err
	}
	fmt.Fprint(w, gateTable(dec))
	switch {
	case !dec.Promote:
		fmt.Fprintf(w, "refused: candidate regresses %s beyond budget; %s untouched\n",
			refusedMetrics(dec), path)
		return exitRefused, nil
	case *dryRun:
		fmt.Fprintf(w, "dry run: candidate passes the gate; %s untouched\n", path)
		return 0, nil
	}
	if err := rebuild.PromoteFile(path, candidate); err != nil {
		return 1, err
	}
	fmt.Fprintf(w, "promoted: %s atomically replaced (%d neighborhoods)\n", path, candidate.NumRegions())
	return 0, nil
}

// gateTable renders the gate's evaluation grid, one row per
// (metric, task, probe) cell, in the deterministic order Evaluate
// emits. NaN renders as "n/a", the CLI's spelling of the
// metric-undefined sentinel.
func gateTable(dec rebuild.Decision) string {
	var b strings.Builder
	num := func(v float64) string {
		if math.IsNaN(v) {
			return "     n/a"
		}
		return fmt.Sprintf("%8.5f", v)
	}
	for _, d := range dec.Deltas {
		fmt.Fprintf(&b, "task %d  %-16s serving %s  candidate %s  delta %s  budget %.5f",
			d.Task, d.Metric, num(d.Serving), num(d.Candidate), num(d.Delta), d.Budget)
		if d.Exceeded {
			b.WriteString("  EXCEEDED")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// refusedMetrics lists the blocking metrics of a refusal, sorted.
func refusedMetrics(dec rebuild.Decision) string {
	names := make([]string, 0, len(dec.Refusals))
	for name := range dec.Refusals {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// budgetLine renders a budget map for the serve boot banner; an empty
// map means the controller's defaults.
func budgetLine(budgets map[string]float64) string {
	if len(budgets) == 0 {
		budgets = rebuild.DefaultBudgets()
	}
	names := make([]string, 0, len(budgets))
	for name := range budgets {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s=%g", name, budgets[name])
	}
	return strings.Join(parts, " ")
}

// rebuildSourceFn adapts the -rebuild-source flag to the controller's
// source contract: root may be a single CSV file (every entry
// rebuilds from it) or a directory holding one <name>.csv per entry.
// The stream is opened against the serving index's own geometry, so
// the candidate trains on the partitionable grid the gate compares.
func rebuildSourceFn(reg *registry.Registry, root string) rebuild.SourceFunc {
	return func(name string) (fairindex.Source, func() error, error) {
		serving, err := reg.Lookup(name)
		if err != nil {
			return nil, nil, err
		}
		path := root
		if fi, err := os.Stat(root); err == nil && fi.IsDir() {
			path = filepath.Join(root, name+".csv")
		}
		src, err := fairindex.OpenCSVSource(path, serving.DatasetName(), serving.Grid(), serving.Box())
		if err != nil {
			return nil, nil, err
		}
		return src, src.Close, nil
	}
}
