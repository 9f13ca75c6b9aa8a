// Package pipeline wires the substrates into the paper's end-to-end
// flow (Figure 3): an initial classifier run over the base grid, a
// fairness-aware spatial partitioning, a neighborhood update, a final
// training run and the full metric report. Every experiment harness
// and the public API run through this package.
package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fairindex/internal/calib"
	"fairindex/internal/dataset"
	"fairindex/internal/kdtree"
	"fairindex/internal/ml"
	"fairindex/internal/partition"
	"fairindex/internal/stream"
)

// Method enumerates the partitioning / mitigation strategies compared
// in §5.
type Method int

const (
	// MethodMedianKD is the standard median KD-tree baseline.
	MethodMedianKD Method = iota
	// MethodFairKD is the paper's Fair KD-tree (Algorithms 1–2).
	MethodFairKD
	// MethodIterativeFairKD is the Iterative Fair KD-tree (Algorithm 3).
	MethodIterativeFairKD
	// MethodMultiObjectiveFairKD is the Multi-Objective Fair KD-tree
	// (§4.3); requires Alphas over the dataset's tasks.
	MethodMultiObjectiveFairKD
	// MethodGridReweight partitions with a uniform grid of matching
	// granularity and trains with Kamiran–Calders reweighing.
	MethodGridReweight
	// MethodZipCode uses the fixed zip-code-like Voronoi partition
	// with no mitigation (the §5.2 disparity baseline).
	MethodZipCode
	// MethodFairQuadtree is the future-work extension: a fair
	// quadtree at height ⌈Height/2⌉ (≈ the same leaf count).
	MethodFairQuadtree
)

// String implements fmt.Stringer using the paper's labels.
func (m Method) String() string {
	switch m {
	case MethodMedianKD:
		return "Median KD-tree"
	case MethodFairKD:
		return "Fair KD-tree"
	case MethodIterativeFairKD:
		return "Iterative Fair KD-tree"
	case MethodMultiObjectiveFairKD:
		return "Multi-Objective Fair KD-tree"
	case MethodGridReweight:
		return "Grid (Reweighting)"
	case MethodZipCode:
		return "Zip Code"
	case MethodFairQuadtree:
		return "Fair Quadtree"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Config parameterizes one pipeline run.
type Config struct {
	Method Method
	// Height is the tree height th (leaf count ≤ 2^th). For
	// MethodZipCode it is ignored; for MethodGridReweight it sets the
	// matching uniform granularity.
	Height int
	// Model selects the classifier family (default logistic
	// regression).
	Model ml.ModelKind
	// Encoding controls the neighborhood feature encoding of the
	// *final* training (the zero value resolves to centroid+one-hot;
	// the initial scoring run always uses the cell-centroid encoding,
	// see DESIGN.md §2).
	Encoding dataset.Encoding
	// Task selects the label column for single-task methods.
	Task int
	// Alphas are the per-task weights for
	// MethodMultiObjectiveFairKD; nil defaults to uniform weights.
	Alphas []float64
	// Objective and Lambda configure the fair split scoring.
	Objective kdtree.Objective
	Lambda    float64
	// ObjectiveMetric, when non-empty, replaces the Objective/Lambda
	// split scoring with a registered fairness metric (calib.Metric):
	// each candidate split is scored by the metric over the two
	// halves' pooled sufficient statistics and the split minimizing it
	// wins. Valid for MethodFairKD and MethodMultiObjectiveFairKD
	// only; the empty default keeps the paper's objective, bit-
	// identical to earlier releases. It is not serialized into index
	// artifacts — a round-tripped Config loses it (the partition it
	// shaped, of course, persists).
	ObjectiveMetric string
	// TestFrac is the held-out fraction (default 0.2).
	TestFrac float64
	// Seed drives the split and the zip-code layout.
	Seed int64
	// ZipSites is the number of zip-code regions for MethodZipCode
	// (default 40).
	ZipSites int
	// ECEBins for per-neighborhood ECE reports (default 15 as in
	// Figure 6).
	ECEBins int
	// Reweight forces Kamiran–Calders weights in the final training
	// regardless of method (it is implied by MethodGridReweight).
	Reweight bool
	// PostProcess optionally recalibrates the final scores per
	// neighborhood (the §3 post-processing mitigation family);
	// default none.
	PostProcess PostProcess
}

// withDefaults fills unset optional fields.
func (c Config) withDefaults() Config {
	if c.TestFrac == 0 {
		c.TestFrac = 0.2
	}
	if c.ZipSites == 0 {
		c.ZipSites = 40
	}
	if c.ECEBins == 0 {
		c.ECEBins = calib.DefaultECEBins
	}
	return c
}

// ErrConfig reports an invalid configuration.
var ErrConfig = errors.New("pipeline: invalid config")

// validate checks config against the dataset.
func (c Config) validate(ds *dataset.Dataset) error {
	if c.Height < 0 {
		return fmt.Errorf("%w: height %d", ErrConfig, c.Height)
	}
	if c.Task < 0 || c.Task >= ds.NumTasks() {
		return fmt.Errorf("%w: task %d of %d", ErrConfig, c.Task, ds.NumTasks())
	}
	if c.TestFrac < 0 || c.TestFrac >= 1 {
		return fmt.Errorf("%w: test fraction %v", ErrConfig, c.TestFrac)
	}
	if c.Method == MethodMultiObjectiveFairKD && c.Alphas != nil && len(c.Alphas) != ds.NumTasks() {
		return fmt.Errorf("%w: %d alphas for %d tasks", ErrConfig, len(c.Alphas), ds.NumTasks())
	}
	if c.Method != MethodMultiObjectiveFairKD && c.Alphas != nil {
		return fmt.Errorf("%w: alphas are only meaningful for %v, got them with %v",
			ErrConfig, MethodMultiObjectiveFairKD, c.Method)
	}
	if c.ObjectiveMetric != "" {
		if _, ok := calib.MetricByName(c.ObjectiveMetric); !ok {
			return fmt.Errorf("%w: unknown objective metric %q (registered: %v)",
				ErrConfig, c.ObjectiveMetric, calib.MetricNames())
		}
		if c.Method != MethodFairKD && c.Method != MethodMultiObjectiveFairKD {
			return fmt.Errorf("%w: objective metric %q is only supported by %v and %v, got %v",
				ErrConfig, c.ObjectiveMetric, MethodFairKD, MethodMultiObjectiveFairKD, c.Method)
		}
	}
	return nil
}

// Artifacts is the full output of a Build: everything a serving
// index needs to answer point lookups and score individuals without
// re-running the pipeline. Unlike Result (the experiment view, which
// discards the trained models), Artifacts keeps the final per-task
// classifiers and any fitted post-processing calibrators.
type Artifacts struct {
	// Config is the input configuration with defaults resolved.
	Config Config
	// Partition is the fairness-aware neighborhood partition.
	Partition *partition.Partition
	// Tasks holds the trained model, calibrators and metric report per
	// evaluated task (one entry for single-task methods, one per
	// dataset task for the multi-objective method).
	Tasks []TrainedTask
	// TrainIdx/TestIdx are the record indices of the stratified split.
	TrainIdx, TestIdx []int
	// BuildTime covers partition construction (including the method's
	// own classifier runs); TrainTime the final training + evaluation
	// (wall clock — with multiple tasks the per-task work overlaps).
	BuildTime, TrainTime time.Duration
	// TrainWorkers is the worker budget the build ran with,
	// GOMAXPROCS at its start (1 = fully sequential, as every
	// BuildReference is): the bound on goroutines across the per-task
	// pool and the intra-model fits. Comparing the summed
	// per-task TrainTimes against the wall-clock TrainTime shows only
	// how much the tasks overlapped, not the intra-model split.
	TrainWorkers int
}

// TaskCPUTime sums the per-task training wall times; over TrainTime
// it measures how much the task pool overlapped the tasks.
func (a *Artifacts) TaskCPUTime() time.Duration {
	var sum time.Duration
	for i := range a.Tasks {
		sum += a.Tasks[i].TrainTime
	}
	return sum
}

// forEachTask runs fn(i) for every i in [0, n) on a bounded pool of
// up to maxWorkers goroutines and returns the lowest-index error, so
// multi-task stages scale with cores while keeping deterministic
// error selection. fn must be safe for concurrent invocation across
// distinct i. The returned worker count is what the pool actually
// used (1 = ran on the calling goroutine).
func forEachTask(n, maxWorkers int, fn func(i int) error) (workers int, err error) {
	workers = maxWorkers
	if n < workers {
		workers = n
	}
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if errs[i] = fn(i); errs[i] != nil {
				break
			}
		}
	} else {
		next := make(chan int)
		var failed atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					if errs[i] = fn(i); errs[i] != nil {
						failed.Store(true)
					}
				}
			}()
		}
		// Stop dispatching once any task fails; in-flight tasks finish
		// but a multi-second tail of doomed work is skipped.
		for i := 0; i < n && !failed.Load(); i++ {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	for _, e := range errs {
		if e != nil {
			return workers, e
		}
	}
	return workers, nil
}

// Build executes the pipeline's three stages — split + partition
// construction, final per-task training, evaluation — and returns the
// trained artifacts. It is the primary entry point; Run is a thin
// shim over it that keeps only the metric report.
//
// Build is the optimized path: the final logistic-regression training
// runs over the factorized (grouped) neighborhood encoding with
// pooled scratch on GOMAXPROCS workers, shared by the per-task pool
// and each fit's forward passes and gradients; the partition trees
// grow on the calling goroutine. BuildReference is its retained
// sequential, allocation-naive twin; both produce bit-identical
// artifacts for any GOMAXPROCS, because parallelism only ever computes
// independent tasks, rows or separate sums and every reduction stays
// in row order per column (see DESIGN.md §10).
func Build(ds *dataset.Dataset, cfg Config) (*Artifacts, error) {
	return build(ds, cfg, false)
}

// BuildSource runs the full pipeline over a record stream: a
// bounded-residency two-pass ingest (stream.Ingest in batches of
// stream.DefaultChunk records) followed by the standard build over the
// materialized result. The stream changes how the dataset reaches
// memory — O(chunk) transient allocations instead of per-record ones
// — not what is built from it, so the artifacts are bit-identical to
// Build over an equal in-memory dataset (pinned by parity tests).
// The ingested dataset is returned alongside the artifacts so
// callers can assemble serving indexes without a second pass.
func BuildSource(src stream.Source, cfg Config) (*Artifacts, *dataset.Dataset, error) {
	if src == nil {
		return nil, nil, fmt.Errorf("%w: nil source", ErrConfig)
	}
	ds, err := stream.Ingest(src, stream.DefaultChunk)
	if err != nil {
		return nil, nil, err
	}
	art, err := Build(ds, cfg)
	if err != nil {
		return nil, nil, err
	}
	return art, ds, nil
}

// build is the shared engine behind Build (ref=false: pooled buffers,
// worker pools, grouped fast kernels) and BuildReference (ref=true:
// sequential, allocation-naive, reference kernels — same arithmetic,
// same bits).
func build(ds *dataset.Dataset, cfg Config, ref bool) (*Artifacts, error) {
	cfg = cfg.withDefaults()
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(ds); err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	if ref {
		workers = 1
	}

	// Stage 1: stratified split and fairness-aware partitioning.
	labels, err := ds.Labels(cfg.Task)
	if err != nil {
		return nil, err
	}
	trainIdx, testIdx, err := dataset.StratifiedSplit(labels, cfg.TestFrac, cfg.Seed)
	if err != nil {
		return nil, err
	}
	buildStart := time.Now()
	part, err := buildPartition(ds, cfg, trainIdx, workers, ref)
	if err != nil {
		return nil, err
	}

	art := &Artifacts{
		Config:    cfg,
		Partition: part,
		TrainIdx:  trainIdx,
		TestIdx:   testIdx,
		BuildTime: time.Since(buildStart),
	}

	// Stages 2–3: final training and metrics, per task. Single-task
	// methods report only cfg.Task; the multi-objective method reports
	// every task (Figure 10 shows per-objective performance of the
	// shared partitioning). Tasks are independent — same partition,
	// fresh classifier each — so they train on a bounded worker pool;
	// results land at their task's slot, keeping output order and every
	// metric identical to a sequential run.
	tasks := []int{cfg.Task}
	if cfg.Method == MethodMultiObjectiveFairKD {
		tasks = make([]int, ds.NumTasks())
		for i := range tasks {
			tasks[i] = i
		}
	}
	trainStart := time.Now()
	// The record→region assignment and the encoded feature matrix are
	// task-independent: compute them once here and share them
	// read-only across the workers instead of once per task.
	regionOf, err := part.AssignCells(ds.Cells())
	if err != nil {
		return nil, err
	}
	encoded, err := dataset.Encode(ds, regionOf, part.NumRegions(), part.Centroids(), cfg.Encoding)
	if err != nil {
		return nil, err
	}
	// Budget split: with one task the whole budget goes to that task's
	// fit; with several, tasks parallelize and share it.
	fitWorkers := workers
	if len(tasks) > 1 {
		fitWorkers = workers / len(tasks)
		if fitWorkers < 1 {
			fitWorkers = 1
		}
	}
	art.Tasks = make([]TrainedTask, len(tasks))
	_, err = forEachTask(len(tasks), workers, func(i int) error {
		taskStart := time.Now()
		tt, err := trainTask(ds, cfg, part, regionOf, encoded, tasks[i], trainIdx, testIdx, fitWorkers, ref)
		if err != nil {
			return err
		}
		tt.TrainTime = time.Since(taskStart)
		art.Tasks[i] = *tt
		return nil
	})
	if err != nil {
		return nil, err
	}
	art.TrainWorkers = workers
	art.TrainTime = time.Since(trainStart)
	return art, nil
}

// Run executes the full pipeline for one configuration. The returned
// Result contains the final partition, per-task metrics and timings
// (the experiment view of Build, without the trained models).
func Run(ds *dataset.Dataset, cfg Config) (*Result, error) {
	art, err := Build(ds, cfg)
	if err != nil {
		return nil, err
	}
	return art.Result(), nil
}

// Result assembles the experiment-facing view of the artifacts.
func (a *Artifacts) Result() *Result {
	res := &Result{
		Method:     a.Config.Method,
		Height:     a.Config.Height,
		Model:      a.Config.Model,
		Partition:  a.Partition,
		NumRegions: a.Partition.NumRegions(),
		BuildTime:  a.BuildTime,
		TrainTime:  a.TrainTime,
		TrainIdx:   a.TrainIdx,
		TestIdx:    a.TestIdx,
	}
	for _, tt := range a.Tasks {
		res.Tasks = append(res.Tasks, tt.Report)
	}
	return res
}

// buildPartition produces the neighborhood partition for the method.
// Only training records drive data-dependent splits, so no label
// information leaks from the held-out set.
//
// The Step-1 classifier runs stay on the dense (pre-overhaul)
// training semantics: the deviations that drive split selection — and
// therefore the partition structure and region ids — are bit-for-bit
// what earlier releases produced.
func buildPartition(ds *dataset.Dataset, cfg Config, trainIdx []int, workers int, ref bool) (*partition.Partition, error) {
	grid := ds.Grid
	cells := ds.Cells()
	trainCells := dataset.Gather(cells, trainIdx)

	switch cfg.Method {
	case MethodMedianKD:
		tree, err := kdtree.BuildMedian(grid, cells, cfg.Height)
		if err != nil {
			return nil, err
		}
		return tree.Partition()

	case MethodFairKD:
		if cfg.ObjectiveMetric != "" {
			// Metric-driven objective: the scorer needs the raw scores
			// and labels, not just their difference.
			_, scores, taskLabels, err := initialRun(ds, cfg, trainIdx, cfg.Task, workers, ref)
			if err != nil {
				return nil, err
			}
			labels := make([]float64, len(taskLabels))
			for i, y := range taskLabels {
				if y != 0 {
					labels[i] = 1
				}
			}
			tree, err := kdtree.BuildFairScored(grid, trainCells, scores, labels,
				objectiveScorer(cfg), treeConfig(cfg))
			if err != nil {
				return nil, err
			}
			return tree.Partition()
		}
		dev, err := initialDeviations(ds, cfg, trainIdx, cfg.Task, workers, ref)
		if err != nil {
			return nil, err
		}
		tree, err := kdtree.BuildFair(grid, trainCells, dev, treeConfig(cfg))
		if err != nil {
			return nil, err
		}
		return tree.Partition()

	case MethodIterativeFairKD:
		retrain := func(p *partition.Partition) ([]float64, error) {
			return deviationsFor(ds, cfg, p, cfg.Task, trainIdx, workers, ref)
		}
		tree, err := kdtree.BuildIterative(grid, trainCells, treeConfig(cfg), retrain)
		if err != nil {
			return nil, err
		}
		return tree.Partition()

	case MethodMultiObjectiveFairKD:
		alphas := cfg.Alphas
		if alphas == nil {
			alphas = uniformAlphas(ds.NumTasks())
		}
		// The per-task Step-1 classifier runs are independent, so they
		// share the same bounded worker pool as the final training.
		fitWorkers := workers / ds.NumTasks()
		if fitWorkers < 1 {
			fitWorkers = 1
		}
		scoreSets := make([][]float64, ds.NumTasks())
		labelSets := make([][]int, ds.NumTasks())
		if _, err := forEachTask(ds.NumTasks(), workers, func(task int) error {
			_, scores, taskLabels, err := initialRun(ds, cfg, trainIdx, task, fitWorkers, ref)
			if err != nil {
				return err
			}
			scoreSets[task] = scores
			labelSets[task] = taskLabels
			return nil
		}); err != nil {
			return nil, err
		}
		var (
			tree *kdtree.Tree
			err  error
		)
		if cfg.ObjectiveMetric != "" {
			tree, err = kdtree.BuildMultiObjectiveScored(grid, trainCells, scoreSets, labelSets, alphas,
				objectiveScorer(cfg), treeConfig(cfg))
		} else {
			tree, err = kdtree.BuildMultiObjective(grid, trainCells, scoreSets, labelSets, alphas, treeConfig(cfg))
		}
		if err != nil {
			return nil, err
		}
		return tree.Partition()

	case MethodGridReweight:
		return partition.UniformGrid(grid, cfg.Height)

	case MethodZipCode:
		return partition.Voronoi(grid, cfg.ZipSites, cfg.Seed+1, ds.CellCounts())

	case MethodFairQuadtree:
		dev, err := initialDeviations(ds, cfg, trainIdx, cfg.Task, workers, ref)
		if err != nil {
			return nil, err
		}
		qt, err := kdtree.BuildFairQuadtree(grid, trainCells, dev, (cfg.Height+1)/2)
		if err != nil {
			return nil, err
		}
		return qt.Partition()

	default:
		return nil, fmt.Errorf("%w: unknown method %d", ErrConfig, int(cfg.Method))
	}
}

// treeConfig maps the pipeline config onto the kdtree config.
func treeConfig(cfg Config) kdtree.Config {
	return kdtree.Config{Height: cfg.Height, Objective: cfg.Objective, Lambda: cfg.Lambda}
}

// objectiveScorer resolves Config.ObjectiveMetric into a split
// scorer. validate has already checked the name resolves.
func objectiveScorer(cfg Config) kdtree.SplitScorer {
	m, ok := calib.MetricByName(cfg.ObjectiveMetric)
	if !ok {
		panic("pipeline: objective metric vanished after validation: " + cfg.ObjectiveMetric)
	}
	return kdtree.SplitScorer(calib.SplitScorerOf(m))
}

// uniformAlphas returns equal task weights summing to 1.
func uniformAlphas(m int) []float64 {
	out := make([]float64, m)
	for i := range out {
		out[i] = 1 / float64(m)
	}
	return out
}

// initialDeviations runs the Step-1 classifier over the cell-identity
// partition and returns the training records' signed deviations.
func initialDeviations(ds *dataset.Dataset, cfg Config, trainIdx []int, task, workers int, ref bool) ([]float64, error) {
	dev, _, _, err := initialRun(ds, cfg, trainIdx, task, workers, ref)
	return dev, err
}

// initialRun trains on the base grid (cell identity, centroid
// encoding) and returns the training records' deviations, scores and
// labels in trainIdx order.
func initialRun(ds *dataset.Dataset, cfg Config, trainIdx []int, task, workers int, ref bool) (dev, scores []float64, labels []int, err error) {
	p0, err := partition.CellIdentity(ds.Grid)
	if err != nil {
		return nil, nil, nil, err
	}
	return runOnPartition(ds, cfg, p0, task, trainIdx, workers, ref)
}

// deviationsFor retrains on an arbitrary partition (Iterative level
// callback) and returns training-record deviations.
func deviationsFor(ds *dataset.Dataset, cfg Config, p *partition.Partition, task int, trainIdx []int, workers int, ref bool) ([]float64, error) {
	dev, _, _, err := runOnPartition(ds, cfg, p, task, trainIdx, workers, ref)
	return dev, err
}

// runOnPartition encodes the training records against a partition
// with the centroid encoding, trains on the unweighted train split and
// returns deviations, scores and labels of the training records, in
// trainIdx order. It always trains on dense rows, every location
// column in the base block (partition-shaping runs must reproduce
// historical splits bit-for-bit). Only the training rows are read, so
// only they are encoded, into one backing array. workers only
// parallelizes the fit's per-row and per-column work, which is
// invisible in the output.
func runOnPartition(ds *dataset.Dataset, cfg Config, p *partition.Partition, task int, trainIdx []int, workers int, ref bool) (dev, scores []float64, labels []int, err error) {
	allLabels, err := ds.Labels(task)
	if err != nil {
		return nil, nil, nil, err
	}
	centroids := p.Centroids()
	width, err := dataset.RowWidth(ds.NumFeatures(), p.NumRegions(), centroids, dataset.EncCentroid)
	if err != nil {
		return nil, nil, nil, err
	}
	backing := make([]float64, len(trainIdx)*width)
	trainX := make([][]float64, len(trainIdx))
	for k, i := range trainIdx {
		rec := &ds.Records[i]
		region, err := p.RegionOfCell(rec.Cell)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("partition: record %d: %w", i, err)
		}
		row := backing[k*width : (k+1)*width : (k+1)*width]
		if err := dataset.EncodeRowInto(row, rec.X, region, p.NumRegions(), centroids, dataset.EncCentroid); err != nil {
			return nil, nil, nil, err
		}
		trainX[k] = row
	}
	trainY := dataset.Gather(allLabels, trainIdx)

	clf, err := ml.New(cfg.Model)
	if err != nil {
		return nil, nil, nil, err
	}
	setFitWorkers(clf, workers)
	scores, err = fitScoreDense(clf, trainX, trainY, nil, trainX, ref)
	if err != nil {
		return nil, nil, nil, err
	}
	return deviationsOf(scores, trainY), scores, trainY, nil
}

// fitScoreDense trains clf on the dense rows trainX and scores the
// dense rows scoreX. With ref a logistic regression runs the dense
// reference pair (FitReference, PredictProbaReference) instead.
func fitScoreDense(clf ml.Classifier, trainX [][]float64, trainY []int, weights []float64, scoreX [][]float64, ref bool) ([]float64, error) {
	if lr, ok := clf.(*ml.LogReg); ok && ref {
		if err := lr.FitReference(trainX, trainY, weights); err != nil {
			return nil, err
		}
		return lr.PredictProbaReference(scoreX)
	}
	if err := clf.Fit(trainX, trainY, weights); err != nil {
		return nil, err
	}
	return clf.PredictProba(scoreX)
}

// deviationsOf returns the signed deviations s_i − y_i.
func deviationsOf(scores []float64, y []int) []float64 {
	dev := make([]float64, len(scores))
	for i, s := range scores {
		yi := 0.0
		if y[i] != 0 {
			yi = 1
		}
		dev[i] = s - yi
	}
	return dev
}

// setFitWorkers hands the worker budget to classifiers that can use
// one.
func setFitWorkers(clf ml.Classifier, workers int) {
	if lr, ok := clf.(*ml.LogReg); ok {
		lr.Workers = workers
	}
}
