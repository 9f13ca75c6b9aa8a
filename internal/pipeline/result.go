package pipeline

import (
	"fmt"
	"math"
	"time"

	"fairindex/internal/calib"
	"fairindex/internal/dataset"
	"fairindex/internal/ml"
	"fairindex/internal/partition"
	"fairindex/internal/reweigh"
)

// TaskResult reports the final model's quality and fairness for one
// classification task over the produced neighborhoods.
type TaskResult struct {
	Task     int
	TaskName string

	// Fairness metrics.
	ENCE      float64 // Definition 3 over the full dataset
	ENCETrain float64
	ENCETest  float64

	// Utility metrics (Figure 8's indicators).
	Accuracy    float64 // test accuracy at threshold 0.5
	AUC         float64 // test AUC
	TrainMiscal float64 // overall |e−o| on the train split
	TestMiscal  float64 // overall |e−o| on the test split
	ECE         float64 // overall binned ECE on the full dataset

	// Overall calibration ratios e(h)/o(h) per split (§5.2 reports
	// these as evidence the model looks fair citywide). NaN when the
	// split holds no positives.
	TrainCalRatio float64
	TestCalRatio  float64

	// Auxiliary group-fairness notions from the paper's §3 taxonomy,
	// computed over the full dataset at threshold 0.5.
	StatParityGap float64
	EqualOddsGap  float64

	// Per-neighborhood reports for the most populated regions
	// (Figure 6 style), at most 10 entries.
	TopNeighborhoods []calib.NeighborhoodReport

	// Feature importance aggregated back onto dataset features plus a
	// "Neighborhood" entry (Figure 9); nil when the model cannot
	// attribute.
	ImportanceNames  []string
	ImportanceValues []float64
}

// Result is the full output of one pipeline run.
type Result struct {
	Method     Method
	Height     int
	Model      ml.ModelKind
	Partition  *partition.Partition
	NumRegions int
	Tasks      []TaskResult

	// BuildTime covers the partition construction, including any
	// classifier runs the method itself requires (so the Fair vs
	// Iterative comparison matches §5.3.1's timing claim). TrainTime
	// covers the final per-task training and evaluation.
	BuildTime time.Duration
	TrainTime time.Duration

	TrainIdx, TestIdx []int
}

// TrainedTask bundles one task's trained final model with its fitted
// post-processing calibrators (nil when Config.PostProcess is none;
// otherwise indexed by region) and the metric report.
type TrainedTask struct {
	Report TaskResult
	Model  ml.Classifier
	// Post holds the per-region score calibrators; entries may share
	// the global fallback calibrator.
	Post []ml.ScoreCalibrator
	// RegionStats holds the final model's per-region calibration
	// sufficient statistics (count, Σ score, Σ label) over the full
	// dataset, indexed by region id. Unlike Report.TopNeighborhoods
	// (capped at 10) it covers every region, and the sums are
	// additive, so an Index can aggregate them exactly over any
	// query window (GroupStats).
	RegionStats []calib.SuffStats
	// TrainTime is this task's own training + evaluation duration;
	// with Build's worker pool the per-task times overlap, so they sum
	// to more than Artifacts.TrainTime when tasks ran in parallel.
	TrainTime time.Duration
}

// trainTask trains the final model for one task over the produced
// partition, fits any post-processing calibrators and computes every
// reported metric. regionOf and encoded are the task-independent
// record→region assignment and encoded feature matrix — computed once
// by Build and shared read-only across the parallel task workers.
//
// The logistic regression trains and scores with the grouped kernels
// over the factorized layout; fitWorkers bounds their forward-pass
// goroutines. ref selects the retained naive reference kernels
// (BuildReference) — bit-identical outputs, different machinery.
func trainTask(ds *dataset.Dataset, cfg Config, part *partition.Partition, regionOf []int, encoded *dataset.Encoded, task int, trainIdx, testIdx []int, fitWorkers int, ref bool) (*TrainedTask, error) {
	labels, err := ds.Labels(task)
	if err != nil {
		return nil, err
	}
	trainY := dataset.Gather(labels, trainIdx)
	trainGroups := dataset.Gather(regionOf, trainIdx)

	var weights []float64
	if cfg.Method == MethodGridReweight || cfg.Reweight {
		weights, err = reweigh.Weights(trainGroups, part.NumRegions(), trainY)
		if err != nil {
			return nil, err
		}
	}

	clf, err := ml.New(cfg.Model)
	if err != nil {
		return nil, err
	}
	setFitWorkers(clf, fitWorkers)
	allScores, err := fitAndScore(clf, encoded, trainIdx, trainY, weights, ref)
	if err != nil {
		return nil, err
	}
	out := &TrainedTask{Model: clf}
	if cfg.PostProcess != PostNone {
		out.Post, err = fitPostCalibrators(cfg.PostProcess, allScores, labels, regionOf, trainIdx, part.NumRegions())
		if err != nil {
			return nil, err
		}
		if err := applyPostCalibrators(out.Post, allScores, regionOf); err != nil {
			return nil, err
		}
	}

	tr := &TaskResult{Task: task, TaskName: ds.TaskNames[task]}

	trainScores := dataset.Gather(allScores, trainIdx)
	testScores := dataset.Gather(allScores, testIdx)
	testY := dataset.Gather(labels, testIdx)
	testGroups := dataset.Gather(regionOf, testIdx)

	tr.TrainMiscal = calib.MiscalAbs(trainScores, trainY)
	tr.TestMiscal = calib.MiscalAbs(testScores, testY)
	tr.TrainCalRatio = ratioOrNaN(trainScores, trainY)
	tr.TestCalRatio = ratioOrNaN(testScores, testY)
	if tr.Accuracy, err = ml.Accuracy(testScores, testY, ml.DefaultThreshold); err != nil {
		return nil, err
	}
	if tr.AUC, err = ml.AUC(testScores, testY); err != nil {
		return nil, err
	}
	if tr.ENCE, err = calib.ENCE(allScores, labels, regionOf, part.NumRegions()); err != nil {
		return nil, err
	}
	if tr.ENCETrain, err = calib.ENCE(trainScores, trainY, trainGroups, part.NumRegions()); err != nil {
		return nil, err
	}
	if tr.ENCETest, err = calib.ENCE(testScores, testY, testGroups, part.NumRegions()); err != nil {
		return nil, err
	}
	if tr.ECE, err = calib.ECE(allScores, labels, cfg.ECEBins); err != nil {
		return nil, err
	}
	if tr.TopNeighborhoods, err = calib.TopNeighborhoods(allScores, labels, regionOf, part.NumRegions(), 10, cfg.ECEBins); err != nil {
		return nil, err
	}
	// Full per-region sufficient statistics over the (post-processed)
	// serving scores, kept beyond the top-10 report so the Index can
	// answer exact fairness aggregates over arbitrary region sets.
	if out.RegionStats, err = calib.GroupBy(allScores, labels, regionOf, part.NumRegions()); err != nil {
		return nil, err
	}
	// Gaps are measured over neighborhoods with at least 10 members so
	// single-record leaves at deep heights do not pin them at 1.
	const minGapPop = 10
	if tr.StatParityGap, err = calib.StatisticalParityGap(allScores, labels, regionOf, part.NumRegions(), ml.DefaultThreshold, minGapPop); err != nil {
		return nil, err
	}
	if tr.EqualOddsGap, err = calib.EqualizedOddsGap(allScores, labels, regionOf, part.NumRegions(), ml.DefaultThreshold, minGapPop); err != nil {
		return nil, err
	}
	if imp, ok := clf.(ml.FeatureImporter); ok {
		if raw := imp.FeatureImportance(); raw != nil {
			names, agg, err := encoded.AggregateImportance(raw)
			if err != nil {
				return nil, err
			}
			tr.ImportanceNames = names
			tr.ImportanceValues = agg
		}
	}
	out.Report = *tr
	return out, nil
}

// fitAndScore trains clf on the encoded train split and scores every
// record. The logistic regression trains and scores on the factorized
// layout with the grouped kernels; every other model gets dense rows
// through fitScoreDense. With ref the logistic regression runs the
// retained grouped reference kernels instead — same arithmetic, naive
// execution.
func fitAndScore(clf ml.Classifier, encoded *dataset.Encoded, trainIdx []int, trainY []int, weights []float64, ref bool) ([]float64, error) {
	lr, ok := clf.(*ml.LogReg)
	if !ok {
		all := encoded.Rows(nil)
		return fitScoreDense(clf, dataset.Gather(all, trainIdx), trainY, weights, all, ref)
	}
	trainDesign := &ml.GroupedDesign{
		Base:   dataset.Gather(encoded.Base, trainIdx),
		Group:  dataset.Gather(encoded.Group, trainIdx),
		Shared: encoded.Shared,
	}
	allDesign := &ml.GroupedDesign{Base: encoded.Base, Group: encoded.Group, Shared: encoded.Shared}
	if ref {
		if err := lr.FitGroupedReference(trainDesign, trainY, weights); err != nil {
			return nil, err
		}
		return lr.PredictProbaGroupedReference(allDesign)
	}
	if err := lr.FitGrouped(trainDesign, trainY, weights); err != nil {
		return nil, err
	}
	return lr.PredictProbaGrouped(allDesign)
}

// ratioOrNaN wraps calib.Ratio, mapping the undefined case to NaN.
func ratioOrNaN(scores []float64, labels []int) float64 {
	if r, ok := calib.Ratio(scores, labels); ok {
		return r
	}
	return math.NaN()
}

// TaskByName returns the task result with the given name.
func (r *Result) TaskByName(name string) (*TaskResult, error) {
	for i := range r.Tasks {
		if r.Tasks[i].TaskName == name {
			return &r.Tasks[i], nil
		}
	}
	return nil, fmt.Errorf("pipeline: no task %q in result", name)
}
