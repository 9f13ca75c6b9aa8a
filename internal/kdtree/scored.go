package kdtree

import (
	"fmt"
	"math"

	"fairindex/internal/calib"
	"fairindex/internal/geo"
)

// SplitScorer scores one candidate split of a fair KD node from the
// two halves' pooled sufficient statistics; the builder picks the
// split minimizing it. NaN is treated as +Inf (never preferred); a
// node where every candidate scores NaN stops splitting and becomes a
// leaf. calib.SplitScorerOf adapts any registered fairness Metric.
type SplitScorer func(left, right calib.SuffStats) float64

// BuildFairScored constructs a Fair KD-tree whose split objective is
// an arbitrary scorer over per-half sufficient statistics — the
// pluggable-objective generalization of BuildFair, which hard-codes
// the Eq. 9 family over signed deviations.
//
// scores[i] and labels[i] are record i's predicted score and label
// (0/1 for single-task builds; the multi-objective path feeds
// α-weighted combinations, so labels are float64). From two pooled
// prefix-sum planes — signed deviations s−y and raw scores s — any
// rectangle's SuffStats are recovered in O(1): count, Σscore, and
// Σlabel = Σscore − Σ(s−y). The construction is otherwise identical
// to BuildFair: same axis schedule, same tie-breaking, same
// depth-first growth.
func BuildFairScored(grid geo.Grid, cells []geo.Cell, scores, labels []float64, scorer SplitScorer, cfg Config) (*Tree, error) {
	if err := validateBuild(grid, cells, cfg.Height); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if scorer == nil {
		return nil, fmt.Errorf("%w: nil split scorer", ErrBadInput)
	}
	if len(scores) != len(cells) {
		return nil, fmt.Errorf("%w: %d scores for %d records", ErrBadInput, len(scores), len(cells))
	}
	if len(labels) != len(cells) {
		return nil, fmt.Errorf("%w: %d labels for %d records", ErrBadInput, len(labels), len(cells))
	}
	deviations := make([]float64, len(scores))
	for i, s := range scores {
		deviations[i] = s - labels[i]
	}
	devSums, err := newCellSumsPooled(grid, cells, deviations)
	if err != nil {
		return nil, err
	}
	defer devSums.release()
	scoreSums, err := newCellSumsPooled(grid, cells, scores)
	if err != nil {
		return nil, err
	}
	defer scoreSums.release()

	statsOf := func(r geo.CellRect) calib.SuffStats {
		sumScore := scoreSums.ValueRect(r)
		return calib.SuffStats{
			Count:    int(devSums.CountRect(r)),
			SumScore: sumScore,
			SumLabel: sumScore - devSums.ValueRect(r),
		}
	}
	g := &grower{height: cfg.Height, score: func(left, right geo.CellRect) float64 {
		s := scorer(statsOf(left), statsOf(right))
		if math.IsNaN(s) {
			return math.Inf(1)
		}
		return s
	}}
	t := &Tree{Grid: grid, Height: cfg.Height}
	t.Root = g.grow(grid.Bounds(), 0)
	return t, nil
}

// BuildMultiObjectiveScored is BuildFairScored over the α-weighted
// task combination of Eq. 12: record j contributes pooled score
// Σ_i α_i·s_i[j] and pooled label Σ_i α_i·y_i[j], so the scorer sees
// the combined calibration statistics of all tasks at once. Argument
// validation matches BuildMultiObjective exactly.
func BuildMultiObjectiveScored(grid geo.Grid, cells []geo.Cell, scoreSets [][]float64, labelSets [][]int, alphas []float64, scorer SplitScorer, cfg Config) (*Tree, error) {
	// Reuse the Eq. 12 validation; the combined deviations it returns
	// are discarded — the scored builder re-derives them from the
	// pooled planes.
	if _, err := MultiObjectiveDeviations(scoreSets, labelSets, alphas); err != nil {
		return nil, err
	}
	n := len(scoreSets[0])
	scores := make([]float64, n)
	labels := make([]float64, n)
	for i := range scoreSets {
		a := alphas[i]
		for j := 0; j < n; j++ {
			scores[j] += a * scoreSets[i][j]
			if labelSets[i][j] != 0 {
				labels[j] += a
			}
		}
	}
	return BuildFairScored(grid, cells, scores, labels, scorer, cfg)
}
