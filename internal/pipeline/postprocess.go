package pipeline

import (
	"fmt"

	"fairindex/internal/ml"
)

// PostProcess selects an optional per-neighborhood score calibration
// applied after the final training — the post-processing mitigation
// family of the paper's §3 taxonomy ("post-processing techniques
// sacrifice the utility of output confidence scores and align them
// with the fairness objective"). It recalibrates scores within each
// neighborhood on training data, falling back to a global calibrator
// for neighborhoods too small or single-class.
type PostProcess int

const (
	// PostNone leaves the classifier's scores untouched.
	PostNone PostProcess = iota
	// PostPlatt fits a per-neighborhood Platt scaler.
	PostPlatt
	// PostIsotonic fits a per-neighborhood isotonic regression.
	PostIsotonic
)

// String implements fmt.Stringer.
func (p PostProcess) String() string {
	switch p {
	case PostNone:
		return "none"
	case PostPlatt:
		return "platt"
	case PostIsotonic:
		return "isotonic"
	default:
		return fmt.Sprintf("PostProcess(%d)", int(p))
	}
}

// minPostSamples is the minimum per-class training count a
// neighborhood needs for its own calibrator.
const minPostSamples = 8

// newCalibrator constructs the selected calibrator.
func newCalibrator(kind PostProcess) (ml.ScoreCalibrator, error) {
	switch kind {
	case PostPlatt:
		return ml.NewPlatt(), nil
	case PostIsotonic:
		return ml.NewIsotonic(), nil
	default:
		return nil, fmt.Errorf("%w: unsupported post-processing %d", ErrConfig, int(kind))
	}
}

// fitPostCalibrators fits one calibrator per region on the raw
// training scores, falling back to a shared global calibrator for
// regions too small or single-class. trainIdx designates the rows
// calibrators may learn from; regionOf assigns every row to a
// neighborhood in [0, numRegions). The returned slice is indexed by
// region; entries may alias the global fallback.
func fitPostCalibrators(kind PostProcess, allScores []float64, labels, regionOf, trainIdx []int, numRegions int) ([]ml.ScoreCalibrator, error) {
	// Global fallback fitted on all training rows.
	global, err := newCalibrator(kind)
	if err != nil {
		return nil, err
	}
	trainScores := make([]float64, len(trainIdx))
	trainLabels := make([]int, len(trainIdx))
	for i, j := range trainIdx {
		trainScores[i] = allScores[j]
		trainLabels[i] = labels[j]
	}
	if err := global.Fit(trainScores, trainLabels, nil); err != nil {
		return nil, fmt.Errorf("pipeline: global post-calibration: %w", err)
	}

	// Group training rows per region.
	regionTrain := make([][]int, numRegions)
	for _, j := range trainIdx {
		r := regionOf[j]
		regionTrain[r] = append(regionTrain[r], j)
	}
	// Fit one calibrator per eligible region.
	regionCal := make([]ml.ScoreCalibrator, numRegions)
	for r := 0; r < numRegions; r++ {
		rows := regionTrain[r]
		pos, neg := 0, 0
		for _, j := range rows {
			if labels[j] != 0 {
				pos++
			} else {
				neg++
			}
		}
		if pos < minPostSamples || neg < minPostSamples {
			regionCal[r] = global
			continue
		}
		s := make([]float64, len(rows))
		y := make([]int, len(rows))
		for i, j := range rows {
			s[i] = allScores[j]
			y[i] = labels[j]
		}
		c, err := newCalibrator(kind)
		if err != nil {
			return nil, err
		}
		if err := c.Fit(s, y, nil); err != nil {
			return nil, fmt.Errorf("pipeline: region %d post-calibration: %w", r, err)
		}
		regionCal[r] = c
	}
	return regionCal, nil
}

// applyPostCalibrators recalibrates scores in place, routing each row
// through its region's calibrator.
func applyPostCalibrators(regionCal []ml.ScoreCalibrator, scores []float64, regionOf []int) error {
	for j := range scores {
		var err error
		if scores[j], err = regionCal[regionOf[j]].Calibrate(scores[j]); err != nil {
			return err
		}
	}
	return nil
}
