package pipeline

import (
	"math"
	"testing"

	"fairindex/internal/dataset"
)

// dsEncCentroid shortens the encoding reference in test configs.
const dsEncCentroid = dataset.EncCentroid

func TestPostProcessString(t *testing.T) {
	tests := []struct {
		p    PostProcess
		want string
	}{
		{PostNone, "none"},
		{PostPlatt, "platt"},
		{PostIsotonic, "isotonic"},
		{PostProcess(9), "PostProcess(9)"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestNewCalibratorUnknown(t *testing.T) {
	if _, err := newCalibrator(PostNone); err == nil {
		t.Error("expected error for PostNone calibrator")
	}
	if _, err := newCalibrator(PostProcess(9)); err == nil {
		t.Error("expected error for unknown kind")
	}
}

func TestPostProcessScoresRecalibratesRegions(t *testing.T) {
	// Two regions with opposite systematic bias: region 0 scores are
	// 0.3 below truth, region 1 scores 0.3 above. Per-region
	// calibration must pull both toward their local positive rates.
	const perRegion = 40
	n := 2 * perRegion
	scores := make([]float64, n)
	labels := make([]int, n)
	regionOf := make([]int, n)
	trainIdx := make([]int, n)
	for i := 0; i < n; i++ {
		trainIdx[i] = i
		r := i / perRegion
		regionOf[i] = r
		// Half of each region positive.
		if i%2 == 0 {
			labels[i] = 1
		}
		base := 0.5
		if r == 0 {
			base = 0.2 // under-scored region
		} else {
			base = 0.8 // over-scored region
		}
		scores[i] = base + 0.05*float64(i%4)/4
	}
	before := regionMiscal(scores, labels, regionOf, 2)
	cals, err := fitPostCalibrators(PostIsotonic, scores, labels, regionOf, trainIdx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := applyPostCalibrators(cals, scores, regionOf); err != nil {
		t.Fatal(err)
	}
	after := regionMiscal(scores, labels, regionOf, 2)
	if after >= before*0.5 {
		t.Errorf("post-processing did not recalibrate: %v -> %v", before, after)
	}
	for _, s := range scores {
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("score %v out of range", s)
		}
	}
}

// regionMiscal computes the mean per-region |e−o|.
func regionMiscal(scores []float64, labels, regionOf []int, numRegions int) float64 {
	sumS := make([]float64, numRegions)
	sumY := make([]float64, numRegions)
	cnt := make([]float64, numRegions)
	for i := range scores {
		r := regionOf[i]
		sumS[r] += scores[i]
		sumY[r] += float64(labels[i])
		cnt[r]++
	}
	var total float64
	for r := 0; r < numRegions; r++ {
		if cnt[r] > 0 {
			total += math.Abs(sumS[r]/cnt[r] - sumY[r]/cnt[r])
		}
	}
	return total / float64(numRegions)
}

func TestPostProcessScoresSmallRegionFallsBack(t *testing.T) {
	// A region with too few samples must use the global calibrator
	// rather than fail.
	scores := []float64{0.4, 0.6, 0.3, 0.7, 0.2, 0.8, 0.45, 0.55, 0.35, 0.65, 0.25, 0.75, 0.5, 0.9}
	labels := []int{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}
	regionOf := make([]int, len(scores))
	regionOf[len(scores)-1] = 1 // region 1 holds a single record
	trainIdx := make([]int, len(scores))
	for i := range trainIdx {
		trainIdx[i] = i
	}
	cals, err := fitPostCalibrators(PostPlatt, scores, labels, regionOf, trainIdx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := applyPostCalibrators(cals, scores, regionOf); err != nil {
		t.Fatal(err)
	}
	for _, s := range scores {
		if math.IsNaN(s) || s < 0 || s > 1 {
			t.Fatalf("score %v out of range", s)
		}
	}
}

func TestRunWithPostProcessing(t *testing.T) {
	// Height 3 keeps regions populated enough (~60 train records each)
	// for the per-region calibrators to engage; with finer partitions
	// most regions fall back to the global calibrator, which offers no
	// per-neighborhood guarantee (see fitPostCalibrators docs). The
	// centroid encoding leaves systematic per-region miscalibration
	// for the post-processor to remove.
	ds := testCity(t)
	cfg := Config{Method: MethodMedianKD, Height: 3, Seed: 3, Encoding: dsEncCentroid}
	base, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pp := range []PostProcess{PostPlatt, PostIsotonic} {
		t.Run(pp.String(), func(t *testing.T) {
			withPP := cfg
			withPP.PostProcess = pp
			res, err := Run(ds, withPP)
			if err != nil {
				t.Fatal(err)
			}
			if res.Tasks[0].ENCETrain >= base.Tasks[0].ENCETrain {
				t.Errorf("%v: train ENCE %v not below unprocessed %v",
					pp, res.Tasks[0].ENCETrain, base.Tasks[0].ENCETrain)
			}
		})
	}
}
