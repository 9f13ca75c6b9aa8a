package calib

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// SuffStats holds one group's additive sufficient statistics:
// instance count, Σ scores and Σ labels. Every fairness metric in this
// package (see Metric) is a closed-form function of these three
// quantities per group, which is what makes window aggregates exact —
// summing two groups' SuffStats yields the statistics of their union.
type SuffStats struct {
	Count    int
	SumScore float64
	SumLabel float64
}

// MeanScore returns e(N) for the group, or 0 if empty.
func (g SuffStats) MeanScore() float64 {
	if g.Count == 0 {
		return 0
	}
	return g.SumScore / float64(g.Count)
}

// PosRate returns o(N) for the group, or 0 if empty.
func (g SuffStats) PosRate() float64 {
	if g.Count == 0 {
		return 0
	}
	return g.SumLabel / float64(g.Count)
}

// MiscalAbs returns |e(N) − o(N)| for the group, 0 if empty.
func (g SuffStats) MiscalAbs() float64 {
	return math.Abs(g.MeanScore() - g.PosRate())
}

// SignedDeviation returns Σ (s − y) for the group.
func (g SuffStats) SignedDeviation() float64 { return g.SumScore - g.SumLabel }

// GroupBy accumulates SuffStats for each group id in [0, numGroups).
// groups[i] is the group of instance i; out-of-range ids are an error.
func GroupBy(scores []float64, labels []int, groups []int, numGroups int) ([]SuffStats, error) {
	if numGroups < 0 {
		return nil, fmt.Errorf("calib: negative group count %d", numGroups)
	}
	return groupByInto(make([]SuffStats, numGroups), scores, labels, groups, numGroups)
}

// groupByInto is GroupBy accumulating into a caller-provided slice
// (already sized and zeroed to numGroups entries).
func groupByInto(out []SuffStats, scores []float64, labels []int, groups []int, numGroups int) ([]SuffStats, error) {
	if err := checkPair(scores, labels); err != nil {
		return nil, err
	}
	if len(groups) != len(scores) {
		return nil, fmt.Errorf("%w: %d scores vs %d groups", ErrLengthMismatch, len(scores), len(groups))
	}
	if numGroups < 0 {
		return nil, fmt.Errorf("calib: negative group count %d", numGroups)
	}
	for i, g := range groups {
		if g < 0 || g >= numGroups {
			return nil, fmt.Errorf("calib: group id %d of instance %d out of range [0,%d)", g, i, numGroups)
		}
		out[g].Count++
		out[g].SumScore += scores[i]
		out[g].SumLabel += float64(label01(labels[i]))
	}
	return out, nil
}

// statsPool recycles the per-group accumulators behind ENCE, which
// the pipeline evaluates several times per task (full/train/test
// splits) on every build; the stats never escape the call.
var statsPool = sync.Pool{New: func() any { return new([]SuffStats) }}

// pooledStats returns a zeroed numGroups-long accumulator from the
// pool.
func pooledStats(numGroups int) *[]SuffStats {
	p := statsPool.Get().(*[]SuffStats)
	s := *p
	if cap(s) < numGroups {
		s = make([]SuffStats, numGroups)
	} else {
		s = s[:numGroups]
		for i := range s {
			s[i] = SuffStats{}
		}
	}
	*p = s
	return p
}

// ENCEFromStats computes Definition 3 from pre-aggregated group stats:
//
//	ENCE = Σ_i (|N_i| / |D|) · |o(N_i) − e(N_i)|
//
// Empty groups contribute nothing. Returns 0 when the total population
// is zero.
func ENCEFromStats(stats []SuffStats) float64 {
	total := 0
	for _, g := range stats {
		total += g.Count
	}
	if total == 0 {
		return 0
	}
	var ence float64
	for _, g := range stats {
		if g.Count == 0 {
			continue
		}
		ence += (float64(g.Count) / float64(total)) * g.MiscalAbs()
	}
	return ence
}

// ENCE computes the Expected Neighborhood Calibration Error
// (Definition 3) for instances assigned to groups (neighborhoods)
// identified by ids in [0, numGroups). The accumulators come from an
// internal pool — ENCE is on the build pipeline's evaluation path and
// must not churn O(regions) garbage per call.
func ENCE(scores []float64, labels []int, groups []int, numGroups int) (float64, error) {
	if numGroups < 0 {
		return 0, fmt.Errorf("calib: negative group count %d", numGroups)
	}
	p := pooledStats(numGroups)
	defer statsPool.Put(p)
	stats, err := groupByInto(*p, scores, labels, groups, numGroups)
	if err != nil {
		return 0, err
	}
	return ENCEFromStats(stats), nil
}

// NeighborhoodReport is the per-neighborhood calibration summary used
// by the Figure 6 disparity experiment.
type NeighborhoodReport struct {
	Group    int     // neighborhood id
	Count    int     // population
	Ratio    float64 // e/o calibration ratio (NaN when o = 0)
	Miscal   float64 // |e − o|
	ECE      float64 // per-neighborhood binned ECE
	PosRate  float64
	MeanConf float64
}

// TopNeighborhoods returns per-neighborhood calibration reports for
// the k most populated neighborhoods, ordered by descending
// population (ties broken by group id). ECE inside each neighborhood
// uses the given bin count.
func TopNeighborhoods(scores []float64, labels []int, groups []int, numGroups, k, bins int) ([]NeighborhoodReport, error) {
	stats, err := GroupBy(scores, labels, groups, numGroups)
	if err != nil {
		return nil, err
	}
	order := make([]int, numGroups)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ga, gb := order[a], order[b]
		if stats[ga].Count != stats[gb].Count {
			return stats[ga].Count > stats[gb].Count
		}
		return ga < gb
	})
	if k > numGroups {
		k = numGroups
	}
	// Bucket the selected groups' instances in one pass over the data
	// (instead of one scan per report); within each bucket the
	// instance order is unchanged, so the per-neighborhood ECE is
	// identical to a per-group gather.
	slot := make(map[int]int, k)
	gsBySlot := make([][]float64, k)
	glBySlot := make([][]int, k)
	for s, g := range order[:k] {
		slot[g] = s
		gsBySlot[s] = make([]float64, 0, stats[g].Count)
		glBySlot[s] = make([]int, 0, stats[g].Count)
	}
	for i, gid := range groups {
		if s, ok := slot[gid]; ok {
			gsBySlot[s] = append(gsBySlot[s], scores[i])
			glBySlot[s] = append(glBySlot[s], labels[i])
		}
	}
	reports := make([]NeighborhoodReport, 0, k)
	for s, g := range order[:k] {
		st := stats[g]
		ece, err := ECE(gsBySlot[s], glBySlot[s], bins)
		if err != nil {
			return nil, err
		}
		ratio := math.NaN()
		if st.PosRate() > 0 {
			ratio = st.MeanScore() / st.PosRate()
		}
		reports = append(reports, NeighborhoodReport{
			Group:    g,
			Count:    st.Count,
			Ratio:    ratio,
			Miscal:   st.MiscalAbs(),
			ECE:      ece,
			PosRate:  st.PosRate(),
			MeanConf: st.MeanScore(),
		})
	}
	return reports, nil
}
