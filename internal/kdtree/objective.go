package kdtree

import (
	"fmt"
	"math"

	"fairindex/internal/geo"
)

// Objective selects the split scoring function used by the fair
// builders.
type Objective int

const (
	// ObjectiveEq9 is the paper's fairness objective in its consistent
	// form: z_k = | |Σ_L (s−y)| − |Σ_R (s−y)| |, which equals
	// | |L|·|o(L)−e(L)| − |R|·|o(R)−e(R)| | of Eq. 9 exactly (the
	// cardinalities cancel into the unnormalized sums). Minimizing it
	// splits the node's signed miscalibration mass in half.
	ObjectiveEq9 Objective = iota
	// ObjectiveLiteralEq13 applies Eq. 13 as printed, multiplying each
	// side's deviation-sum magnitude by its cardinality again:
	// z_k = | |L|·|Σ_L v| − |R|·|Σ_R v| |. Kept for the ablation
	// study; see DESIGN.md §2 on the Eq. 13 discrepancy.
	ObjectiveLiteralEq13
	// ObjectiveComposite blends a geometric balance term with the
	// fairness term: z = λ·balance + (1−λ)·fairness, both normalized
	// to [0,1]. It realizes the paper's future-work "custom split
	// metrics" (§6). λ = 1 degenerates to the median tree, λ = 0 to
	// ObjectiveEq9.
	ObjectiveComposite
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case ObjectiveEq9:
		return "eq9"
	case ObjectiveLiteralEq13:
		return "literal-eq13"
	case ObjectiveComposite:
		return "composite"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Config parameterizes the fair builders.
type Config struct {
	// Height is the tree height th: a full tree yields up to 2^th
	// leaves.
	Height int
	// Objective selects the split scoring; zero value is the paper's
	// Eq. 9.
	Objective Objective
	// Lambda is the geometry weight for ObjectiveComposite, in [0,1].
	Lambda float64
}

// validate checks the config.
func (c Config) validate() error {
	if c.Height < 0 {
		return fmt.Errorf("%w: %d", ErrBadHeight, c.Height)
	}
	switch c.Objective {
	case ObjectiveEq9, ObjectiveLiteralEq13:
	case ObjectiveComposite:
		if c.Lambda < 0 || c.Lambda > 1 {
			return fmt.Errorf("%w: composite lambda %v outside [0,1]", ErrBadInput, c.Lambda)
		}
	default:
		return fmt.Errorf("%w: unknown objective %d", ErrBadInput, int(c.Objective))
	}
	return nil
}

// splitScore computes the objective value for one candidate split of
// a node. left and right are the candidate sub-rects; sums provides
// counts and deviation masses.
func splitScore(obj Objective, lambda float64, sums *CellSums, left, right geo.CellRect) float64 {
	devL := math.Abs(sums.ValueRect(left))
	devR := math.Abs(sums.ValueRect(right))
	switch obj {
	case ObjectiveEq9:
		return math.Abs(devL - devR)
	case ObjectiveLiteralEq13:
		cntL := sums.CountRect(left)
		cntR := sums.CountRect(right)
		return math.Abs(cntL*devL - cntR*devR)
	case ObjectiveComposite:
		// Both terms are normalized by per-node constants (the node's
		// record count and its additive absolute deviation mass), so
		// λ = 1 preserves the median argmin ordering and λ = 0 the
		// Eq. 9 ordering exactly.
		cntL := sums.CountRect(left)
		cntR := sums.CountRect(right)
		balance := 0.0
		if total := cntL + cntR; total > 0 {
			balance = math.Abs(cntL-cntR) / total
		}
		fairness := 0.0
		if absNode := sums.AbsRect(left) + sums.AbsRect(right); absNode > 0 {
			fairness = math.Abs(devL-devR) / absNode
		}
		return lambda*balance + (1-lambda)*fairness
	default:
		return math.Inf(1)
	}
}

// bestSplit scans all candidate split offsets k ∈ [1, len) of the
// node along the axis and returns the k minimizing score(k). Ties
// break toward the most geometrically balanced split (closest to the
// middle), then toward the smaller k, keeping the construction
// deterministic (see DESIGN.md §2, "Degenerate splits").
func bestSplit(node geo.CellRect, axis geo.Axis, score func(k int, left, right geo.CellRect) float64) int {
	n := axisLen(node, axis)
	bestK := -1
	bestScore := math.Inf(1)
	bestDist := math.Inf(1)
	for k := 1; k < n; k++ {
		left, right := splitRect(node, axis, k)
		s := score(k, left, right)
		dist := math.Abs(float64(k) - float64(n)/2)
		better := s < bestScore-1e-15 ||
			(s <= bestScore+1e-15 && dist < bestDist-1e-12)
		if better {
			bestK, bestScore, bestDist = k, s, dist
		}
	}
	return bestK
}
