package dataset

import (
	"fmt"
	"math/rand"
)

// StratifiedSplit partitions {0..len(labels)-1} into train/test sets
// preserving the label proportions, deterministically for the seed.
// Used by the experiment harnesses so that small test sets keep both
// classes represented.
func StratifiedSplit(labels []int, testFrac float64, seed int64) (train, test []int, err error) {
	n := len(labels)
	if n == 0 {
		return nil, nil, fmt.Errorf("dataset: cannot split 0 records")
	}
	if testFrac < 0 || testFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset: test fraction %v out of [0,1)", testFrac)
	}
	rng := rand.New(rand.NewSource(seed))
	var pos, neg []int
	for i, y := range labels {
		if y != 0 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	shuffle(rng, pos)
	shuffle(rng, neg)
	take := func(group []int) (tr, te []int) {
		k := int(float64(len(group)) * testFrac)
		return group[k:], group[:k]
	}
	posTr, posTe := take(pos)
	negTr, negTe := take(neg)
	train = append(append([]int(nil), posTr...), negTr...)
	test = append(append([]int(nil), posTe...), negTe...)
	if len(train) == 0 {
		// Degenerate: everything went to test; move one record back.
		train = append(train, test[len(test)-1])
		test = test[:len(test)-1]
	}
	shuffle(rng, train)
	shuffle(rng, test)
	return train, test, nil
}

func shuffle(rng *rand.Rand, xs []int) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// Gather selects rows of a matrix by index.
func Gather[T any](rows []T, idx []int) []T {
	out := make([]T, len(idx))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out
}
