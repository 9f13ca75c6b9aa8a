package kdtree

import "fairindex/internal/geo"

// grower is the shared recursive construction engine behind the
// median and fair KD builders: pick the depth's axis, scan split
// candidates over the prefix-sum workspace with the builder's scoring
// function, recurse into both halves. Independent sibling subtrees
// may evaluate on a bounded worker pool; the merge is deterministic —
// each parent assigns its children to fixed fields and waits for both
// — so the tree shape, the depth-first leaf order and therefore the
// region ids are identical to a sequential build for any worker
// count.
type grower struct {
	sums   *CellSums
	height int
	score  func(left, right geo.CellRect) float64
	pool   forkPool
	growFn func(geo.CellRect, int) *Node // g.grow, bound once for forkJoin
}

// newGrower returns a grower with a worker budget of workers-1 extra
// goroutines (<= 1 disables parallelism).
func newGrower(sums *CellSums, height int, workers int, score func(left, right geo.CellRect) float64) *grower {
	g := &grower{sums: sums, height: height, score: score, pool: newForkPool(workers)}
	g.growFn = g.grow
	return g
}

// forkPool is the parallelism budget of the recursive builders: a
// semaphore of workers-1 extra goroutines (nil = sequential).
type forkPool chan struct{}

func newForkPool(workers int) forkPool {
	if workers <= 1 {
		return nil
	}
	return make(forkPool, workers-1)
}

// forkJoin returns f(a, depth) and f(b, depth), evaluating f(a) on
// another goroutine when the pool has a free slot and inline before
// f(b) otherwise. Each result lands in its fixed return slot, so the
// tree built from them never depends on scheduling. f is a function
// value the caller binds once: the inline path allocates nothing.
func forkJoin[A, R any](p forkPool, f func(A, int) R, a, b A, depth int) (R, R) {
	select {
	case p <- struct{}{}: // a nil pool never has a slot
		ra := make(chan R, 1)
		go func() {
			r := f(a, depth)
			<-p // free the slot before the join can observe the result
			ra <- r
		}()
		rb := f(b, depth)
		return <-ra, rb
	default:
		return f(a, depth), f(b, depth)
	}
}

// grow builds the subtree rooted at rect.
func (g *grower) grow(rect geo.CellRect, depth int) *Node {
	n := &Node{Rect: rect, Depth: depth}
	if depth >= g.height {
		return n
	}
	axis, ok := splitAxis(rect, depth)
	if !ok {
		return n
	}
	k := bestSplit(rect, axis, func(_ int, left, right geo.CellRect) float64 {
		return g.score(left, right)
	})
	if k < 0 {
		return n
	}
	left, right := splitRect(rect, axis, k)
	n.Axis = axis
	n.SplitK = k
	n.Left, n.Right = forkJoin(g.pool, g.growFn, left, right, depth+1)
	return n
}
