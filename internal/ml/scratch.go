package ml

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// fitScratch holds the reusable buffers of the allocation-free
// training kernel. One scratch serves one Fit or FitGrouped call; the
// pool recycles it across calls — including the pipeline's repeated
// per-task and multi-objective runs — so steady-state training does
// not grow the heap with O(n·cols) garbage per call. A dense fit uses
// only the base-block buffers.
type fitScratch struct {
	zbase      []float64 // n×B standardized base block, flat
	zshared    []float64 // G×S standardized shared block, flat
	sharedDot  []float64 // G per-epoch shared-block partial dot products
	sharedGrad []float64 // G per-epoch gradient group sums
	resid      []float64 // n per-epoch residuals w·(p−y)
	grad       []float64 // C gradient accumulator
	uniform    []float64 // n uniform weights when the caller passes nil
}

var scratchPool = sync.Pool{New: func() any { return new(fitScratch) }}

// grown returns buf resized to n, reusing its capacity when possible.
// Contents are unspecified; callers overwrite every element.
func grown(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// effectiveWeights validates w against n rows and returns the weight
// slice to train with. A nil w resolves to uniform weights drawn from
// the scratch (so the hot paths never allocate them); the returned
// slice must not outlive the scratch.
func effectiveWeights(n int, w []float64, sc *fitScratch) ([]float64, error) {
	if w == nil {
		sc.uniform = grown(sc.uniform, n)
		u := sc.uniform
		for i := range u {
			u[i] = 1
		}
		return u, nil
	}
	if len(w) != n {
		return nil, fmt.Errorf("%w: %d weights for %d rows", ErrBadWeights, len(w), n)
	}
	var total float64
	for i, wi := range w {
		if wi < 0 {
			return nil, fmt.Errorf("%w: negative weight %v at row %d", ErrBadWeights, wi, i)
		}
		total += wi
	}
	if total <= 0 {
		return nil, fmt.Errorf("%w: weights sum to %v", ErrBadWeights, total)
	}
	return w, nil
}

// checkMatrix checks the dense design-matrix preconditions shared by
// Fit (the weight handling lives in effectiveWeights).
func checkMatrix(X [][]float64, y []int) (cols int, err error) {
	if len(X) == 0 {
		return 0, ErrNoData
	}
	if len(y) != len(X) {
		return 0, fmt.Errorf("%w: %d rows vs %d labels", ErrShape, len(X), len(y))
	}
	cols = len(X[0])
	if cols == 0 {
		return 0, fmt.Errorf("%w: rows have no columns", ErrShape)
	}
	for i, row := range X {
		if len(row) != cols {
			return 0, fmt.Errorf("%w: row %d has %d columns, want %d", ErrShape, i, len(row), cols)
		}
	}
	return cols, nil
}

// minChunk is the fewest rows a parallel row chunk gets: below
// 2·minChunk rows every phase runs inline on the caller, where
// goroutine hand-offs would cost more than they save.
const minChunk = 1024

// crew is one fit's worker set: the calling goroutine plus helpers
// started once and reused by every epoch's phases, so an epoch starts
// no goroutine and allocates nothing as long as its task functions are
// built once per fit. A phase is a list of tasks the participants claim
// in turn; each task writes only state it owns, so which goroutine
// runs it never changes a bit. A crew over fewer than 2·minChunk rows
// has no helpers and runs every phase inline.
type crew struct {
	n      int             // rows the crew was sized for
	chunk  int             // rows per chunk (span)
	chunks int             // row chunks, one per participant
	start  []chan struct{} // one wake-up channel per helper
	done   sync.WaitGroup

	// The running phase.
	fn    func(t int)
	tasks int
	next  atomic.Int64
}

// newCrew sizes a crew for n rows and up to workers goroutines; stop
// it when the fit is done.
func newCrew(n, workers int) *crew {
	workers = max(1, min(workers, n/minChunk))
	chunk := max(1, (n+workers-1)/workers) // n = 0 gives no chunks
	c := &crew{n: n, chunk: chunk, chunks: (n + chunk - 1) / chunk, start: make([]chan struct{}, workers-1)}
	for k := range c.start {
		wake := make(chan struct{}, 1)
		c.start[k] = wake
		go func() {
			for range wake {
				c.work()
				c.done.Done()
			}
			c.done.Done() // exited, for stop
		}()
	}
	return c
}

// stop ends the crew's helpers and waits for them to exit, so the
// next crew reuses their goroutines instead of allocating new ones.
func (c *crew) stop() {
	c.done.Add(len(c.start))
	for _, wake := range c.start {
		close(wake)
	}
	c.done.Wait()
}

// span returns the rows [lo, hi) of chunk t of the crew's n rows.
func (c *crew) span(t int) (lo, hi int) {
	lo = t * c.chunk
	return lo, min(lo+c.chunk, c.n)
}

// each runs fn(t) for every t in [0, tasks) and returns when all have
// finished.
func (c *crew) each(tasks int, fn func(t int)) {
	c.fn, c.tasks = fn, tasks
	c.next.Store(0)
	c.done.Add(len(c.start))
	for _, wake := range c.start {
		wake <- struct{}{}
	}
	c.work()
	c.done.Wait()
}

// work claims and runs the current phase's tasks until none is left.
func (c *crew) work() {
	for t := int(c.next.Add(1)) - 1; t < c.tasks; t = int(c.next.Add(1)) - 1 {
		c.fn(t)
	}
}

// residualGrad is the gradient step of full-batch logistic regression
// on a flat row-major n×cols matrix z, given the epoch's residuals
// r[i] = w[i]·(p[i] − y[i]):
//
//	grad[j] = Σ_i r[i]·z[i·cols+j]   sum = Σ_i r[i]
//	groupSum[g] = Σ_{i: group[i]=g} r[i]   (grouped fits only)
//
// Every one of these sums runs in ascending row order, exactly as the
// reference's single row-major loop adds them, so the result is
// bit-identical to it; only the order across sums is free. That makes
// each block of up to colBlock columns, the residual sum and the
// group sums separate tasks for a crew.
type residualGrad struct {
	z        []float64
	cols     int
	resid    []float64
	grad     []float64
	sum      float64
	group    []int     // nil for a dense fit
	groupSum []float64 // len = number of groups when group != nil
	blocks   int
	task     func(t int) // bound once so an epoch's phase allocates nothing
}

func newResidualGrad(z []float64, cols int, resid, grad []float64, group []int, groupSum []float64) *residualGrad {
	g := &residualGrad{z: z, cols: cols, resid: resid, grad: grad, group: group, groupSum: groupSum,
		blocks: columnBlocks(cols)}
	g.task = g.run
	return g
}

// step computes the epoch's sums on c.
func (g *residualGrad) step(c *crew) {
	tasks := g.blocks + 1
	if g.group != nil {
		tasks++
	}
	c.each(tasks, g.task)
}

func (g *residualGrad) run(t int) {
	switch {
	case t < g.blocks:
		lo, hi := blockBounds(g.cols, g.blocks, t)
		columnSums(g.z, g.cols, g.resid, g.grad, lo, hi)
	case t == g.blocks:
		var s float64
		for _, r := range g.resid {
			s += r
		}
		g.sum = s
	default:
		gs := g.groupSum
		for k := range gs {
			gs[k] = 0
		}
		for i, r := range g.resid {
			gs[g.group[i]] += r
		}
	}
}

// colBlock is the widest column block columnSums sums in one pass over
// the rows, one register accumulator per column.
const colBlock = 4

// columnBlocks returns how many blocks of at most colBlock columns a
// gradient over cols columns splits into.
func columnBlocks(cols int) int { return (cols + colBlock - 1) / colBlock }

// blockBounds returns the columns [lo, hi) of block b of blocks,
// spreading cols as evenly as possible.
func blockBounds(cols, blocks, b int) (lo, hi int) {
	return b * cols / blocks, (b + 1) * cols / blocks
}

// columnSums sets out[j] = Σ_i r[i]·z[i·cols+j] for j in [lo, hi), a
// block of at most colBlock columns, each summed from zero in
// ascending row order.
func columnSums(z []float64, cols int, r, out []float64, lo, hi int) {
	switch hi - lo {
	case 4:
		var a0, a1, a2, a3 float64
		for i, g := range r {
			off := i*cols + lo
			v := z[off : off+4 : off+4]
			a0 += g * v[0]
			a1 += g * v[1]
			a2 += g * v[2]
			a3 += g * v[3]
		}
		out[lo], out[lo+1], out[lo+2], out[lo+3] = a0, a1, a2, a3
	case 3:
		var a0, a1, a2 float64
		for i, g := range r {
			off := i*cols + lo
			v := z[off : off+3 : off+3]
			a0 += g * v[0]
			a1 += g * v[1]
			a2 += g * v[2]
		}
		out[lo], out[lo+1], out[lo+2] = a0, a1, a2
	case 2:
		var a0, a1 float64
		for i, g := range r {
			off := i*cols + lo
			v := z[off : off+2 : off+2]
			a0 += g * v[0]
			a1 += g * v[1]
		}
		out[lo], out[lo+1] = a0, a1
	case 1:
		var a0 float64
		for i, g := range r {
			a0 += g * z[i*cols+lo]
		}
		out[lo] = a0
	}
}
