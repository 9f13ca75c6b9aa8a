package pipeline

import (
	"fairindex/internal/dataset"
)

// BuildReference executes the pipeline with the retained sequential,
// allocation-naive implementation: no worker pools (every stage runs
// on the calling goroutine regardless of GOMAXPROCS), no
// scratch pooling, and the reference classifier kernels
// (ml.FitReference / ml.FitGroupedReference and their predict twins).
//
// Its artifacts are bit-identical to Build's — that equivalence is
// the contract the whole performance overhaul rests on, enforced by
// TestBuildReferenceParity (pipeline level, every method) and
// TestIndexBuildParity (serialized .fidx bytes). It exists as a
// correctness oracle and stays deliberately naive; do not optimize
// it.
func BuildReference(ds *dataset.Dataset, cfg Config) (*Artifacts, error) {
	return build(ds, cfg, true)
}
