package fairindex

import (
	"fmt"
	"hash/fnv"

	"fairindex/internal/calib"
	"fairindex/internal/ml"
	"fairindex/internal/partition"
)

// This file holds the root-package hooks for sharded serving (see
// internal/shard for the plan format and docs/SHARDING.md for the
// architecture): ExtractShard carves a contiguous region range out of
// a whole index into a standalone artifact, and Fingerprint gives
// every artifact a stable generation token the router uses to detect
// mixed-generation scatter-gather responses.

// Fingerprint returns a 64-bit FNV-1a hash of the Index's serialized
// form — a cheap content token identifying the artifact generation.
// Two indexes have equal fingerprints exactly when MarshalBinary
// produces identical bytes, so a re-split, re-trained or re-saved
// artifact changes fingerprint while a load/save round trip does not.
//
// The hash is computed once, on first call, and cached: it identifies
// the artifact as built or loaded. Records folded in later by
// AppendBatch change the serialized form but not the cached
// fingerprint — a serving generation is the loaded artifact, not its
// live statistics.
func (ix *Index) Fingerprint() (uint64, error) {
	if ix.maint == nil {
		return 0, fmt.Errorf("fairindex: fingerprint of an uninitialized Index")
	}
	ix.maint.fpOnce.Do(func() {
		blob, err := ix.MarshalBinary()
		if err != nil {
			ix.maint.fpErr = err
			return
		}
		h := fnv.New64a()
		h.Write(blob)
		ix.maint.fp = h.Sum64()
	})
	return ix.maint.fp, ix.maint.fpErr
}

// ExtractShard carves the contiguous global region range [lo, hi) out
// of the index into a standalone shard artifact: a full Index over the
// same grid and bounding box (so Locate resolves every coordinate with
// the whole index's exact arithmetic) whose local region ids are the
// global ids shifted down by lo. Grid cells owned by regions outside
// the range are assigned to one extra "foreign" sentinel region —
// always the last local id, hi−lo — carrying zero sufficient
// statistics; a shard whose range covers every cell has no sentinel,
// so NumRegions() > hi−lo reports its presence.
//
// What a shard answers exactly, in its local id space:
//
//   - Locate/LocateBatch: bit-identical to the whole index for points
//     in owned regions (local = global − lo); foreign points resolve
//     to the sentinel.
//   - GroupStats and GroupStatsMetrics over owned regions:
//     bit-identical per-region values (the owned sufficient statistics
//     are carried over verbatim), which the shard router's stats merge
//     reassembles into whole-index answers. RangeQuery and
//     NearestRegions keep the owned regions' exact values too (owned
//     centroids and cells are carried verbatim), but the router answers
//     range and kNN from its manifest's Layout and never asks a shard.
//
// Score and Report remain whole-index concerns: a shard keeps the
// global models and reports verbatim, but scoring a foreign-region
// point would use the sentinel's centroid, so distributed scoring is
// not supported (the router rejects it). The shard's statistics are
// taken from one atomic live snapshot, so a shard split is internally
// consistent even under concurrent appends.
func (ix *Index) ExtractShard(lo, hi int) (*Index, error) {
	if lo < 0 || hi > ix.numRegions || lo >= hi {
		return nil, fmt.Errorf("fairindex: shard range [%d,%d) invalid for %d regions", lo, hi, ix.numRegions)
	}
	owned := hi - lo
	// Every region owns at least one cell (partition invariant), so
	// foreign cells exist exactly when the range excludes some region.
	foreign := owned < ix.numRegions
	localN := owned
	if foreign {
		localN++
	}
	cellRegion := make([]int, len(ix.cellRegion))
	for i, r := range ix.cellRegion {
		if r >= lo && r < hi {
			cellRegion[i] = r - lo
		} else {
			cellRegion[i] = owned // sentinel
		}
	}
	part, err := partition.New(ix.grid, localN, cellRegion)
	if err != nil {
		return nil, fmt.Errorf("fairindex: shard [%d,%d): %w", lo, hi, err)
	}

	// Owned centroids are copied verbatim from the whole index (the
	// recomputation below is bit-identical for them — same cells, same
	// row-major fold — but verbatim bits make the invariant
	// unconditional); the recomputation supplies the sentinel's mean.
	centroids := part.Centroids()
	copy(centroids[:owned], ix.centroids[lo:hi])
	layout, err := layoutOf(part, ix.box, centroids)
	if err != nil {
		return nil, fmt.Errorf("fairindex: shard [%d,%d): %w", lo, hi, err)
	}
	layout.derive()

	out := &Index{
		cfg:          ix.Config(),
		datasetName:  ix.datasetName,
		featureNames: append([]string(nil), ix.featureNames...),
		taskNames:    append([]string(nil), ix.taskNames...),
		Layout:       layout,
		part:         part,
		encoding:     ix.encoding,
		codecVersion: indexVersion,
		buildTime:    ix.buildTime,
		trainTime:    ix.trainTime,
	}

	// One atomic snapshot keeps all task slots mutually consistent.
	ls := ix.live()
	for i := range ix.tasks {
		it := &ix.tasks[i]
		nt := indexTask{task: it.task, model: it.model, report: it.report}
		if it.post != nil {
			nt.post = make([]ml.ScoreCalibrator, localN)
			copy(nt.post, it.post[lo:hi])
			if foreign {
				// The sentinel aliases an owned calibrator: the codec
				// serializes distinct calibrators once, so this adds a
				// reference, not a blob. It is never a correct scoring
				// path (see the Score caveat above).
				nt.post[owned] = it.post[lo]
			}
		}
		src := it.stats
		if ls != nil {
			src = ls.stats[i]
		}
		if src != nil {
			nt.stats = make([]calib.SuffStats, localN)
			copy(nt.stats, src[lo:hi])
			// The sentinel keeps zero statistics: foreign populations
			// belong to other shards, and zero adds nothing to any merge.
		}
		out.tasks = append(out.tasks, nt)
	}
	out.initMaint()
	return out, nil
}
