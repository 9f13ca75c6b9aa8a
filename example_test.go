package fairindex_test

import (
	"fmt"
	"log"

	fairindex "fairindex"
)

// exampleCity deterministically generates the reduced synthetic Los
// Angeles dataset the examples share (the full paper-sized city works
// identically, just slower).
func exampleCity() *fairindex.Dataset {
	spec := fairindex.LA()
	spec.NumRecords = 400
	ds, err := fairindex.GenerateCity(spec, fairindex.MustGrid(32, 32))
	if err != nil {
		log.Fatal(err)
	}
	return ds
}

// Build a fair spatial index once, then query it many times. The
// default configuration is the paper's Fair KD-tree; WithHeight
// controls the number of neighborhoods (up to 2^height).
func ExampleBuild() {
	ds := exampleCity()
	idx, err := fairindex.Build(ds,
		fairindex.WithMethod(fairindex.MethodFairKD),
		fairindex.WithHeight(5),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s index over %q: %d neighborhoods\n",
		idx.Method(), idx.DatasetName(), idx.NumRegions())
	// Output:
	// Fair KD-tree index over "Los Angeles": 32 neighborhoods
}

// Locate maps a coordinate to its neighborhood id in O(1) — one
// lookup in the precomputed cell→region table, no tree walk.
func ExampleIndex_Locate() {
	idx, err := fairindex.Build(exampleCity(), fairindex.WithHeight(5))
	if err != nil {
		log.Fatal(err)
	}
	region, err := idx.Locate(34.05, -118.25)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(34.05, -118.25) lies in neighborhood %d of %d\n", region, idx.NumRegions())
	// Output:
	// (34.05, -118.25) lies in neighborhood 16 of 32
}

// RangeQuery returns every neighborhood intersecting a geographic
// window, with the overlapping cell count and covered fraction —
// pruned via per-region bounding rectangles rather than a full grid
// scan.
func ExampleIndex_RangeQuery() {
	idx, err := fairindex.Build(exampleCity(), fairindex.WithHeight(5))
	if err != nil {
		log.Fatal(err)
	}
	box := idx.Box()
	window := fairindex.BBox{
		MinLat: box.MinLat, MinLon: box.MinLon,
		MaxLat: (box.MinLat + box.MaxLat) / 2, MaxLon: (box.MinLon + box.MaxLon) / 2,
	}
	overlaps, err := idx.RangeQuery(window)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d neighborhoods intersect the southwest quadrant\n", len(overlaps))
	for _, ov := range overlaps[:3] {
		fmt.Printf("  region %d: %d cells, %.0f%% inside\n", ov.Region, ov.Cells, 100*ov.Fraction)
	}
	// Output:
	// 13 neighborhoods intersect the southwest quadrant
	//   region 0: 56 cells, 100% inside
	//   region 1: 28 cells, 100% inside
	//   region 2: 6 cells, 100% inside
}

// BuildStream builds the same artifact as Build — bit for bit — but
// pulls records through a chunked Source instead of requiring the
// whole dataset in memory. OpenCSVSource streams a file from disk;
// here a DatasetSource wraps the generated city so the example is
// self-contained.
func ExampleBuildStream() {
	ds := exampleCity()
	idx, err := fairindex.BuildStream(fairindex.NewDatasetSource(ds),
		fairindex.WithMethod(fairindex.MethodFairKD),
		fairindex.WithHeight(5),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s index over %q: %d neighborhoods\n",
		idx.Method(), idx.DatasetName(), idx.NumRegions())
	// Output:
	// Fair KD-tree index over "Los Angeles": 32 neighborhoods
}

// AppendBatch folds freshly arrived records into the live per-region
// statistics without retraining: GroupStats and Report see the grown
// population immediately, and the returned drift (live ENCE vs the
// build-time baseline) reports when a full rebuild is worth it.
func ExampleIndex_AppendBatch() {
	ds := exampleCity()
	head := *ds // the 360 records indexed at build time...
	head.Records = ds.Records[:360]
	idx, err := fairindex.Build(&head, fairindex.WithHeight(5))
	if err != nil {
		log.Fatal(err)
	}
	// Arm "rebuild recommended" at ENCE drift ≥ 0.5.
	idx.SetDriftThresholds(map[string]float64{fairindex.MetricENCE: 0.5})

	res, err := idx.AppendBatch(ds.Records[360:]) // ...and the 40 that arrived since
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("appended %d records (%d total), drift %.4f, rebuild recommended: %v\n",
		res.Appended, res.Total, res.Drift, res.RebuildRecommended)
	// Output:
	// appended 40 records (40 total), drift 0.0066, rebuild recommended: false
}

// Score runs one individual through the task's final calibrated
// model: locate, encode the neighborhood attribute, forward pass.
func ExampleIndex_Score() {
	ds := exampleCity()
	idx, err := fairindex.Build(ds, fairindex.WithHeight(5))
	if err != nil {
		log.Fatal(err)
	}
	score, err := idx.Score(ds.Records[0], 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P(y=1|x) = %.3f\n", score)
	// Output:
	// P(y=1|x) = 0.007
}
