//go:build slow

// Large-scale build benchmarks, behind the `slow` tag so the default
// bench suite stays fast:
//
//	go test -tags slow -run '^$' -bench 'BenchmarkIndexBuild100k|BenchmarkIndexBuildStream100k|BenchmarkIndexIngestStream100k' -benchtime 1x .
//
// BenchmarkIndexBuild100k is the acceptance point of the build
// performance overhaul (≥3x single-core over the recorded naive
// baseline; see BENCH_index.json) and runs once per CI cycle as a
// smoke test. BenchmarkIndexBuildStream100k is the streaming
// subsystem's acceptance point at the same workload — the artifact is
// bit-identical (TestBuildStreamParity), so only time and allocations
// may differ. BenchmarkIndexIngestStream100k isolates the ingest
// phase; its allocs/op is O(chunk) — a reusable batch plus the final
// backing arrays, an allocation count independent of the record count
// — and the CI alloc gate fails any change that sneaks per-record
// allocation back into the chunked path. BenchmarkIndexBuild1M is the
// paper-scale headroom check, run manually when re-recording the
// scaling curve.
package fairindex_test

import (
	"testing"

	fairindex "fairindex"
	"fairindex/internal/dataset"
	"fairindex/internal/geo"
	"fairindex/internal/stream"
)

func BenchmarkIndexBuild100k(b *testing.B) { benchmarkScaledBuild(b, 100_000) }

func BenchmarkIndexBuild1M(b *testing.B) { benchmarkScaledBuild(b, 1_000_000) }

// scaledDataset materializes the skewed benchmark city once, outside
// the timed region.
func scaledDataset(b *testing.B, n int) *dataset.Dataset {
	b.Helper()
	ds, err := dataset.Generate(dataset.Scaled(dataset.LA(), n), geo.MustGrid(64, 64))
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func BenchmarkIndexBuildStream100k(b *testing.B) {
	ds := scaledDataset(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, err := fairindex.BuildStream(fairindex.NewDatasetSource(ds),
			fairindex.WithMethod(fairindex.MethodFairKD),
			fairindex.WithHeight(8),
			fairindex.WithSeed(11))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("n=100000: %d regions, build %v, train %v",
				idx.NumRegions(), idx.BuildTime(), idx.TrainTime())
		}
	}
}

func BenchmarkIndexIngestStream100k(b *testing.B) {
	ds := scaledDataset(b, 100_000)
	src := stream.FromDataset(ds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Reset(); err != nil {
			b.Fatal(err)
		}
		out, err := stream.Ingest(src, stream.DefaultChunk)
		if err != nil {
			b.Fatal(err)
		}
		if out.Len() != ds.Len() {
			b.Fatalf("ingested %d records, want %d", out.Len(), ds.Len())
		}
	}
}
