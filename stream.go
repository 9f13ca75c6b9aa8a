package fairindex

import (
	"io"

	"fairindex/internal/dataset"
	"fairindex/internal/pipeline"
	"fairindex/internal/stream"
)

// Streaming ingestion surface. A Source yields records in chunks;
// BuildStream runs the standard pipeline over one with bounded ingest
// residency, producing an Index bit-identical to Build over the same
// records held in memory. See docs/STREAMING.md for the residency
// model and drift semantics.
type (
	// Source is a rewindable chunked record stream (see
	// internal/stream). CSV files, in-memory datasets and generator
	// functions all implement it.
	Source = stream.Source
	// StreamSchema describes the records a Source yields.
	StreamSchema = stream.Schema
	// StreamBatch is the reusable columnar chunk Sources fill.
	StreamBatch = stream.Batch
	// CSVSource is the chunked reader over the canonical CSV layout.
	CSVSource = stream.CSVSource
	// DatasetSource streams an in-memory Dataset.
	DatasetSource = stream.DatasetSource
	// FuncSource streams records produced by a deterministic
	// generator function, so synthetic workloads of any size stream
	// without being materialized.
	FuncSource = stream.FuncSource
	// RowError is the line-accurate decode/validation error reported
	// for malformed input rows by ReadDatasetCSV and every streaming
	// source; errors.As against it to recover the 1-based line and
	// the offending column.
	RowError = dataset.RowError
)

// NewCSVSource returns a chunked streaming source over canonical CSV
// held by r (the layout WriteDatasetCSV produces). The reader must
// seek: streaming builds take two passes. The header is consumed
// eagerly, so the source's schema is complete on return.
func NewCSVSource(r io.ReadSeeker, name string, grid Grid, box BBox) (*CSVSource, error) {
	return stream.NewCSV(r, name, grid, box)
}

// OpenCSVSource opens a canonical CSV file as a chunked streaming
// source. Close it after the build.
func OpenCSVSource(path, name string, grid Grid, box BBox) (*CSVSource, error) {
	return stream.OpenCSV(path, name, grid, box)
}

// NewDatasetSource streams an in-memory dataset — the bridge that
// lets generated or already-loaded data feed BuildStream.
func NewDatasetSource(ds *Dataset) *DatasetSource {
	return stream.FromDataset(ds)
}

// NewFuncSource streams n records produced by fn, which must be a
// pure function of the record index (streams are replayed). fn fills
// the record in place: coordinates, features and labels; the
// enclosing grid cell is assigned by the source.
func NewFuncSource(schema StreamSchema, n int, fn func(i int, rec *Record) error) (*FuncSource, error) {
	return stream.FromFunc(schema, n, fn)
}

// BuildStream constructs an Index from a record stream instead of a
// materialized dataset: a two-pass bounded-residency ingest (4,096
// records per batch) followed by the standard build. The
// produced Index is bit-identical to Build over the same records in
// memory — streaming changes the ingest's transient allocations from
// O(records) to O(chunk), not the artifact.
func BuildStream(src Source, opts ...Option) (*Index, error) {
	cfg, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	art, ds, err := pipeline.BuildSource(src, cfg)
	if err != nil {
		return nil, err
	}
	return newIndex(ds, art)
}
