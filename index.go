package fairindex

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"fairindex/internal/binenc"
	"fairindex/internal/calib"
	"fairindex/internal/dataset"
	"fairindex/internal/geo"
	"fairindex/internal/ml"
	"fairindex/internal/pipeline"
)

// Index is the build-once / query-many artifact of the library: a
// fairness-aware spatial index bundling the neighborhood partition,
// the trained per-task classifiers (plus any fitted post-processing
// calibrators), the region centroids and the build-time metric
// reports.
//
// An Index is safe for concurrent use by multiple goroutines without
// locking: Locate, LocateBatch, Score and Report only read, and the
// one mutable corner — the live per-region statistics AppendBatch
// folds new records into (maintain.go) — publishes immutable
// snapshots behind an atomic pointer, so queries never block behind
// appends. The partition, models and calibrators never change after
// Build or UnmarshalBinary. Point lookup is O(1) — a precomputed
// cell→region table, no tree walk on the hot path.
//
// Build an Index offline, persist it with MarshalBinary, ship the
// bytes to a server and load them with UnmarshalBinary; the restored
// Index reproduces bit-identical Locate and Score outputs.
type Index struct {
	cfg          Config // defaults resolved
	datasetName  string
	featureNames []string
	taskNames    []string

	// Layout is the region geometry — grid, box, cell→region table,
	// centroids and query structures — with the Locate, RangeQuery and
	// NearestRegions kernels the Index answers through. Embedded by
	// value, so the hot path reads the table without a pointer hop.
	// Build and UnmarshalBinary set it; it is never reassigned.
	Layout

	encoding Encoding // resolved final-training encoding

	tasks []indexTask

	// maint is the one mutable corner of the Index: the live
	// per-region statistics AppendBatch folds new records into, plus
	// the drift threshold. It is a pointer (not an embedded struct)
	// so Index values remain copyable; queries read it lock-free via
	// atomic snapshots. See maintain.go.
	maint *maintState

	// codecVersion is the serialization version the Index came from:
	// the version tag of the artifact UnmarshalBinary decoded, or
	// indexVersion (what MarshalBinary writes) for a freshly built
	// Index.
	codecVersion int

	buildTime, trainTime time.Duration
	// Build-box observability, not serialized: the training worker
	// pool size and the summed per-task training durations.
	trainWorkers int
	trainCPUTime time.Duration
}

// indexTask is one task's serving bundle.
type indexTask struct {
	task   int
	model  ml.Classifier
	post   []ml.ScoreCalibrator // nil when no post-processing
	report TaskResult
	// stats holds the final model's per-region calibration sufficient
	// statistics (indexed by region id), backing GroupStats. Nil on an
	// index restored from a pre-v2 artifact.
	stats []calib.SuffStats
}

// Index errors.
var (
	// ErrIndexFormat reports bytes that are not a valid serialized
	// Index (wrong magic, unsupported version or corrupt payload).
	ErrIndexFormat = errors.New("fairindex: invalid index encoding")
	// ErrNoTask reports a task id the Index was not built for.
	ErrNoTask = errors.New("fairindex: task not in index")
)

// Build constructs an Index for the dataset: it partitions the city
// with the configured fairness-aware method, trains the final
// classifier(s) over the resulting neighborhoods and packages
// everything into a reusable serving artifact. With no options it
// builds the paper's Fair KD-tree at height 8.
func Build(ds *Dataset, opts ...Option) (*Index, error) {
	cfg, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	art, err := pipeline.Build(ds, cfg)
	if err != nil {
		return nil, err
	}
	return newIndex(ds, art)
}

// newIndex assembles the serving artifact from trained pipeline
// output.
func newIndex(ds *Dataset, art *pipeline.Artifacts) (*Index, error) {
	layout, err := newLayout(art.Partition.Grid(), ds.Box, art.Partition.NumRegions(), art.Partition.CellRegions(), nil)
	if err != nil {
		return nil, fmt.Errorf("fairindex: index needs a dataset with a valid bounding box: %w", err)
	}
	layout.derive()
	ix := &Index{
		cfg:          art.Config,
		datasetName:  ds.Name,
		featureNames: append([]string(nil), ds.FeatureNames...),
		taskNames:    append([]string(nil), ds.TaskNames...),
		Layout:       layout,
		encoding:     art.Config.Encoding.Resolve(),
		codecVersion: indexVersion,
		buildTime:    art.BuildTime,
		trainTime:    art.TrainTime,
		trainWorkers: art.TrainWorkers,
		trainCPUTime: art.TaskCPUTime(),
	}
	for _, tt := range art.Tasks {
		ix.tasks = append(ix.tasks, indexTask{
			task:   tt.Report.Task,
			model:  tt.Model,
			post:   tt.Post,
			report: tt.Report,
			stats:  append([]calib.SuffStats(nil), tt.RegionStats...),
		})
	}
	ix.initMaint()
	return ix, nil
}

// ReadIndex reads a serialized Index (the .fidx byte stream written
// by MarshalBinary) from r until EOF and restores it. It is the
// loading entry point for servers and registries that stream
// artifacts from files, object stores or network connections:
//
//	f, _ := os.Open("city.fidx")
//	idx, err := fairindex.ReadIndex(f)
//
// On any error the returned Index is nil; a partially read stream
// never produces a usable artifact.
func ReadIndex(r io.Reader) (*Index, error) {
	blob, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("fairindex: reading index: %w", err)
	}
	ix := new(Index)
	if err := ix.UnmarshalBinary(blob); err != nil {
		return nil, err
	}
	return ix, nil
}

// LoadIndex reads a serialized Index from a .fidx file.
func LoadIndex(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fairindex: %w", err)
	}
	defer f.Close()
	ix, err := ReadIndex(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ix, nil
}

// RegionInvalid is the sentinel neighborhood id stored by LocateBatch
// and returned by Locate for a point that cannot be located
// (non-finite coordinates). Valid region ids are always >= 0.
const RegionInvalid = geo.RegionInvalid

// taskByID returns the serving bundle for a task id.
func (ix *Index) taskByID(task int) (*indexTask, error) {
	slot, err := ix.taskSlot(task)
	if err != nil {
		return nil, err
	}
	return &ix.tasks[slot], nil
}

// taskSlot maps a task id to its position in ix.tasks (and in the
// maintenance snapshots, which are indexed by slot).
func (ix *Index) taskSlot(task int) (int, error) {
	for i := range ix.tasks {
		if ix.tasks[i].task == task {
			return i, nil
		}
	}
	return -1, fmt.Errorf("%w: task %d (have %v)", ErrNoTask, task, ix.Tasks())
}

// Score runs one individual through the task's final model: the
// record is located via its coordinates, encoded with the index's
// neighborhood encoding and scored; per-neighborhood post-processing
// calibrators (when the index was built with WithPostProcess) are
// applied. The record's feature vector must match FeatureNames.
func (ix *Index) Score(rec Record, task int) (float64, error) {
	it, err := ix.taskByID(task)
	if err != nil {
		return 0, err
	}
	if len(rec.X) != len(ix.featureNames) {
		return 0, fmt.Errorf("fairindex: record has %d features, index was built on %d", len(rec.X), len(ix.featureNames))
	}
	region, err := ix.Locate(rec.Lat, rec.Lon)
	if err != nil {
		return 0, err
	}
	return ix.scoreInRegion(it, rec.X, region)
}

// scoreInRegion runs one feature vector through a task's final model
// and the region's post-processing calibrator — the serving tail
// shared by Score and AppendBatch.
func (ix *Index) scoreInRegion(it *indexTask, x []float64, region int) (float64, error) {
	row, err := dataset.EncodeRow(x, region, ix.numRegions, ix.centroids, ix.encoding)
	if err != nil {
		return 0, err
	}
	scores, err := it.model.PredictProba([][]float64{row})
	if err != nil {
		return 0, err
	}
	if it.post != nil {
		calibrated, err := it.post[region].Apply(scores)
		if err != nil {
			return 0, err
		}
		return calibrated[0], nil
	}
	return scores[0], nil
}

// Report returns the build-time metric report for a task, with one
// live exception: the ENCE field is folded over the current
// per-region statistics, so it stays exact as AppendBatch folds new
// records in. Without appends the live value is bit-identical to the
// stored one (both fold the same per-region statistics in the same
// order); an index restored from a v1 artifact, which has no
// statistics, keeps the stored value. Every other metric is the
// build-time evaluation.
func (ix *Index) Report(task int) (TaskResult, error) {
	slot, err := ix.taskSlot(task)
	if err != nil {
		return TaskResult{}, err
	}
	tr := ix.tasks[slot].report
	if stats := ix.statsFor(slot); stats != nil {
		tr.ENCE = calib.ENCEFromStats(stats)
	}
	return tr, nil
}

// Method returns the partitioning strategy the index was built with.
func (ix *Index) Method() Method { return ix.cfg.Method }

// Height returns the configured tree height.
func (ix *Index) Height() int { return ix.cfg.Height }

// Model returns the classifier family of the final models.
func (ix *Index) Model() ModelKind { return ix.cfg.Model }

// CodecVersion returns the .fidx serialization version the Index was
// restored from — indexVersion for a freshly built Index (that is
// what MarshalBinary writes), or the version tag of the decoded
// artifact (older versions load with reduced capabilities, e.g. v1
// has no stored region stats).
func (ix *Index) CodecVersion() int { return ix.codecVersion }

// DatasetName returns the name of the dataset the index was built on.
func (ix *Index) DatasetName() string { return ix.datasetName }

// FeatureNames returns a copy of the feature schema Score expects.
func (ix *Index) FeatureNames() []string {
	return append([]string(nil), ix.featureNames...)
}

// TaskNames returns a copy of the dataset's task names.
func (ix *Index) TaskNames() []string {
	return append([]string(nil), ix.taskNames...)
}

// Tasks returns the task ids the index can Score and Report.
func (ix *Index) Tasks() []int {
	out := make([]int, len(ix.tasks))
	for i := range ix.tasks {
		out[i] = ix.tasks[i].task
	}
	return out
}

// BuildTime returns the partition construction duration.
func (ix *Index) BuildTime() time.Duration { return ix.buildTime }

// TrainTime returns the final training + evaluation duration (wall
// clock; with multiple tasks the per-task work overlaps).
func (ix *Index) TrainTime() time.Duration { return ix.trainTime }

// TrainWorkers returns the worker-pool size the final training ran
// with (1 = sequential). Build-box observability only: 0 on an Index
// restored with UnmarshalBinary.
func (ix *Index) TrainWorkers() int { return ix.trainWorkers }

// TrainCPUTime returns the summed per-task training wall times. Its
// ratio to TrainTime shows only how much the tasks overlapped: 1.0
// for single-task methods whatever the worker count, since the
// workers a fit splits its rows and gradient columns across run
// inside one task's time; at most the task count for
// MethodMultiObjectiveFairKD. It is not a CPU-time measurement nor the
// build's parallel speedup. Build-box observability only: 0 on an
// Index restored with UnmarshalBinary.
func (ix *Index) TrainCPUTime() time.Duration { return ix.trainCPUTime }

// Config returns the resolved build configuration (a copy).
func (ix *Index) Config() Config {
	cfg := ix.cfg
	cfg.Alphas = append([]float64(nil), cfg.Alphas...)
	return cfg
}

// Binary format of a serialized Index. The version gate means later
// layout changes only need a new version constant plus a decode
// branch; v2 layout (v2 additions marked):
//
//	magic "FIDX" | uvarint version
//	config (method, height, model, encoding, task, alphas,
//	        objective, lambda, testFrac, seed, zipSites, eceBins,
//	        reweight, postProcess)
//	dataset meta (name, feature names, task names)
//	bounding box (4 × float64, exact bits)
//	partition (grid, region count, cell→region table, centroids)
//	[v2] query acceleration (per-region bounding rects as 4 varints
//	     each, per-region cell counts, centroid kd-tree layout — see
//	     query.go)
//	timings (build, train — nanosecond varints)
//	tasks (id, model bytes, calibrators as a distinct-blob table +
//	       per-region references, metric report,
//	       [v2] per-region stats count + (count, Σ score, Σ label)
//	       triples backing GroupStats — 0 when absent)
//
// v1 files (no acceleration or stats sections) still load: the
// acceleration structures are recomputed from the partition and
// GroupStats reports ErrNoRegionStats.
var indexMagic = [4]byte{'F', 'I', 'D', 'X'}

// Serialization versions.
const (
	// indexVersion is the version MarshalBinary writes.
	indexVersion = 2
	// indexVersionV1 is the pre-query-engine layout, still decodable.
	indexVersionV1 = 1
)

// MarshalBinary implements encoding.BinaryMarshaler with the
// versioned compact layout above. Floats are stored bit-exact, so an
// unmarshaled Index reproduces identical Locate/Score outputs.
func (ix *Index) MarshalBinary() ([]byte, error) {
	b := append([]byte(nil), indexMagic[:]...)
	b = binenc.AppendUvarint(b, indexVersion)

	// Config.
	b = binenc.AppendVarint(b, int64(ix.cfg.Method))
	b = binenc.AppendVarint(b, int64(ix.cfg.Height))
	b = binenc.AppendVarint(b, int64(ix.cfg.Model))
	b = binenc.AppendVarint(b, int64(ix.cfg.Encoding))
	b = binenc.AppendVarint(b, int64(ix.cfg.Task))
	b = binenc.AppendFloat64s(b, ix.cfg.Alphas)
	b = binenc.AppendVarint(b, int64(ix.cfg.Objective))
	b = binenc.AppendFloat64(b, ix.cfg.Lambda)
	b = binenc.AppendFloat64(b, ix.cfg.TestFrac)
	b = binenc.AppendVarint(b, ix.cfg.Seed)
	b = binenc.AppendVarint(b, int64(ix.cfg.ZipSites))
	b = binenc.AppendVarint(b, int64(ix.cfg.ECEBins))
	b = binenc.AppendBool(b, ix.cfg.Reweight)
	b = binenc.AppendVarint(b, int64(ix.cfg.PostProcess))

	// Dataset metadata and geometry.
	b = binenc.AppendString(b, ix.datasetName)
	b = binenc.AppendStrings(b, ix.featureNames)
	b = binenc.AppendStrings(b, ix.taskNames)
	b = binenc.AppendFloat64(b, ix.box.MinLat)
	b = binenc.AppendFloat64(b, ix.box.MinLon)
	b = binenc.AppendFloat64(b, ix.box.MaxLat)
	b = binenc.AppendFloat64(b, ix.box.MaxLon)

	// Partition (grid + cell→region table + centroids, bit-exact so a
	// decoded Layout reproduces the centroid encoding the models were
	// trained with).
	b = binenc.AppendVarint(b, int64(ix.grid.U))
	b = binenc.AppendVarint(b, int64(ix.grid.V))
	b = binenc.AppendVarint(b, int64(ix.numRegions))
	b = binenc.AppendInts(b, ix.cellRegion)
	b = binenc.AppendUvarint(b, uint64(2*len(ix.centroids)))
	for _, c := range ix.centroids {
		b = binenc.AppendFloat64(b, c[0])
		b = binenc.AppendFloat64(b, c[1])
	}

	// Query acceleration (v2): bounding rects, cell counts, kd layout.
	for _, r := range ix.regionRects {
		b = binenc.AppendVarint(b, int64(r.Row0))
		b = binenc.AppendVarint(b, int64(r.Col0))
		b = binenc.AppendVarint(b, int64(r.Row1))
		b = binenc.AppendVarint(b, int64(r.Col1))
	}
	b = binenc.AppendInts(b, ix.regionCells)
	b = binenc.AppendInts(b, ix.knnOrder)

	// Timings.
	b = binenc.AppendVarint(b, int64(ix.buildTime))
	b = binenc.AppendVarint(b, int64(ix.trainTime))

	// Tasks.
	b = binenc.AppendUvarint(b, uint64(len(ix.tasks)))
	for i := range ix.tasks {
		it := &ix.tasks[i]
		b = binenc.AppendVarint(b, int64(it.task))
		model, err := ml.MarshalClassifier(it.model)
		if err != nil {
			return nil, fmt.Errorf("fairindex: task %d: %w", it.task, err)
		}
		b = binenc.AppendBytes(b, model)
		// Post-processing calibrators: most regions alias one shared
		// global fallback, so serialize each distinct calibrator once
		// and store per-region references (restoring also re-shares
		// them in memory).
		b = binenc.AppendUvarint(b, uint64(len(it.post)))
		if len(it.post) > 0 {
			refOf := make(map[ml.ScoreCalibrator]int, 4)
			var distinct [][]byte
			refs := make([]int, len(it.post))
			for r, cal := range it.post {
				ref, seen := refOf[cal]
				if !seen {
					blob, err := ml.MarshalCalibrator(cal)
					if err != nil {
						return nil, fmt.Errorf("fairindex: task %d region %d: %w", it.task, r, err)
					}
					ref = len(distinct)
					distinct = append(distinct, blob)
					refOf[cal] = ref
				}
				refs[r] = ref
			}
			b = binenc.AppendUvarint(b, uint64(len(distinct)))
			for _, blob := range distinct {
				b = binenc.AppendBytes(b, blob)
			}
			for _, ref := range refs {
				b = binenc.AppendUvarint(b, uint64(ref))
			}
		}
		b = appendTaskResult(b, &it.report)
		// Per-region calibration stats (v2): additive sufficient
		// statistics backing GroupStats; 0 marks an index restored
		// from a v1 artifact that never carried them. The live
		// snapshot is serialized, so statistics folded in by
		// AppendBatch — and therefore the measured drift — survive a
		// save/reload cycle without a codec change.
		stats := ix.statsFor(i)
		b = binenc.AppendUvarint(b, uint64(len(stats)))
		for _, st := range stats {
			b = binenc.AppendVarint(b, int64(st.Count))
			b = binenc.AppendFloat64(b, st.SumScore)
			b = binenc.AppendFloat64(b, st.SumLabel)
		}
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, restoring an
// Index serialized by MarshalBinary. The receiver is overwritten.
func (ix *Index) UnmarshalBinary(data []byte) error {
	if len(data) < len(indexMagic) || string(data[:4]) != string(indexMagic[:]) {
		return fmt.Errorf("%w: bad magic", ErrIndexFormat)
	}
	r := binenc.NewReader(data[4:])
	version := r.Uvarint()
	if version != indexVersion && version != indexVersionV1 {
		if r.Err() == nil {
			return fmt.Errorf("%w: unsupported version %d (have %d)", ErrIndexFormat, version, indexVersion)
		}
		return fmt.Errorf("%w: %v", ErrIndexFormat, r.Err())
	}

	var out Index
	out.codecVersion = int(version)
	out.cfg.Method = Method(r.Int())
	out.cfg.Height = r.Int()
	out.cfg.Model = ModelKind(r.Int())
	out.cfg.Encoding = Encoding(r.Int())
	out.cfg.Task = r.Int()
	out.cfg.Alphas = r.Float64s()
	out.cfg.Objective = Objective(r.Int())
	out.cfg.Lambda = r.Float64()
	out.cfg.TestFrac = r.Float64()
	out.cfg.Seed = r.Varint()
	out.cfg.ZipSites = r.Int()
	out.cfg.ECEBins = r.Int()
	out.cfg.Reweight = r.Bool()
	out.cfg.PostProcess = PostProcess(r.Int())

	out.datasetName = r.String()
	out.featureNames = r.Strings()
	out.taskNames = r.Strings()
	box := BBox{
		MinLat: r.Float64(), MinLon: r.Float64(),
		MaxLat: r.Float64(), MaxLon: r.Float64(),
	}

	// The cell→region table is read once, into the slice the Layout
	// keeps, and validated once by newLayout.
	grid := geo.Grid{U: r.Int(), V: r.Int()}
	numRegions := r.Int()
	cellRegion := r.Ints()
	flat := r.Float64s()
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrIndexFormat, err)
	}
	if len(flat)%2 != 0 || len(flat)/2 != numRegions {
		return fmt.Errorf("%w: %d centroid values for %d regions", ErrIndexFormat, len(flat), numRegions)
	}
	centroids := make([][2]float64, numRegions)
	for i := range centroids {
		centroids[i] = [2]float64{flat[2*i], flat[2*i+1]}
	}
	layout, err := newLayout(grid, box, numRegions, cellRegion, centroids)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrIndexFormat, err)
	}
	out.Layout = layout
	out.encoding = out.cfg.Encoding.Resolve()
	if version >= 2 {
		if err := out.readAccel(r); err != nil {
			return err
		}
	} else {
		// v1 artifacts predate the query engine: derive the query
		// structures from the decoded partition.
		out.derive()
	}

	out.buildTime = time.Duration(r.Varint())
	out.trainTime = time.Duration(r.Varint())

	numTasks := int(r.Uvarint())
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrIndexFormat, err)
	}
	for t := 0; t < numTasks; t++ {
		var it indexTask
		it.task = r.Int()
		modelBytes := r.Bytes()
		if err := r.Err(); err != nil {
			return fmt.Errorf("%w: task %d: %v", ErrIndexFormat, t, err)
		}
		if it.model, err = ml.UnmarshalClassifier(modelBytes); err != nil {
			return fmt.Errorf("%w: task %d: %v", ErrIndexFormat, t, err)
		}
		numCal := int(r.Uvarint())
		if numCal > 0 {
			if numCal != out.numRegions {
				return fmt.Errorf("%w: task %d: %d calibrators for %d regions", ErrIndexFormat, t, numCal, out.numRegions)
			}
			numDistinct := int(r.Uvarint())
			if err := r.Err(); err != nil {
				return fmt.Errorf("%w: task %d calibrators: %v", ErrIndexFormat, t, err)
			}
			// Every distinct calibrator must be referenced by at least
			// one region; bounding by numCal keeps a hostile count from
			// sizing the slice before any bytes back it.
			if numDistinct <= 0 || numDistinct > numCal {
				return fmt.Errorf("%w: task %d: %d distinct calibrators for %d regions", ErrIndexFormat, t, numDistinct, numCal)
			}
			distinct := make([]ml.ScoreCalibrator, numDistinct)
			for c := range distinct {
				blob := r.Bytes()
				if err := r.Err(); err != nil {
					return fmt.Errorf("%w: task %d calibrator %d: %v", ErrIndexFormat, t, c, err)
				}
				if distinct[c], err = ml.UnmarshalCalibrator(blob); err != nil {
					return fmt.Errorf("%w: task %d calibrator %d: %v", ErrIndexFormat, t, c, err)
				}
			}
			it.post = make([]ml.ScoreCalibrator, numCal)
			for c := 0; c < numCal; c++ {
				ref := int(r.Uvarint())
				if r.Err() == nil && (ref < 0 || ref >= numDistinct) {
					return fmt.Errorf("%w: task %d region %d: calibrator ref %d of %d", ErrIndexFormat, t, c, ref, numDistinct)
				}
				if err := r.Err(); err != nil {
					return fmt.Errorf("%w: task %d calibrator refs: %v", ErrIndexFormat, t, err)
				}
				it.post[c] = distinct[ref]
			}
		}
		readTaskResult(r, &it.report)
		if err := r.Err(); err != nil {
			return fmt.Errorf("%w: task %d report: %v", ErrIndexFormat, t, err)
		}
		if version >= 2 {
			numStats := int(r.Uvarint())
			if err := r.Err(); err != nil {
				return fmt.Errorf("%w: task %d stats: %v", ErrIndexFormat, t, err)
			}
			if numStats != 0 {
				if numStats != out.numRegions {
					return fmt.Errorf("%w: task %d: %d region stats for %d regions", ErrIndexFormat, t, numStats, out.numRegions)
				}
				it.stats = make([]calib.SuffStats, numStats)
				for s := range it.stats {
					it.stats[s] = calib.SuffStats{
						Count:    r.Int(),
						SumScore: r.Float64(),
						SumLabel: r.Float64(),
					}
				}
				if err := r.Err(); err != nil {
					return fmt.Errorf("%w: task %d stats: %v", ErrIndexFormat, t, err)
				}
			}
		}
		out.tasks = append(out.tasks, it)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrIndexFormat, err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after payload", ErrIndexFormat, r.Len())
	}
	out.initMaint()
	*ix = out
	return nil
}

// readAccel restores the query structures of a v2 artifact into the
// layout and validates their structural invariants: rects must lie on
// the grid, cell counts must be positive and sum to the grid, and the
// kd layout must be a permutation of the region ids. (Consistency with
// the cell→region table beyond that is the builder's contract; the
// structures are also recomputable via derive.)
func (l *Layout) readAccel(r *binenc.Reader) error {
	l.regionRects = make([]geo.CellRect, l.numRegions)
	for i := range l.regionRects {
		rect := geo.CellRect{Row0: r.Int(), Col0: r.Int(), Row1: r.Int(), Col1: r.Int()}
		if r.Err() == nil && (rect.Row0 < 0 || rect.Col0 < 0 ||
			rect.Row0 >= rect.Row1 || rect.Col0 >= rect.Col1 ||
			rect.Row1 > l.grid.U || rect.Col1 > l.grid.V) {
			return fmt.Errorf("%w: region %d bounding rect %v outside %v", ErrIndexFormat, i, rect, l.grid)
		}
		l.regionRects[i] = rect
	}
	l.regionCells = r.Ints()
	l.knnOrder = r.Ints()
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: acceleration: %v", ErrIndexFormat, err)
	}
	if len(l.regionCells) != l.numRegions {
		return fmt.Errorf("%w: %d region cell counts for %d regions", ErrIndexFormat, len(l.regionCells), l.numRegions)
	}
	total := 0
	for i, n := range l.regionCells {
		if n < 1 || n > l.regionRects[i].Area() {
			return fmt.Errorf("%w: region %d: %d cells in bounding rect %v", ErrIndexFormat, i, n, l.regionRects[i])
		}
		total += n
	}
	if total != l.grid.NumCells() {
		return fmt.Errorf("%w: region cells sum to %d over a %d-cell grid", ErrIndexFormat, total, l.grid.NumCells())
	}
	if len(l.knnOrder) != l.numRegions {
		return fmt.Errorf("%w: kd layout holds %d of %d regions", ErrIndexFormat, len(l.knnOrder), l.numRegions)
	}
	seen := make([]bool, l.numRegions)
	for _, region := range l.knnOrder {
		if region < 0 || region >= l.numRegions || seen[region] {
			return fmt.Errorf("%w: kd layout is not a permutation of region ids", ErrIndexFormat)
		}
		seen[region] = true
	}
	return nil
}

// appendTaskResult appends the binary encoding of a metric report.
// Floats keep exact bits, so NaN sentinels (e.g. an undefined
// calibration ratio) survive the round trip.
func appendTaskResult(b []byte, tr *TaskResult) []byte {
	b = binenc.AppendVarint(b, int64(tr.Task))
	b = binenc.AppendString(b, tr.TaskName)
	for _, f := range []float64{
		tr.ENCE, tr.ENCETrain, tr.ENCETest,
		tr.Accuracy, tr.AUC, tr.TrainMiscal, tr.TestMiscal, tr.ECE,
		tr.TrainCalRatio, tr.TestCalRatio,
		tr.StatParityGap, tr.EqualOddsGap,
	} {
		b = binenc.AppendFloat64(b, f)
	}
	b = binenc.AppendUvarint(b, uint64(len(tr.TopNeighborhoods)))
	for _, nr := range tr.TopNeighborhoods {
		b = binenc.AppendVarint(b, int64(nr.Group))
		b = binenc.AppendVarint(b, int64(nr.Count))
		b = binenc.AppendFloat64(b, nr.Ratio)
		b = binenc.AppendFloat64(b, nr.Miscal)
		b = binenc.AppendFloat64(b, nr.ECE)
		b = binenc.AppendFloat64(b, nr.PosRate)
		b = binenc.AppendFloat64(b, nr.MeanConf)
	}
	b = binenc.AppendStrings(b, tr.ImportanceNames)
	b = binenc.AppendFloat64s(b, tr.ImportanceValues)
	return b
}

// readTaskResult decodes a metric report; errors latch in r.
func readTaskResult(r *binenc.Reader, tr *TaskResult) {
	tr.Task = r.Int()
	tr.TaskName = r.String()
	for _, dst := range []*float64{
		&tr.ENCE, &tr.ENCETrain, &tr.ENCETest,
		&tr.Accuracy, &tr.AUC, &tr.TrainMiscal, &tr.TestMiscal, &tr.ECE,
		&tr.TrainCalRatio, &tr.TestCalRatio,
		&tr.StatParityGap, &tr.EqualOddsGap,
	} {
		*dst = r.Float64()
	}
	n := int(r.Uvarint())
	for i := 0; i < n && r.Err() == nil; i++ {
		tr.TopNeighborhoods = append(tr.TopNeighborhoods, NeighborhoodReport{
			Group:    r.Int(),
			Count:    r.Int(),
			Ratio:    r.Float64(),
			Miscal:   r.Float64(),
			ECE:      r.Float64(),
			PosRate:  r.Float64(),
			MeanConf: r.Float64(),
		})
	}
	tr.ImportanceNames = r.Strings()
	tr.ImportanceValues = r.Float64s()
}
