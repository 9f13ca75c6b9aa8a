// Command fairindexctl builds, persists and serves fairness-aware
// spatial indexes.
//
// Subcommands:
//
//	fairindexctl build -in city.csv -out city.fidx \
//	             -minlat .. -maxlat .. -minlon .. -maxlon .. \
//	             [-method fair|median|iterative|multi|gridrw|zipcode|quadtree] \
//	             [-height 8] [-model logreg|dtree|nb] [-task 0] \
//	             [-post none|platt|isotonic] [-grid 64] [-seed 11]
//		build an Index artifact from a dataset CSV and save it.
//
//	fairindexctl ingest -in city.csv -out city.fidx [-chunk 4096] [build flags...]
//		build's streaming twin: ingest the CSV in bounded chunks
//		(two passes over the file, O(chunk) transient memory instead
//		of a materialized copy) and save a bit-identical artifact.
//
//	fairindexctl append -in new.csv [-out city.fidx] [-threshold 0.02] \
//	             [-drift-metric stat_parity=0.05 ...] city.fidx
//		fold new records into a saved index's live per-region
//		statistics (partition and models unchanged) and report the
//		drift they caused as a per-metric table; with -out the folded
//		statistics are persisted. Only ENCE drift survives the next
//		load (its build-time value is stored): every other metric's
//		drift is measured from the statistics as loaded and restarts
//		at 0.
//		-threshold arms the rebuild recommendation on ENCE drift and
//		-drift-metric (repeatable) on any registered fairness metric,
//		for this invocation (thresholds are runtime policy, not part
//		of the artifact — arm them wherever the index is loaded).
//
//	fairindexctl serve [-http :8080] city.fidx [more.fidx ...]
//	fairindexctl serve -dir artifacts/ [-max-indexes 8] [-default la-fair-h8]
//		load one or more saved Indexes and serve them from a single
//		concurrent HTTP/JSON process. Each artifact is a named
//		catalog entry ([name=]path arguments, or the file base name);
//		-dir serves every *.fidx in a directory, loading entries
//		lazily on first use and LRU-evicting beyond -max-indexes.
//		Named routes /v1/i/{name}/locate|locate_batch|score|
//		report/{task}|range|knn|stats address one entry; the
//		unprefixed /v1/* routes resolve to the default entry
//		(-default, or the sole entry); /v1/indexes lists the catalog
//		and /v1/compare runs one request across several entries.
//		SIGHUP (or POST /v1/reload) rescans -dir and atomically
//		hot-reloads every resident index without dropping in-flight
//		requests; POST /v1/i/{name}/reload reloads one entry.
//		-drift-threshold arms every served index's rebuild
//		recommendation: once appends (POST /v1/append or
//		/v1/i/{name}/append) drift a task's live ENCE that far from
//		its build-time baseline, the entry advertises
//		rebuild_recommended in /v1/indexes. -drift-metric
//		metric=threshold (repeatable) arms the same recommendation on
//		any registered fairness metric (see docs/METRICS.md); the
//		per-metric live drifts appear as "drifts" in /v1/indexes.
//
//		-rebuild-source data.csv (a CSV file, or a directory holding
//		one <name>.csv per entry) runs the drift-rebuild controller
//		in-process: every drift crossing — and every POST
//		/v1/i/{name}/rebuild — rebuilds a candidate from the source
//		with the serving artifact's own recipe, gates it on fairness
//		regression budgets (-rebuild-budget metric=delta, repeatable;
//		default ence=0.01 cal_ratio=0.05) and promotes it atomically
//		only if no budget is exceeded; rebuild state appears per
//		entry in /v1/indexes. See docs/REBUILD.md.
//
//	fairindexctl rebuild -source new.csv [-budget ence=0.01 ...] [-dry-run] city.fidx
//		one-shot rebuild cycle over a saved artifact: rebuild a
//		candidate from -source with the artifact's own build recipe,
//		evaluate the fairness gate, print the per-metric delta table
//		and atomically replace the file only on a promote verdict
//		(-dry-run never touches it). Exit code 0 = promoted (or dry
//		run passed), 3 = refused, 4 = candidate build failed.
//
//	fairindexctl serve -csv points.csv [-out regions.csv] city.fidx
//		legacy one-shot mode: answer point→neighborhood lookups for
//		a CSV of points (id, lat, lon; header optional) and exit.
//
//	fairindexctl shard -n 4 [-out artifacts/] [-prefix la] city.fidx
//		split a saved Index into n per-shard .fidx artifacts (each a
//		standalone index over a contiguous neighborhood range, loadable
//		by ordinary serve processes) plus a <prefix>.manifest shard
//		plan binding them to the source artifact's generation.
//
//	fairindexctl route -manifest la.manifest \
//	             -shard s0=http://host:8081 -shard s1=http://host:8082 \
//	             [-http :8080] [-timeout 5s]
//		serve the exact scatter-gather router over running shard
//		backends (one -shard name=url per manifest entry; each backend
//		is a plain `fairindexctl serve` holding that shard's
//		artifact). Locate/range/knn/stats answers are bit-identical to
//		a server holding the unsharded artifact (locate, range and knn
//		come from the manifest alone, without a shard call; stats ask
//		only the shards owning the window); score and report are
//		refused (whole-index operations). SIGHUP or POST /v1/reload
//		re-reads the manifest file for generation handoffs, and
//		GET /v1/shards reports per-backend health and generation.
//
//	fairindexctl query range -minlat .. -maxlat .. -minlon .. -maxlon .. city.fidx
//	fairindexctl query knn -lat .. -lon .. [-k 5] city.fidx
//	fairindexctl query stats -task 0 {-regions 1,2,3 | -minlat .. -maxlat .. -minlon .. -maxlon ..} \
//	             [-metrics ence,stat_parity|all] city.fidx
//		run region queries against a saved Index without a server:
//		range lists the neighborhoods intersecting a window (cells +
//		covered fraction), knn the k nearest neighborhoods by
//		centroid distance, stats the aggregated calibration/fairness
//		report over a window given as region ids or as a rectangle;
//		-metrics additionally evaluates the named registered fairness
//		metrics (or all of them) over the window. The index may also
//		be passed with -index instead of positionally.
//
// Invoked without a subcommand it runs the legacy one-shot report:
//
//	fairindexctl -in city.csv -minlat .. -maxlat .. -minlon .. -maxlon .. \
//	             [-method fair] [-height 8] [-model logreg] [-task 0] \
//	             [-grid 64] [-seed 11] [-map] [-assign out.csv]
//
// The input CSV follows the canonical layout written by cmd/datagen:
// id, lat, lon, features..., label:task...
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	fairindex "fairindex"
	"fairindex/internal/dataset"
	"fairindex/internal/geo"
	"fairindex/internal/ml"
	"fairindex/internal/pipeline"
	"fairindex/internal/rebuild"
	"fairindex/internal/registry"
	"fairindex/internal/render"
	"fairindex/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fairindexctl: ")

	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "build":
			if err := runBuildCmd(os.Args[2:]); err != nil {
				log.Fatal(err)
			}
			return
		case "ingest":
			if err := runIngestCmd(os.Args[2:]); err != nil {
				log.Fatal(err)
			}
			return
		case "append":
			if err := runAppendCmd(os.Args[2:]); err != nil {
				log.Fatal(err)
			}
			return
		case "serve":
			if err := runServeCmd(os.Args[2:]); err != nil {
				log.Fatal(err)
			}
			return
		case "rebuild":
			code, err := runRebuildCmd(os.Args[2:], os.Stdout)
			if err != nil {
				log.Print(err)
			}
			os.Exit(code)
		case "query":
			if err := runQueryCmd(os.Args[2:], os.Stdout); err != nil {
				log.Fatal(err)
			}
			return
		case "shard":
			if err := runShardCmd(os.Args[2:], os.Stdout); err != nil {
				log.Fatal(err)
			}
			return
		case "route":
			if err := runRouteCmd(os.Args[2:]); err != nil {
				log.Fatal(err)
			}
			return
		}
	}
	if err := runLegacyReport(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// runBuildCmd builds an Index from a dataset CSV and writes the
// serialized artifact to -out.
func runBuildCmd(args []string) error { return runBuildLike("build", args, false) }

// runIngestCmd is build's streaming twin: the CSV is read in bounded
// chunks (two passes over the file) instead of being materialized up
// front, and the resulting artifact is bit-identical to build's.
func runIngestCmd(args []string) error { return runBuildLike("ingest", args, true) }

func runBuildLike(cmd string, args []string, streaming bool) error {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	in := fs.String("in", "", "input dataset CSV (required)")
	out := fs.String("out", "", "output index file (required)")
	method := fs.String("method", "fair", "partitioning method: fair|median|iterative|multi|gridrw|zipcode|quadtree")
	model := fs.String("model", "logreg", "classifier: logreg|dtree|nb")
	height := fs.Int("height", 8, "tree height")
	task := fs.Int("task", 0, "label task index")
	post := fs.String("post", "none", "post-processing: none|platt|isotonic")
	gridSide := fs.Int("grid", 64, "base grid side length")
	seed := fs.Int64("seed", 11, "split/layout seed")
	minLat := fs.Float64("minlat", 0, "bounding box min latitude (required)")
	maxLat := fs.Float64("maxlat", 0, "bounding box max latitude (required)")
	minLon := fs.Float64("minlon", 0, "bounding box min longitude (required)")
	maxLon := fs.Float64("maxlon", 0, "bounding box max longitude (required)")
	var chunk *int
	if streaming {
		chunk = fs.Int("chunk", fairindex.DefaultStreamChunk, "records per streaming ingest batch")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("%s: -in and -out are required", cmd)
	}
	box := geo.BBox{MinLat: *minLat, MinLon: *minLon, MaxLat: *maxLat, MaxLon: *maxLon}
	if !box.Valid() {
		return fmt.Errorf("%s: a valid bounding box (-minlat/-maxlat/-minlon/-maxlon) is required", cmd)
	}
	grid, err := geo.NewGrid(*gridSide, *gridSide)
	if err != nil {
		return err
	}
	cfg, err := buildConfig(*method, *model, *height, *task, *seed)
	if err != nil {
		return err
	}
	if cfg.PostProcess, err = parsePost(*post); err != nil {
		return err
	}

	totalStart := time.Now()
	var idx *fairindex.Index
	if streaming {
		src, err := fairindex.OpenCSVSource(*in, *in, grid, box)
		if err != nil {
			return err
		}
		defer src.Close()
		idx, err = fairindex.BuildStream(src, fairindex.WithConfig(cfg),
			fairindex.WithStreaming(*chunk))
		if err != nil {
			return err
		}
	} else {
		ds, err := loadDataset(*in, grid, box)
		if err != nil {
			return err
		}
		if idx, err = fairindex.Build(ds, fairindex.WithConfig(cfg)); err != nil {
			return err
		}
	}
	total := time.Since(totalStart)
	blob, err := idx.MarshalBinary()
	if err != nil {
		return err
	}
	if err := rebuild.WriteFileAtomic(*out, blob); err != nil {
		return err
	}
	rep, err := idx.Report(*task)
	if err != nil {
		return err
	}
	fmt.Printf("built %s over %q: %d neighborhoods (height %d), ENCE %.5f\n",
		idx.Method(), idx.DatasetName(), idx.NumRegions(), idx.Height(), rep.ENCE)
	fmt.Print(buildTimings(idx, total))
	fmt.Printf("wrote %d bytes to %s\n", len(blob), *out)
	return nil
}

// runAppendCmd folds new records from a CSV into a saved index's live
// per-region statistics and reports the calibration drift they
// caused. With -out the updated artifact (folded statistics included)
// is written back, so the drift measurement survives the next load.
func runAppendCmd(args []string) error {
	fs := flag.NewFlagSet("append", flag.ExitOnError)
	in := fs.String("in", "", "CSV of records to append (required; canonical layout)")
	indexPath := fs.String("index", "", "serialized index file (or pass it positionally)")
	out := fs.String("out", "", "write the updated artifact here (optional; may equal -index)")
	threshold := fs.Float64("threshold", -1, "ENCE drift threshold to arm before folding (-1 = leave unarmed; the threshold is runtime policy, not stored in the artifact)")
	driftMetrics := map[string]float64{}
	fs.Func("drift-metric", "metric=threshold to arm before folding, e.g. stat_parity=0.05 (repeatable)",
		func(v string) error { return parseDriftMetric(v, driftMetrics) })
	if err := fs.Parse(args); err != nil {
		return err
	}
	path := *indexPath
	switch {
	case path == "" && fs.NArg() == 1:
		path = fs.Arg(0)
	case path != "" && fs.NArg() == 0:
	default:
		return fmt.Errorf("append: exactly one index file is required (-index or positional)")
	}
	if *in == "" {
		return fmt.Errorf("append: -in is required")
	}
	idx, err := fairindex.LoadIndex(path)
	if err != nil {
		return err
	}
	if err := idx.SetDriftThresholds(withENCEThreshold(*threshold, driftMetrics)); err != nil {
		return err
	}
	// The appended CSV is decoded against the index's own geometry, so
	// the records land in the partitioning they will be folded into.
	ds, err := loadDataset(*in, idx.Grid(), idx.Box())
	if err != nil {
		return err
	}
	res, err := idx.AppendBatch(ds.Records)
	if err != nil {
		return err
	}
	fmt.Printf("appended %d records to %s (%d since load)\n", res.Appended, path, res.Total)
	fmt.Print(driftTable(res, idx.DriftThresholds()))
	if *out != "" {
		blob, err := idx.MarshalBinary()
		if err != nil {
			return err
		}
		if err := rebuild.WriteFileAtomic(*out, blob); err != nil {
			return err
		}
		fmt.Printf("wrote %d bytes to %s\n", len(blob), *out)
	}
	return nil
}

// withENCEThreshold folds an ENCE-only threshold flag (append
// -threshold, serve -drift-threshold) into the -drift-metric map as
// its "ence" entry; a non-positive value adds nothing, and an
// explicit -drift-metric ence=… wins. The map is updated in place and
// returned.
func withENCEThreshold(ence float64, metrics map[string]float64) map[string]float64 {
	if _, explicit := metrics[fairindex.MetricENCE]; ence > 0 && !explicit {
		metrics[fairindex.MetricENCE] = ence
	}
	return metrics
}

// parseDriftMetric parses one -drift-metric metric=threshold value
// into dst.
func parseDriftMetric(v string, dst map[string]float64) error {
	name, raw, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want metric=threshold, got %q", v)
	}
	t, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return fmt.Errorf("threshold in %q: %v", v, err)
	}
	dst[name] = t
	return nil
}

// driftTable renders an append's drift report as a per-metric table —
// the same monitored-metric view the serve catalog exposes on
// /v1/indexes (drift, drifts, rebuild_recommended): one row per task
// and monitored metric with the live value, the drift from the
// build-time value and, when armed, the threshold. NaN values render
// as "n/a" — the same "undefined" sentinel the HTTP API encodes as
// null.
func driftTable(res fairindex.AppendResult, thresholds map[string]float64) string {
	var b strings.Builder
	num := func(v float64) string {
		if math.IsNaN(v) {
			return "     n/a"
		}
		return fmt.Sprintf("%8.5f", v)
	}
	for _, td := range res.Tasks {
		names := make([]string, 0, len(td.Drifts))
		for name := range td.Drifts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "task %d  %-16s live %s  drift %s", td.Task, name,
				num(td.Metrics[name]), num(td.Drifts[name]))
			if thr := thresholds[name]; thr > 0 {
				fmt.Fprintf(&b, "  threshold %.5f", thr)
			}
			b.WriteByte('\n')
		}
	}
	armed := false
	for _, thr := range thresholds {
		if thr > 0 {
			armed = true
		}
	}
	if armed {
		fmt.Fprintf(&b, "max ENCE drift %.5f — rebuild recommended: %v\n", res.Drift, res.RebuildRecommended)
	} else {
		fmt.Fprintf(&b, "max ENCE drift %.5f (no threshold armed)\n", res.Drift)
	}
	return b.String()
}

// buildTimings renders the build/train wall-time line with the
// worker budget and, when tasks overlapped, the task overlap (summed
// per-task train time over wall time). TrainWorkers is the build's
// worker *budget*; the overlap is only meaningful when more than one
// task shared it — a single-task build spends the budget inside its
// fit, which the ratio cannot see (it reads 1.0 for any worker
// count).
func buildTimings(idx *fairindex.Index, total time.Duration) string {
	line := fmt.Sprintf("timings: total %v (partition %v, final training %v",
		total.Round(time.Millisecond), idx.BuildTime().Round(time.Millisecond),
		idx.TrainTime().Round(time.Millisecond))
	w := idx.TrainWorkers()
	if len(idx.Tasks()) > 1 && w > 1 && idx.TrainTime() > 0 {
		overlap := float64(idx.TrainCPUTime()) / float64(idx.TrainTime())
		line += fmt.Sprintf(" across %d workers, task overlap %.2fx", w, overlap)
	} else if w == 1 {
		line += " on 1 worker"
	} else {
		line += fmt.Sprintf(", worker budget %d", w)
	}
	return line + ")\n"
}

// runQueryCmd answers region queries against a saved index: range
// (window → intersecting neighborhoods), knn (point → k nearest
// neighborhoods) and stats (window → aggregated fairness report).
func runQueryCmd(args []string, w io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("query: a subcommand is required: range|knn|stats")
	}
	op, rest := args[0], args[1:]
	fs := flag.NewFlagSet("query "+op, flag.ExitOnError)
	minLat := fs.Float64("minlat", math.NaN(), "window min latitude (range/stats)")
	maxLat := fs.Float64("maxlat", math.NaN(), "window max latitude (range/stats)")
	minLon := fs.Float64("minlon", math.NaN(), "window min longitude (range/stats)")
	maxLon := fs.Float64("maxlon", math.NaN(), "window max longitude (range/stats)")
	lat := fs.Float64("lat", math.NaN(), "query latitude (knn)")
	lon := fs.Float64("lon", math.NaN(), "query longitude (knn)")
	k := fs.Int("k", 5, "number of nearest neighborhoods (knn)")
	task := fs.Int("task", 0, "label task (stats)")
	regionsFlag := fs.String("regions", "", "comma-separated region ids (stats; alternative to a window)")
	metricsFlag := fs.String("metrics", "", "comma-separated fairness metrics to evaluate over the window, or \"all\" (stats)")
	indexPath := fs.String("index", "", "serialized index file (or pass it positionally)")
	switch op {
	case "range", "knn", "stats":
	default:
		return fmt.Errorf("query: unknown subcommand %q (want range|knn|stats)", op)
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	path := *indexPath
	switch {
	case fs.NArg() > 1:
		return fmt.Errorf("query %s: exactly one index file is required, got %d", op, fs.NArg())
	case fs.NArg() == 1 && path != "":
		return fmt.Errorf("query %s: both -index %s and positional %s given", op, path, fs.Arg(0))
	case fs.NArg() == 1:
		path = fs.Arg(0)
	}
	if path == "" {
		return fmt.Errorf("query %s: an index file is required (-index or positional)", op)
	}
	idxp, err := fairindex.LoadIndex(path)
	if err != nil {
		return err
	}
	idx := *idxp

	window := func() (fairindex.BBox, error) {
		box := fairindex.BBox{MinLat: *minLat, MinLon: *minLon, MaxLat: *maxLat, MaxLon: *maxLon}
		for _, v := range []float64{*minLat, *maxLat, *minLon, *maxLon} {
			if math.IsNaN(v) {
				return box, fmt.Errorf("query %s: a full window (-minlat/-maxlat/-minlon/-maxlon) is required", op)
			}
		}
		return box, nil
	}

	switch op {
	case "range":
		box, err := window()
		if err != nil {
			return err
		}
		overlaps, err := idx.RangeQuery(box)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d of %d neighborhoods intersect the window\n", len(overlaps), idx.NumRegions())
		for _, ov := range overlaps {
			fmt.Fprintf(w, "  region %-4d cells %-5d fraction %.4f\n", ov.Region, ov.Cells, ov.Fraction)
		}
	case "knn":
		if math.IsNaN(*lat) || math.IsNaN(*lon) {
			return fmt.Errorf("query knn: -lat and -lon are required")
		}
		neighbors, err := idx.NearestRegions(*lat, *lon, *k)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d nearest neighborhoods to (%v, %v):\n", len(neighbors), *lat, *lon)
		for i, nd := range neighbors {
			fmt.Fprintf(w, "  %2d. region %-4d distance %.5f°\n", i+1, nd.Region, nd.Distance)
		}
	case "stats":
		windowGiven := false
		for _, v := range []float64{*minLat, *maxLat, *minLon, *maxLon} {
			if !math.IsNaN(v) {
				windowGiven = true
			}
		}
		var regions []int
		if *regionsFlag != "" {
			if windowGiven {
				return fmt.Errorf("query stats: give -regions or a window, not both")
			}
			for _, part := range strings.Split(*regionsFlag, ",") {
				id, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil {
					return fmt.Errorf("query stats: -regions entry %q: %v", part, err)
				}
				regions = append(regions, id)
			}
		} else {
			box, err := window()
			if err != nil {
				return fmt.Errorf("query stats: give -regions or a window: %w", err)
			}
			overlaps, err := idx.RangeQuery(box)
			if err != nil {
				return err
			}
			for _, ov := range overlaps {
				regions = append(regions, ov.Region)
			}
		}
		var ws fairindex.WindowStats
		if *metricsFlag != "" {
			var names []string // empty = every registered metric
			if !strings.EqualFold(*metricsFlag, "all") {
				for _, part := range strings.Split(*metricsFlag, ",") {
					if part = strings.TrimSpace(part); part != "" {
						names = append(names, part)
					}
				}
			}
			ws, err = idx.GroupStatsMetrics(*task, regions, names...)
		} else {
			ws, err = idx.GroupStats(*task, regions)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "window of %d neighborhoods, population %d (task %d)\n", len(ws.Regions), ws.Count, ws.Task)
		fmt.Fprintf(w, "  ENCE %.5f  miscalibration %.4f  calibration ratio %.4f\n", ws.ENCE, ws.Miscal, ws.CalRatio)
		fmt.Fprintf(w, "  mean confidence %.4f  positive rate %.4f\n", ws.MeanConf, ws.PosRate)
		if ws.Metrics != nil {
			names := make([]string, 0, len(ws.Metrics))
			for name := range ws.Metrics {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				if v := ws.Metrics[name]; math.IsNaN(v) {
					fmt.Fprintf(w, "  metric %-16s n/a\n", name)
				} else {
					fmt.Fprintf(w, "  metric %-16s %.5f\n", name, v)
				}
			}
		}
		for _, rs := range ws.Regions {
			fmt.Fprintf(w, "  region %-4d pop %-5d calibration %.3f  miscal %.4f\n", rs.Region, rs.Count, rs.CalRatio, rs.Miscal)
		}
	}
	return nil
}

// indexSpec is one [name=]path serve argument.
type indexSpec struct {
	name, path string
}

// parseIndexSpec splits a [name=]path argument; the name defaults to
// the file base without the .fidx extension.
func parseIndexSpec(arg string) (indexSpec, error) {
	spec := indexSpec{path: arg}
	if name, path, ok := strings.Cut(arg, "="); ok {
		spec.name, spec.path = name, path
	}
	if spec.path == "" {
		return spec, fmt.Errorf("serve: empty index path in %q", arg)
	}
	if spec.name == "" {
		spec.name = strings.TrimSuffix(filepath.Base(spec.path), registry.Ext)
	}
	if spec.name == "" {
		return spec, fmt.Errorf("serve: cannot derive an index name from %q", arg)
	}
	return spec, nil
}

// runServeCmd loads one or more saved Indexes and serves them — as a
// concurrent HTTP/JSON service by default, or as the legacy one-shot
// CSV resolver when -csv is given.
func runServeCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	httpAddr := fs.String("http", ":8080", "HTTP listen address")
	var specs []string
	fs.Func("index", "index artifact as [name=]path (repeatable; positional arguments are equivalent)",
		func(v string) error { specs = append(specs, v); return nil })
	dir := fs.String("dir", "", "serve every *.fidx artifact in this directory (rescanned on reload)")
	maxIndexes := fs.Int("max-indexes", 0, "bound on concurrently resident indexes, LRU-evicted (0 = unlimited)")
	defName := fs.String("default", "", "catalog entry the unprefixed /v1 routes resolve to (default: the sole entry)")
	driftThr := fs.Float64("drift-threshold", 0, "ENCE drift at which an appended-to index advertises rebuild_recommended (0 = monitor without recommending)")
	driftMetrics := map[string]float64{}
	fs.Func("drift-metric", "metric=threshold to arm on every served index, e.g. stat_parity=0.05 (repeatable; layers on -drift-threshold)",
		func(v string) error { return parseDriftMetric(v, driftMetrics) })
	rebuildSrc := fs.String("rebuild-source", "", "run the drift-rebuild controller in-process, rebuilding candidates from this CSV (or <dir>/<name>.csv per entry)")
	rebuildBudgets := map[string]float64{}
	fs.Func("rebuild-budget", "metric=delta promotion budget for the rebuild gate, e.g. ence=0.01 (repeatable; default ence=0.01 cal_ratio=0.05)",
		func(v string) error { return parseDriftMetric(v, rebuildBudgets) })
	csvPoints := fs.String("csv", "", "legacy one-shot mode: resolve this points CSV (id, lat, lon) and exit")
	out := fs.String("out", "", "CSV mode: output path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxIndexes < 0 {
		return fmt.Errorf("serve: -max-indexes %d: want 0 (unlimited) or a positive bound", *maxIndexes)
	}
	specs = append(specs, fs.Args()...)
	entries := make([]indexSpec, len(specs))
	for i, arg := range specs {
		var err error
		if entries[i], err = parseIndexSpec(arg); err != nil {
			return err
		}
	}

	if *csvPoints != "" {
		if *dir != "" || len(entries) != 1 {
			return fmt.Errorf("serve: CSV mode needs exactly one index file, got %d (-dir not supported)", len(entries))
		}
		return serveCSV(entries[0].path, *csvPoints, *out)
	}
	if *dir == "" && len(entries) == 0 {
		return fmt.Errorf("serve: at least one index file (-index, positional) or -dir is required")
	}

	srv, err := newServeServer(entries, *dir, *maxIndexes, *defName, withENCEThreshold(*driftThr, driftMetrics))
	if err != nil {
		return err
	}
	if len(rebuildBudgets) > 0 && *rebuildSrc == "" {
		return fmt.Errorf("serve: -rebuild-budget needs -rebuild-source")
	}
	if *rebuildSrc != "" {
		reg := srv.Registry()
		var ctrlOpts []rebuild.Option
		if len(rebuildBudgets) > 0 {
			ctrlOpts = append(ctrlOpts, rebuild.WithBudgets(rebuildBudgets))
		}
		ctrl, err := rebuild.New(reg, rebuildSourceFn(reg, *rebuildSrc), ctrlOpts...)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		ctrl.Bind()
		defer ctrl.Close()
		srv.SetRebuilder(ctrl)
		fmt.Printf("rebuild controller armed: source %s, budgets %s\n", *rebuildSrc, budgetLine(rebuildBudgets))
	}
	return serveHTTP(context.Background(), srv, *httpAddr, nil)
}

// newServeServer assembles the index catalog from explicit entries
// and/or a scanned artifact directory. Explicit files must exist
// (fail fast at boot); directory entries load lazily on first use.
func newServeServer(entries []indexSpec, dir string, maxIndexes int, defName string, driftMetrics map[string]float64) (*server.Server, error) {
	var regOpts []registry.Option
	if dir != "" {
		regOpts = append(regOpts, registry.WithDir(dir))
	}
	if maxIndexes > 0 {
		regOpts = append(regOpts, registry.WithMaxLoaded(maxIndexes))
	}
	if defName != "" {
		regOpts = append(regOpts, registry.WithDefault(defName))
	}
	if len(driftMetrics) > 0 {
		for name, t := range driftMetrics {
			if _, ok := fairindex.MetricByName(name); !ok {
				return nil, fmt.Errorf("serve: unknown drift metric %q (registered: %s)",
					name, strings.Join(fairindex.Metrics(), ", "))
			}
			if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
				return nil, fmt.Errorf("serve: -drift-metric %s=%v: want a finite threshold >= 0 (0 disarms)", name, t)
			}
		}
		regOpts = append(regOpts, registry.WithDriftThresholds(driftMetrics))
	}
	reg := registry.New(regOpts...)
	for _, e := range entries {
		if _, err := os.Stat(e.path); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if err := reg.Add(e.name, e.path); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	if dir != "" {
		if err := reg.Rescan(); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	if reg.Len() == 0 {
		return nil, fmt.Errorf("serve: no index artifacts registered (empty -dir?)")
	}
	// Fail fast on the default artifact: a serve whose unprefixed
	// routes can never answer should not boot quietly.
	if name := reg.DefaultName(); name != "" {
		if _, err := reg.Lookup(name); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	return server.NewMulti(reg), nil
}

// serveHTTP runs the concurrent HTTP service, hot-reloading the
// catalog on SIGHUP or POST /v1/reload (see runHTTP).
func serveHTTP(ctx context.Context, srv *server.Server, addr string, onReady func(net.Addr)) error {
	reg := srv.Registry()
	banner := func(addr net.Addr) {
		def := reg.DefaultName()
		fmt.Printf("serving %d indexes (%d resident) on %s\n", reg.Len(), reg.LoadedCount(), addr)
		for _, info := range reg.List() {
			line := fmt.Sprintf("  %s [%s]", info.Name, info.State)
			if info.State == registry.StateLoaded {
				line += fmt.Sprintf(": %s over %q, %d neighborhoods, tasks %v (codec v%d)",
					info.Method, info.Dataset, info.Regions, info.Tasks, info.CodecVersion)
			}
			if info.Name == def {
				line += "  <- default"
			}
			fmt.Println(line)
		}
	}
	reload := func() {
		if err := srv.Reload(); err != nil {
			log.Printf("server: SIGHUP reload failed, keeping current indexes: %v", err)
		} else {
			log.Printf("server: reloaded catalog (%d entries, %d resident)", reg.Len(), reg.LoadedCount())
		}
	}
	return runHTTP(ctx, newHTTPServer(srv), addr, banner, reload, onReady)
}

// Connection limits of the http.Server that serve and route both run.
// A client gets readHeaderTimeout to send its request headers, so a
// stalled or trickling client cannot hold a connection open forever;
// an idle keep-alive connection closes after idleTimeout; request
// headers are capped at maxHeaderBytes. Bodies are bounded by the
// handlers (wire.MaxBodyBytes) rather than by a whole-request read
// timeout, which would also cut off a large batch on a slow link.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
	shutdownTimeout   = 5 * time.Second
)

// newHTTPServer wraps h in the http.Server serve and route run.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// runHTTP is the serve loop shared by serve and route. It calls
// reload on every SIGHUP, listens on addr, prints banner for the bound
// address, and serves hs until ctx is done or the process gets SIGINT
// or SIGTERM; then it drains in-flight requests for up to
// shutdownTimeout. onReady, when non-nil, observes the bound address
// (tests bind :0).
func runHTTP(ctx context.Context, hs *http.Server, addr string, banner func(net.Addr), reload func(), onReady func(net.Addr)) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				reload()
			}
		}
	}()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	banner(ln.Addr())
	fmt.Printf("hot reload: kill -HUP %d or POST /v1/reload\n", os.Getpid())
	if onReady != nil {
		onReady(ln.Addr())
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		return hs.Shutdown(shutCtx)
	}
}

// serveCSV is the legacy one-shot flow: resolve a points CSV against
// the index and write id,lat,lon,region rows.
func serveCSV(indexPath, pointsPath, out string) error {
	idxp, err := fairindex.LoadIndex(indexPath)
	if err != nil {
		return err
	}
	idx := *idxp
	ids, lats, lons, err := readPoints(pointsPath)
	if err != nil {
		return err
	}
	regions, err := idx.LocateBatch(lats, lons)
	if err != nil {
		return err
	}

	var w io.Writer = os.Stdout
	var outFile *os.File
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		outFile = f
		w = f
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "lat", "lon", "region"}); err != nil {
		return err
	}
	for i := range ids {
		rec := []string{
			ids[i],
			strconv.FormatFloat(lats[i], 'g', -1, 64),
			strconv.FormatFloat(lons[i], 'g', -1, 64),
			strconv.Itoa(regions[i]),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		if outFile != nil {
			outFile.Close()
		}
		return err
	}
	// Close explicitly so a close-time write-back failure (NFS, disk
	// full) fails the command instead of being swallowed by a defer.
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			return err
		}
	}
	if out != "" {
		fmt.Printf("resolved %d points against %d neighborhoods (%s over %q), wrote %s\n",
			len(ids), idx.NumRegions(), idx.Method(), idx.DatasetName(), out)
	}
	return nil
}

// readPoints parses an id,lat,lon CSV; a header row is skipped.
func readPoints(path string) (ids []string, lats, lons []float64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()
	cr := csv.NewReader(f)
	cr.FieldsPerRecord = 3
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("serve: %s: %w", path, err)
	}
	for i, row := range rows {
		lat, latErr := strconv.ParseFloat(row[1], 64)
		lon, lonErr := strconv.ParseFloat(row[2], 64)
		if latErr != nil || lonErr != nil {
			// Only a first row with *both* coordinate fields non-numeric
			// is a header; a single bad field is a data error even on
			// row 1, so malformed points are never silently dropped.
			if i == 0 && latErr != nil && lonErr != nil {
				continue // header row
			}
			return nil, nil, nil, fmt.Errorf("serve: %s row %d: bad coordinates %q,%q", path, i+1, row[1], row[2])
		}
		ids = append(ids, row[0])
		lats = append(lats, lat)
		lons = append(lons, lon)
	}
	if len(ids) == 0 {
		return nil, nil, nil, fmt.Errorf("serve: %s: no points", path)
	}
	return ids, lats, lons, nil
}

// parsePost maps the -post flag onto the pipeline enum.
func parsePost(s string) (pipeline.PostProcess, error) {
	switch s {
	case "none":
		return pipeline.PostNone, nil
	case "platt":
		return pipeline.PostPlatt, nil
	case "isotonic":
		return pipeline.PostIsotonic, nil
	}
	return pipeline.PostNone, fmt.Errorf("unknown post-processing %q", s)
}

// runLegacyReport is the original one-shot experiment flow.
func runLegacyReport(args []string) error {
	fs := flag.NewFlagSet("fairindexctl", flag.ExitOnError)
	in := fs.String("in", "", "input dataset CSV (required)")
	method := fs.String("method", "fair", "partitioning method: fair|median|iterative|multi|gridrw|zipcode|quadtree")
	model := fs.String("model", "logreg", "classifier: logreg|dtree|nb")
	height := fs.Int("height", 8, "tree height")
	task := fs.Int("task", 0, "label task index")
	gridSide := fs.Int("grid", 64, "base grid side length")
	seed := fs.Int64("seed", 11, "split/layout seed")
	minLat := fs.Float64("minlat", 0, "bounding box min latitude (required)")
	maxLat := fs.Float64("maxlat", 0, "bounding box max latitude (required)")
	minLon := fs.Float64("minlon", 0, "bounding box min longitude (required)")
	maxLon := fs.Float64("maxlon", 0, "bounding box max longitude (required)")
	showMap := fs.Bool("map", false, "print an ASCII map of the partition")
	assign := fs.String("assign", "", "write the cell→region assignment CSV to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	box := geo.BBox{MinLat: *minLat, MinLon: *minLon, MaxLat: *maxLat, MaxLon: *maxLon}
	if !box.Valid() {
		return fmt.Errorf("a valid bounding box (-minlat/-maxlat/-minlon/-maxlon) is required")
	}
	grid, err := geo.NewGrid(*gridSide, *gridSide)
	if err != nil {
		return err
	}

	ds, err := loadDataset(*in, grid, box)
	if err != nil {
		return err
	}
	cfg, err := buildConfig(*method, *model, *height, *task, *seed)
	if err != nil {
		return err
	}

	res, err := pipeline.Run(ds, cfg)
	if err != nil {
		return err
	}
	report(ds, res)

	if *showMap {
		fmt.Println("\npartition map (row 0 = south):")
		fmt.Print(render.Partition(res.Partition, 64))
	}
	if *assign != "" {
		if err := writeAssignment(res, *assign); err != nil {
			return err
		}
		fmt.Printf("\nwrote assignment CSV to %s\n", *assign)
	}
	return nil
}

func loadDataset(path string, grid geo.Grid, box geo.BBox) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadCSV(f, path, grid, box)
}

func buildConfig(method, model string, height, task int, seed int64) (pipeline.Config, error) {
	cfg := pipeline.Config{Height: height, Task: task, Seed: seed}
	switch method {
	case "fair":
		cfg.Method = pipeline.MethodFairKD
	case "median":
		cfg.Method = pipeline.MethodMedianKD
	case "iterative":
		cfg.Method = pipeline.MethodIterativeFairKD
	case "multi":
		cfg.Method = pipeline.MethodMultiObjectiveFairKD
	case "gridrw":
		cfg.Method = pipeline.MethodGridReweight
	case "zipcode":
		cfg.Method = pipeline.MethodZipCode
	case "quadtree":
		cfg.Method = pipeline.MethodFairQuadtree
	default:
		return cfg, fmt.Errorf("unknown method %q", method)
	}
	switch model {
	case "logreg":
		cfg.Model = ml.ModelLogReg
	case "dtree":
		cfg.Model = ml.ModelDecisionTree
	case "nb":
		cfg.Model = ml.ModelNaiveBayes
	default:
		return cfg, fmt.Errorf("unknown model %q", model)
	}
	return cfg, nil
}

func report(ds *dataset.Dataset, res *pipeline.Result) {
	fmt.Printf("%s over %q: %d neighborhoods (height %d)\n",
		res.Method, ds.Name, res.NumRegions, res.Height)
	fmt.Printf("build %v, final training %v\n", res.BuildTime, res.TrainTime)
	for _, tr := range res.Tasks {
		fmt.Printf("\ntask %q:\n", tr.TaskName)
		fmt.Printf("  ENCE            %.5f (train %.5f, test %.5f)\n", tr.ENCE, tr.ENCETrain, tr.ENCETest)
		fmt.Printf("  accuracy        %.3f   AUC %.3f\n", tr.Accuracy, tr.AUC)
		fmt.Printf("  miscalibration  train %.4f, test %.4f\n", tr.TrainMiscal, tr.TestMiscal)
		fmt.Println("  most populated neighborhoods:")
		for i, r := range tr.TopNeighborhoods {
			fmt.Printf("    N%-3d pop %-5d calibration %.3f  ECE %.4f\n",
				i+1, r.Count, r.Ratio, r.ECE)
		}
	}
}

func writeAssignment(res *pipeline.Result, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"row", "col", "region"}); err != nil {
		return err
	}
	grid := res.Partition.Grid()
	for row := 0; row < grid.U; row++ {
		for col := 0; col < grid.V; col++ {
			region, err := res.Partition.RegionOfCell(geo.Cell{Row: row, Col: col})
			if err != nil {
				return err
			}
			rec := []string{strconv.Itoa(row), strconv.Itoa(col), strconv.Itoa(region)}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
	}
	w.Flush()
	return w.Error()
}
