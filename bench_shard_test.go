// Distributed-serving benchmarks: the shard-merge kernels and the
// router's scatter-gather hot path over the paper-sized LA index.
// Baselines live in BENCH_index.json next to the serving entries.
package fairindex_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	fairindex "fairindex"
	"fairindex/internal/router"
	"fairindex/internal/server"
	"fairindex/internal/shard"
)

const benchShardCount = 4

// shardFixture splits the shared paper-sized index and precomputes
// the gathered per-region rows a router would hold after a stats
// fan-out (global ids, ascending, raw sums populated).
func shardFixture(b *testing.B) (*fairindex.Index, *shard.Manifest, []*fairindex.Index, []fairindex.RegionStat) {
	b.Helper()
	whole, err := fullIndex()
	if err != nil {
		b.Fatal(err)
	}
	m, shards, err := shard.Split(whole, benchShardCount)
	if err != nil {
		b.Fatal(err)
	}
	task := whole.Tasks()[0]
	var gathered []fairindex.RegionStat
	for i, sx := range shards {
		// Owned regions only: the trailing foreign-sentinel region (when
		// present) has no global id and never reaches the merge.
		local := make([]int, m.Shards[i].Hi-m.Shards[i].Lo)
		for j := range local {
			local[j] = j
		}
		ws, err := sx.GroupStats(task, local)
		if err != nil {
			b.Fatal(err)
		}
		for _, rs := range ws.Regions {
			global, ok := m.ToGlobal(i, rs.Region)
			if !ok {
				b.Fatalf("shard %d: region %d has no global id", i, rs.Region)
			}
			rs.Region = global
			gathered = append(gathered, rs)
		}
	}
	return whole, m, shards, gathered
}

// BenchmarkShardMergeGroupStats is the router's stats merge kernel:
// refolding the gathered per-region sufficient statistics into one
// window. Allocation here is a fixed handful (the result's region
// slice), never per-region — the alloc gate in CI enforces that.
func BenchmarkShardMergeGroupStats(b *testing.B) {
	whole, _, _, gathered := shardFixture(b)
	task := whole.Tasks()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws, err := fairindex.MergeWindowStats(task, gathered)
		if err != nil {
			b.Fatal(err)
		}
		if ws.Count == 0 {
			b.Fatal("empty merge")
		}
	}
}

// BenchmarkRouterLocateBatch is a 1000-point batch through the HTTP
// router over real shard servers. The router answers it from its
// manifest without a shard call, so compare with
// BenchmarkServerLocateBatch (internal/server) for the cost of the
// router's own request path, and with BenchmarkIndexLocateBatch for the
// wire overhead over the in-process kernel.
func BenchmarkRouterLocateBatch(b *testing.B) {
	_, m, shards, _ := shardFixture(b)
	rts := routerFixture(b, m, shards, 1)

	ds, err := fullLA()
	if err != nil {
		b.Fatal(err)
	}
	const batch = 1000
	var lats, lons strings.Builder
	for i := 0; i < batch; i++ {
		if i > 0 {
			lats.WriteByte(',')
			lons.WriteByte(',')
		}
		rec := &ds.Records[i%ds.Len()]
		fmt.Fprintf(&lats, "%v", rec.Lat)
		fmt.Fprintf(&lons, "%v", rec.Lon)
	}
	body := fmt.Sprintf(`{"lats":[%s],"lons":[%s]}`, lats.String(), lons.String())
	client := rts.Client()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(rts.URL+"/v1/locate_batch", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkRouterStatsFailover is the healthy-path cost of the
// replica layer: single-region window stats through a router whose
// shards each name two live replicas, so every request reaches exactly
// one shard and pays the breaker bookkeeping, rotation, and failover
// budget arithmetic without ever failing over.
func BenchmarkRouterStatsFailover(b *testing.B) {
	whole, m, shards, _ := shardFixture(b)
	rts := routerFixture(b, m, shards, 2)
	task := whole.Tasks()[0]
	bodies := make([]string, 64)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"task":%d,"regions":[%d]}`, task, (i*131)%m.NumRegions)
	}
	postStats(b, rts, bodies)
}

// BenchmarkRouterStatsWindow is the routed workload's window stats:
// a rectangle over the middle of the box, 40% of each side, spanning
// several shards, with every registered metric, through a router over
// 4 shards x 2 live replicas. Each request fans out to the owning
// shards and merges their sums replies, so the shard replies' codec,
// the router's read of them and its merged reply are all on the path.
func BenchmarkRouterStatsWindow(b *testing.B) {
	whole, m, shards, _ := shardFixture(b)
	box := whole.Box()
	dLat, dLon := box.MaxLat-box.MinLat, box.MaxLon-box.MinLon
	rect := fairindex.BBox{
		MinLat: box.MinLat + 0.3*dLat, MinLon: box.MinLon + 0.3*dLon,
		MaxLat: box.MaxLat - 0.3*dLat, MaxLon: box.MaxLon - 0.3*dLon,
	}
	ovs, err := whole.RangeQuery(rect)
	if err != nil {
		b.Fatal(err)
	}
	owners := map[int]bool{}
	for _, ov := range ovs {
		s, _ := m.ToLocal(ov.Region)
		owners[s] = true
	}
	if len(owners) < 2 {
		b.Fatalf("window spans %d shard(s), want several", len(owners))
	}
	rts := routerFixture(b, m, shards, 2)
	body := fmt.Sprintf(`{"task":%d,"rect":{"min_lat":%v,"min_lon":%v,"max_lat":%v,"max_lon":%v},"metrics":[]}`,
		whole.Tasks()[0], rect.MinLat, rect.MinLon, rect.MaxLat, rect.MaxLon)
	postStats(b, rts, []string{body})
}

// routerFixture serves each shard from replicas live servers behind a
// router; the servers close when the benchmark ends.
func routerFixture(b *testing.B, m *shard.Manifest, shards []*fairindex.Index, replicas int) *httptest.Server {
	b.Helper()
	backends := make([]router.Backend, len(shards))
	for i, sx := range shards {
		srv := server.New(sx)
		backends[i].Name = m.Shards[i].Name
		for range replicas {
			ts := httptest.NewServer(srv)
			b.Cleanup(ts.Close)
			backends[i].URLs = append(backends[i].URLs, ts.URL)
		}
	}
	rt, err := router.New(m, backends)
	if err != nil {
		b.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	b.Cleanup(rts.Close)
	return rts
}

// postStats times POST /v1/stats through rts, cycling through bodies.
func postStats(b *testing.B, rts *httptest.Server, bodies []string) {
	client := rts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(rts.URL+"/v1/stats", "application/json", strings.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}
