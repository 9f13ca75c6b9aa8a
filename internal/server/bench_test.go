package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	fairindex "fairindex"
	"fairindex/internal/dataset"
	"fairindex/internal/geo"
	"fairindex/internal/wire"
)

// benchIndex lazily builds the paper-sized LA index the serving
// benchmarks share.
var benchIndex = sync.OnceValues(func() (*fairindex.Index, error) {
	ds, err := dataset.Generate(dataset.LA(), geo.MustGrid(64, 64))
	if err != nil {
		return nil, err
	}
	return fairindex.Build(ds,
		fairindex.WithMethod(fairindex.MethodFairKD),
		fairindex.WithHeight(8),
		fairindex.WithSeed(11))
})

// benchServer lazily starts an HTTP server over benchIndex.
var benchServer = sync.OnceValues(func() (*httptest.Server, error) {
	idx, err := benchIndex()
	if err != nil {
		return nil, err
	}
	return httptest.NewServer(New(idx)), nil
})

// benchBatchBody builds a JSON locate_batch body of n points drawn
// from the LA records.
func benchBatchBody(b *testing.B, n int) []byte {
	b.Helper()
	ds, err := dataset.Generate(dataset.LA(), geo.MustGrid(64, 64))
	if err != nil {
		b.Fatal(err)
	}
	req := wire.LocateBatchRequest{Lats: make([]float64, n), Lons: make([]float64, n)}
	for i := 0; i < n; i++ {
		rec := &ds.Records[i%ds.Len()]
		req.Lats[i] = rec.Lat
		req.Lons[i] = rec.Lon
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkServerLocateBatch measures the full HTTP round trip of a
// 1000-point batch: JSON decode, batch lookup, JSON encode — the
// serving hot path end to end over a keep-alive connection.
func BenchmarkServerLocateBatch(b *testing.B) {
	ts, err := benchServer()
	if err != nil {
		b.Fatal(err)
	}
	body := benchBatchBody(b, 1000)
	client := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/locate_batch", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkServerLocate measures the single-point HTTP lookup round
// trip.
func BenchmarkServerLocate(b *testing.B) {
	ts, err := benchServer()
	if err != nil {
		b.Fatal(err)
	}
	client := ts.Client()
	url := ts.URL + "/v1/locate?lat=34.05&lon=-118.25"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkServerStats measures the /v1/stats handler in process, with
// no connection: parse, window resolution, the fold of every
// registered metric over a 60-region window, and the reply. With
// "sums" the reply carries each region's raw sums, as a shard answers
// the router.
func BenchmarkServerStats(b *testing.B) {
	idx, err := benchIndex()
	if err != nil {
		b.Fatal(err)
	}
	srv := New(idx)
	var regions strings.Builder
	for i := 0; i < 60; i++ {
		if i > 0 {
			regions.WriteByte(',')
		}
		fmt.Fprint(&regions, i*idx.NumRegions()/60)
	}
	for _, bc := range []struct{ name, sums string }{{"no_sums", ""}, {"sums", `,"sums":true`}} {
		b.Run(bc.name, func(b *testing.B) {
			body := []byte(fmt.Sprintf(`{"task":%d,"regions":[%s],"metrics":[]%s}`, idx.Tasks()[0], regions.String(), bc.sums))
			br := bytes.NewReader(body)
			w := &discardWriter{header: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				br.Reset(body)
				clear(w.header)
				srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/stats", br))
				if w.status != http.StatusOK {
					b.Fatalf("status %d", w.status)
				}
			}
		})
	}
}

// discardWriter is a ResponseWriter that keeps the status and drops
// the body, so a handler benchmark times the handler alone.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
