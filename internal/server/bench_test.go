package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	fairindex "fairindex"
	"fairindex/internal/dataset"
	"fairindex/internal/geo"
	"fairindex/internal/wire"
)

// benchServer lazily builds the paper-sized LA index and an HTTP
// server over it, shared by the serving benchmarks.
var benchServer = sync.OnceValues(func() (*httptest.Server, error) {
	ds, err := dataset.Generate(dataset.LA(), geo.MustGrid(64, 64))
	if err != nil {
		return nil, err
	}
	idx, err := fairindex.Build(ds,
		fairindex.WithMethod(fairindex.MethodFairKD),
		fairindex.WithHeight(8),
		fairindex.WithSeed(11))
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
// 1000-point batch: JSON decode, sharded lookup, JSON encode — the
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
