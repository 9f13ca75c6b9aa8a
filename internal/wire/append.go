package wire

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	fairindex "fairindex"
)

// The POST /v1/append request codec. An append body is a batch of
// records, each with coordinates, a feature vector and one label per
// task — numbers above all, which reflection-driven encoding/json reads
// at several times the cost of folding them in. So the body is read by
// the strict scanner, under the rule of the locate_batch codec
// (batch.go): one {"records":[...]} object whose records have members
// among id, lat, lon, features and labels, each at most once and in any
// order, spelled exactly; an id of printable ASCII without escapes;
// numbers in the JSON number grammar; no null. Any other input falls
// back to encoding/json on the same bytes. FuzzAppendDecode pins the
// agreement, and TestRequestCodecAllocs what a decode allocates.

// appendRequest carries a batch of new records for POST .../append.
// Each record needs coordinates, the index's full feature vector and
// one 0/1 label per index task — the same shape the build ingested.
type appendRequest struct {
	Records []appendRecordJSON `json:"records"`
}

type appendRecordJSON struct {
	ID       string    `json:"id,omitempty"`
	Lat      float64   `json:"lat"`
	Lon      float64   `json:"lon"`
	Features []float64 `json:"features"`
	Labels   []int     `json:"labels"`
}

// ParseAppend reads a /v1/append body into the records it carries and
// checks the batch: non-empty, at most limit records. An error comes
// with its status: 400, or 413 past the limit.
func ParseAppend(r *http.Request, limit int) ([]fairindex.Record, int, error) {
	req, err := decodeBody(r.Body, scanAppend)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	return req.records(limit)
}

// records is ParseAppend's batch check, and the records it passes.
func (req appendRequest) records(limit int) ([]fairindex.Record, int, error) {
	switch n := len(req.Records); {
	case n == 0:
		return nil, http.StatusBadRequest, errors.New("empty batch")
	case n > limit:
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("batch of %d records exceeds limit %d", n, limit)
	}
	recs := make([]fairindex.Record, len(req.Records))
	for i, rr := range req.Records {
		recs[i] = fairindex.Record{ID: rr.ID, Lat: rr.Lat, Lon: rr.Lon, X: rr.Features, Labels: rr.Labels}
	}
	return recs, 0, nil
}

// The members of an append request and of each of its records.
var (
	appendKeys = []string{"records"}
	recordKeys = []string{"id", "lat", "lon", "features", "labels"}
)

// appendScratch is the pooled scratch scanAppend reads a body into
// before copying it out at its final size: every record, its features
// and labels as spans of one shared list each.
type appendScratch struct {
	recs   []scannedRecord
	feats  []float64
	labels []int
}

// scannedRecord is one record as scanned: its coordinates, its id as a
// span of the body, its features and labels as spans of the scratch
// lists. A list the record did not give has lo -1 and stays nil.
type scannedRecord struct {
	lat, lon          float64
	id, feats, labels [2]int
}

var appendPool = sync.Pool{New: func() any { return new(appendScratch) }}

// scanAppend is the strict scanner for an append body. ok is false for
// any input outside the subset described at the top of this file. The
// records it returns share three allocations — features, labels and
// ids — besides their own slice, however many there are.
func scanAppend(data []byte) (appendRequest, bool) {
	sc := appendPool.Get().(*appendScratch)
	defer appendPool.Put(sc)
	sc.recs, sc.feats, sc.labels = sc.recs[:0], sc.feats[:0], sc.labels[:0]
	s := scanner{b: data}
	var rec scannedRecord
	member := func(i int) bool {
		var ok bool
		switch i {
		case 0:
			var id []byte
			id, ok = s.str()
			rec.id = [2]int{s.i - 1 - len(id), s.i - 1}
		case 1:
			rec.lat, ok = s.float()
		case 2:
			rec.lon, ok = s.float()
		case 3:
			lo := len(sc.feats)
			sc.feats, ok = s.floats(sc.feats)
			rec.feats = [2]int{lo, len(sc.feats)}
		case 4:
			lo := len(sc.labels)
			sc.labels, ok = s.ints(sc.labels)
			rec.labels = [2]int{lo, len(sc.labels)}
		}
		return ok
	}
	_, ok := s.members(appendKeys, func(int) bool {
		return s.array(func() bool {
			rec = scannedRecord{feats: [2]int{-1, -1}, labels: [2]int{-1, -1}}
			_, ok := s.members(recordKeys, member)
			sc.recs = append(sc.recs, rec)
			return ok
		})
	})
	if !ok || !s.end() {
		return appendRequest{}, false
	}
	var ids strings.Builder
	n := 0
	for _, r := range sc.recs {
		n += r.id[1] - r.id[0]
	}
	ids.Grow(n)
	for _, r := range sc.recs {
		ids.Write(data[r.id[0]:r.id[1]])
	}
	all := ids.String()
	// make, not append to nil: a list given empty stays non-nil, as
	// encoding/json decodes it.
	feats := make([]float64, len(sc.feats))
	copy(feats, sc.feats)
	labels := make([]int, len(sc.labels))
	copy(labels, sc.labels)
	req := appendRequest{Records: make([]appendRecordJSON, len(sc.recs))}
	at := 0
	for i, r := range sc.recs {
		out := &req.Records[i]
		out.Lat, out.Lon = r.lat, r.lon
		n := r.id[1] - r.id[0]
		out.ID, at = all[at:at+n], at+n
		if lo, hi := r.feats[0], r.feats[1]; lo >= 0 {
			out.Features = feats[lo:hi:hi]
		}
		if lo, hi := r.labels[0], r.labels[1]; lo >= 0 {
			out.Labels = labels[lo:hi:hi]
		}
	}
	return req, true
}
