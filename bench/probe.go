package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"time"
)

// The host is shared, and its speed drifts: on the recorded box the
// same workload ran at half speed a few minutes later, in every layer
// (README.md, "Host drift"). Raw times would gate a change on the
// neighbours' load. So every timed stretch is bracketed by a probe:
// fixed work that contains no code of the system under test, run while
// the system is idle. The probe times two kinds of work the system
// does, each against its nominal time on the recorded box when idle:
// loopback HTTP round trips (the serving path's kernel and net/http
// work) and a sort (a build's arithmetic). The geometric mean of the
// two ratios is the host's slowdown, and end-to-end times are reported
// divided by it.
const (
	nominalTrip = 38 * time.Microsecond   // one round trip of one probe client
	nominalSort = 6800 * time.Microsecond // one sort round

	probeTrips = 200
	sortN      = 1 << 16
)

// hostProbe owns the probe's server, clients and buffers.
type hostProbe struct {
	url       string
	clients   []*http.Client
	stopHTTP  func()
	rounds    int
	src, work []float64
	sink      float64
	// gcs counts the collections that ran during the last probe's timed
	// rounds. It stays 0: the probe runs with the collector off.
	gcs uint32
}

// newHostProbe starts a probe with the given number of clients, which
// times rounds rounds of each kind of work.
func newHostProbe(clients, rounds int) (*hostProbe, error) {
	url, stop, err := listen(http.HandlerFunc(probeHandler))
	if err != nil {
		return nil, err
	}
	p := &hostProbe{url: url + "/probe?lat=34.0522&lon=-118.2437", stopHTTP: stop, rounds: rounds,
		src: make([]float64, sortN), work: make([]float64, sortN)}
	for range clients {
		p.clients = append(p.clients, ownClient())
	}
	rng := rand.New(rand.NewSource(1))
	for i := range p.src {
		p.src[i] = rng.Float64()*8 - 4
	}
	return p, nil
}

// probeHandler parses a point and encodes a small JSON reply, the shape
// of a locate. Only the probe's own clients call it, with a valid point.
func probeHandler(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	lat, _ := strconv.ParseFloat(q.Get("lat"), 64)
	lon, _ := strconv.ParseFloat(q.Get("lon"), 64)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Region int     `json:"region"`
		Lat    float64 `json:"lat"`
		Lon    float64 `json:"lon"`
	}{int(lat*1e3+lon) & 255, lat, lon})
}

func (p *hostProbe) stop() {
	for _, c := range p.clients {
		c.CloseIdleConnections()
	}
	p.stopHTTP()
}

// slowdown runs the probe and returns the host's slowdown.
//
// The probe shares the garbage collector with the system under test.
// Whether a collection falls inside the probe would depend on the heap
// the system left behind: its garbage, and its live size, which sets
// the next collection's goal. A change that allocates more would then
// read as a slower (or faster) host and have its times scaled back
// towards the baseline. So the probe collects the heap first, waits for
// the collection to finish, and runs with the collector off; afterwards
// it collects its own garbage, so the next timed stretch starts on a
// clean heap too.
func (p *hostProbe) slowdown() (float64, error) {
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	defer func() {
		debug.SetGCPercent(gcPercent)
		runtime.GC()
	}()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	trip, err := p.medianRound(p.trips)
	if err != nil {
		return 0, err
	}
	sort, _ := p.medianRound(p.sort) // sorting cannot fail
	runtime.ReadMemStats(&m1)
	p.gcs = m1.NumGC - m0.NumGC
	return math.Sqrt(trip / float64(nominalTrip*probeTrips) * sort / float64(nominalSort)), nil
}

// medianRound times p.rounds calls of round and returns the median in
// nanoseconds.
func (p *hostProbe) medianRound(round func() error) (float64, error) {
	ds := make([]float64, p.rounds)
	for i := range ds {
		t0 := time.Now()
		if err := round(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0))
	}
	return median(ds), nil
}

// trips makes probeTrips round trips from every client at once.
func (p *hostProbe) trips() error {
	errs := make([]error, len(p.clients))
	var wg sync.WaitGroup
	for i, c := range p.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for range probeTrips {
				resp, err := c.Get(p.url)
				if err != nil {
					errs[i] = err
					return
				}
				buf.Reset()
				_, err = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("host probe: %w", err)
		}
	}
	return nil
}

// sort sorts the fixed values and folds them through a logistic
// function.
func (p *hostProbe) sort() error {
	copy(p.work, p.src)
	slices.Sort(p.work)
	var acc float64
	for _, x := range p.work {
		acc += 1 / (1 + math.Exp(-x))
	}
	p.sink += acc
	return nil
}
