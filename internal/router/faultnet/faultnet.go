// Package faultnet is a fault-injecting HTTP proxy for exercising the
// router's failure paths in tests. It generalizes the ad-hoc delaying
// proxy the first router suites hand-rolled: one Proxy fronts a real
// backend handler and, on command, kills connections, black-holes
// requests, delays them, or fails a deterministic percentage — the
// four failure shapes the failover, breaker, deadline and
// all-replicas-dead suites need. Faults switch atomically at any
// time, so a test can kill a replica mid-hammer and heal it later.
//
// The proxy forwards to an http.Handler in process (the same pattern
// httptest servers use), so no real second network hop exists and the
// injected fault is the only nondeterminism.
package faultnet

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects the injected fault.
type Mode int

const (
	// Healthy forwards every request untouched.
	Healthy Mode = iota
	// Kill hijacks and slams the TCP connection before any bytes are
	// written: the client sees a transport error, as with a dead
	// process.
	Kill
	// BlackHole accepts the request and never answers, holding the
	// connection until the client gives up: the shape of a wedged
	// backend, exercising timeout budgets.
	BlackHole
	// Slow delays by Fault.Delay, then forwards: correct bytes, late.
	Slow
	// Flaky answers a 503 for Fault.Percent of requests on a
	// deterministic modular schedule (request k fails iff
	// ⌊k·p/100⌋ > ⌊(k−1)·p/100⌋), forwarding the rest.
	Flaky
)

// Fault is one injected failure configuration.
type Fault struct {
	Mode    Mode
	Delay   time.Duration // Slow: added latency
	Percent int64         // Flaky: percentage of requests answered 503
}

// Proxy fronts a backend handler with injectable faults. Create with
// New; the zero value is not usable.
type Proxy struct {
	backend http.Handler
	srv     *httptest.Server

	mu    sync.Mutex
	fault Fault

	calls atomic.Int64 // requests that reached the proxy
}

// New starts a fault proxy in front of backend. Close it when done.
func New(backend http.Handler) *Proxy {
	p := &Proxy{backend: backend}
	p.srv = httptest.NewServer(p)
	return p
}

// URL is the proxy's base URL — hand it to the router as a replica.
func (p *Proxy) URL() string { return p.srv.URL }

// Close shuts the proxy's listener down (a permanent Kill).
func (p *Proxy) Close() { p.srv.Close() }

// Set switches the injected fault; safe at any time, effective for
// the next request.
func (p *Proxy) Set(f Fault) {
	p.mu.Lock()
	p.fault = f
	p.mu.Unlock()
}

// Calls returns how many requests reached the proxy.
func (p *Proxy) Calls() int64 { return p.calls.Load() }

// ServeHTTP implements http.Handler with the configured fault.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := p.calls.Add(1)
	p.mu.Lock()
	f := p.fault
	p.mu.Unlock()
	switch f.Mode {
	case Kill:
		hj, ok := w.(http.Hijacker)
		if !ok {
			// Last resort on a non-hijackable writer: a 5xx still reads
			// as a replica failure to the router.
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close()
		}
	case BlackHole:
		// Drain the request first: the net/http server only watches for
		// client disconnects once the body is consumed, and a black hole
		// that never unblocks on caller cancellation would leak every
		// timed-out attempt it holds.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	case Slow:
		select {
		case <-time.After(f.Delay):
		case <-r.Context().Done():
			return
		}
		p.backend.ServeHTTP(w, r)
	case Flaky:
		if (n*f.Percent)/100 != ((n-1)*f.Percent)/100 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, `{"error":"faultnet: injected failure %d"}`, n)
			return
		}
		p.backend.ServeHTTP(w, r)
	default:
		p.backend.ServeHTTP(w, r)
	}
}
