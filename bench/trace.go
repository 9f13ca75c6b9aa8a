package main

import (
	"bufio"
	"cmp"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"fairindex/internal/registry"
)

// The traced run records spans from the benchmark's own code, around
// the calls into each layer: a client span per sampled request, a
// handler span around every wrapped server or router ServeHTTP, a
// registry span around the Lookup that resolves the request's index,
// and an attempt span per router→replica round trip. The system under
// test is not modified: spans are linked across HTTP hops by the
// Bench-Span request header, which the server ignores.
const (
	spanHeader = "Bench-Span"
	// sampleEvery keeps spans for a deterministic 1-in-4 sample of
	// requests (every client's 0th, 4th, 8th, ... request).
	sampleEvery = 4
	// spanCap bounds the preallocated span buffer; spans beyond it
	// are counted as dropped.
	spanCap = 1 << 19
)

// Layers a span can belong to.
const (
	layerClient = iota
	layerServer
	layerRouter
	numLayers
)

var layerNames = [numLayers]string{"client", "server", "router"}

// Span names: one per (layer, operation), then the registry and
// attempt spans.
const (
	spanRegistryHit = numLayers*numOps + iota
	spanRegistryLoad
	spanAttempt
)

func spanName(layer, op int) uint8 { return uint8(layer*numOps + op) }

func spanNameString(n uint8) string {
	switch n {
	case spanRegistryHit:
		return "registry.hit"
	case spanRegistryLoad:
		return "registry.load"
	case spanAttempt:
		return "router.attempt"
	}
	return layerNames[int(n)/numOps] + "." + opNames[int(n)%numOps]
}

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch. The struct holds no pointers, so a large buffer of them costs
// the garbage collector nothing to scan.
type span struct {
	trace, id, parent uint64
	start, end        int64
	name              uint8
}

func (s span) dur() int64 { return s.end - s.start }

// spanCtx identifies the span a request runs under.
type spanCtx struct{ trace, id uint64 }

type spanKey struct{}

func formatSpanCtx(sc spanCtx) string {
	return strconv.FormatUint(sc.trace, 16) + "-" + strconv.FormatUint(sc.id, 16)
}

func parseSpanCtx(s string) (spanCtx, bool) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		return spanCtx{}, false
	}
	trace, err1 := strconv.ParseUint(a, 16, 64)
	id, err2 := strconv.ParseUint(b, 16, 64)
	return spanCtx{trace: trace, id: id}, err1 == nil && err2 == nil
}

// tracer owns the span buffer and the registry counters of one traced
// pass. record is safe for concurrent use: each span claims its own
// slot.
type tracer struct {
	epoch   time.Time
	ids     atomic.Uint64
	n       atomic.Int64
	mem     []byte // the mapping behind spans
	spans   []span
	dropped atomic.Int64

	// measuring gates the registry counters to the timed phase; the
	// client only samples requests in it, so spans need no gate.
	measuring atomic.Bool
	reg       registryStats
	nonOK     atomic.Int64 // non-2xx replies of wrapped servers
	regs      []*registry.Registry
}

// newTracer maps the span buffer outside the Go heap. A span holds no
// pointers, so the collector need not see it, and the traced pass runs
// with the same live heap, hence the same collection pace, as the
// untraced one. On the heap, the buffer tripled the live heap of churn
// and made tracing look 18% faster than no tracing.
func newTracer() (*tracer, error) {
	mem, err := syscall.Mmap(-1, 0, spanCap*int(unsafe.Sizeof(span{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("span buffer: %w", err)
	}
	return &tracer{epoch: time.Now(), mem: mem, spans: unsafe.Slice((*span)(unsafe.Pointer(&mem[0])), spanCap)}, nil
}

// close unmaps the span buffer; the spans must no longer be used.
func (t *tracer) close() {
	t.spans = nil
	_ = syscall.Munmap(t.mem) // the mapping is whole and ours
}

func (t *tracer) now() int64    { return int64(time.Since(t.epoch)) }
func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = s
}

// recorded returns the spans kept so far.
func (t *tracer) recorded() []span {
	return t.spans[:min(t.n.Load(), int64(len(t.spans)))]
}

// loaded sums the resident entries of every wrapped server's registry.
func (t *tracer) loaded() int {
	n := 0
	for _, r := range t.regs {
		n += r.LoadedCount()
	}
	return n
}

// registryStats counts how the wrapped servers resolved their index.
type registryStats struct {
	mu      sync.Mutex
	lookups int64
	misses  int64
	hitNS   []int64 // the most recent hits, a ring of hitRing
	load    hist
	loadNS  int64
}

const hitRing = 1 << 16

func (s *registryStats) add(miss bool, d int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lookups++
	if miss {
		s.misses++
		s.load.Record(time.Duration(d))
		s.loadNS += d
		return
	}
	if len(s.hitNS) < hitRing {
		s.hitNS = append(s.hitNS, d)
	} else {
		s.hitNS[(s.lookups-s.misses)%hitRing] = d
	}
}

// wrap returns h with a handler span around every request. For a
// server, reg is its registry: the wrapper resolves the request's
// index through Registry.Lookup first and times it, so a lazy load
// shows as its own span (the handler's own Lookup then hits).
func (t *tracer) wrap(layer int, h http.Handler, reg *registry.Registry) http.Handler {
	if reg != nil {
		t.regs = append(t.regs, reg)
	}
	return &tracedHandler{tr: t, layer: layer, next: h, reg: reg}
}

type tracedHandler struct {
	tr    *tracer
	layer int
	next  http.Handler
	reg   *registry.Registry
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (th *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := th.tr
	start := tr.now()
	parent, sampled := parseSpanCtx(r.Header.Get(spanHeader))
	var sc spanCtx
	if sampled {
		sc = spanCtx{trace: parent.trace, id: tr.newID()}
		r = r.WithContext(context.WithValue(r.Context(), spanKey{}, sc))
	}
	if th.reg != nil {
		th.resolve(r.URL.Path, sampled, sc)
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	th.next.ServeHTTP(sw, r)
	if th.layer == layerServer && (sw.status < 200 || sw.status > 299) {
		tr.nonOK.Add(1)
	}
	if sampled {
		tr.record(span{trace: sc.trace, id: sc.id, parent: parent.id,
			name: spanName(th.layer, opOfPath(r.URL.Path)), start: start, end: tr.now()})
	}
}

// resolve times the registry lookup the request's handler is about to
// make. A miss is an entry not resident just before the call.
func (th *tracedHandler) resolve(path string, sampled bool, sc spanCtx) {
	tr := th.tr
	name := th.reg.DefaultName()
	if rest, ok := strings.CutPrefix(path, "/v1/i/"); ok {
		name, _, _ = strings.Cut(rest, "/")
	}
	info, _ := th.reg.Info(name)
	miss := info.State != registry.StateLoaded
	start := tr.now()
	_, _ = th.reg.Lookup(name) // a failure is the handler's to report
	end := tr.now()
	if tr.measuring.Load() {
		tr.reg.add(miss, end-start)
	}
	if sampled {
		name := uint8(spanRegistryHit)
		if miss {
			name = spanRegistryLoad
		}
		tr.record(span{trace: sc.trace, id: tr.newID(), parent: sc.id, name: name, start: start, end: end})
	}
}

// opOfPath maps a data route to its operation type by its last path
// element.
func opOfPath(path string) int {
	last := path[strings.LastIndexByte(path, '/')+1:]
	for op, name := range opNames {
		if name == last {
			return op
		}
	}
	return opLocate
}

// tracingRT is the router's transport in the traced pass: one attempt
// span per replica round trip, from sending the request to closing
// the reply body. The parent comes from the request context, which
// the router threads from its handler into every backend call; the
// Bench-Span header carries the attempt to the backend's wrapper.
type tracingRT struct {
	tr   *tracer
	base http.RoundTripper
}

func (t tracingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	sc, ok := req.Context().Value(spanKey{}).(spanCtx)
	if !ok {
		return t.base.RoundTrip(req)
	}
	s := span{trace: sc.trace, id: t.tr.newID(), parent: sc.id, name: spanAttempt, start: t.tr.now()}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, formatSpanCtx(spanCtx{trace: sc.trace, id: s.id}))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.end = t.tr.now()
		t.tr.record(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: t.tr, s: s}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	tr   *tracer
	s    span
	done bool
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.done {
		b.done = true
		b.s.end = b.tr.now()
		b.tr.record(b.s)
	}
	return err
}

// unionWithin returns how much of [lo, hi) the union of ivs covers.
func unionWithin(lo, hi int64, ivs [][2]int64) int64 {
	cl := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			cl = append(cl, [2]int64{a, b})
		}
	}
	slices.SortFunc(cl, func(x, y [2]int64) int { return cmp.Compare(x[0], y[0]) })
	var covered int64
	var curA, curB int64
	for i, iv := range cl {
		switch {
		case i == 0:
			curA, curB = iv[0], iv[1]
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			covered += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if len(cl) > 0 {
		covered += curB - curA
	}
	return covered
}

// selfTime is s's duration minus the part of it its children cover.
func selfTime(s span, children []span) int64 {
	ivs := make([][2]int64, len(children))
	for i, c := range children {
		ivs[i] = [2]int64{c.start, c.end}
	}
	return s.dur() - unionWithin(s.start, s.end, ivs)
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"trace":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.trace, s.id, s.parent, spanNameString(s.name), s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
