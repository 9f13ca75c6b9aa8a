package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// The load is a closed loop: each client sends its next request only
// after the previous reply arrived, like the callers of this service,
// which wait for each answer. An open-loop schedule is not usable in
// one process on a small box: a 20µs sleep overshoots by about a
// millisecond, so the generator's clock, not the system, would set the
// measured latency (see README.md).

// part is what the clients measured over one stretch of the load.
type part struct {
	all                   hist
	ops                   [numOps]hist
	ok, attempted, failed int64 // ok: correct replies
	errs                  []string
	last                  time.Time // when the last reply arrived
}

const keepErrs = 5

func (p *part) merge(o *part) {
	p.all.Merge(&o.all)
	for op := range p.ops {
		p.ops[op].Merge(&o.ops[op])
	}
	p.ok += o.ok
	p.attempted += o.attempted
	p.failed += o.failed
	for _, e := range o.errs {
		if len(p.errs) < keepErrs {
			p.errs = append(p.errs, e)
		}
	}
	if o.last.After(p.last) {
		p.last = o.last
	}
}

// slice is one timed slice of the load.
type slice struct {
	*part
	wall time.Duration // the slice's start to its last reply
	slow float64       // the host's slowdown, from the probes around it
}

// loadResult is what one closed-loop pass measured. Its part merges
// the timed slices, except that attempted, failed and errs also count
// the warm-up.
type loadResult struct {
	part
	slices []slice
	wall   time.Duration // the timed slices' summed wall time
	proc   procStats     // process counters over the timed slices
}

// throughput is correct replies per second of the timed phase, as
// measured.
func (r *loadResult) throughput() float64 { return float64(r.ok) / r.wall.Seconds() }

// scaledThroughput is the median over slices of the slice's throughput
// times the host's slowdown around it.
func (r *loadResult) scaledThroughput() float64 {
	return r.overSlices(func(s slice) float64 { return float64(s.ok) / s.wall.Seconds() * s.slow })
}

// slows returns every slice's host slowdown.
func (r *loadResult) slows() []float64 {
	xs := make([]float64, len(r.slices))
	for i, s := range r.slices {
		xs[i] = s.slow
	}
	return xs
}

// overSlices returns the median over slices of f.
func (r *loadResult) overSlices(f func(s slice) float64) float64 {
	xs := make([]float64, len(r.slices))
	for i, s := range r.slices {
		xs[i] = f(s)
	}
	return median(xs)
}

// drive runs cfg.clients closed-loop clients against the system s
// serves at base: cfg.warmup untimed, then cfg.measure timed in
// cfg.slices slices. Each client has its own keep-alive connection
// through its own transport and walks s.seq from its own offset. The
// host is probed before the first slice and after each one, while the
// clients pause. With a tracer, a 1-in-sampleEvery sample of timed
// requests carries a client span whose id the wrapped handlers link
// to.
func drive(cfg config, s *setup, base string, tr *tracer, hp *hostProbe) (*loadResult, error) {
	cs := make([]*client, cfg.clients)
	for i := range cs {
		cs[i] = newClient(i, base, s.reqs, s.seq, i*len(s.seq)/len(cs), tr)
		defer cs[i].http.CloseIdleConnections()
	}
	res := &loadResult{}
	warm := stretch(cs, cfg.warmup, false)
	res.attempted, res.failed, res.errs = warm.attempted, warm.failed, warm.errs
	slow, err := hp.slowdown()
	if err != nil {
		return nil, err
	}
	for range cfg.slices {
		p0, t0 := readProc(), time.Now()
		if tr != nil {
			tr.measuring.Store(true)
		}
		p := stretch(cs, cfg.measure/time.Duration(cfg.slices), true)
		if tr != nil {
			tr.measuring.Store(false)
		}
		res.proc.add(p0, readProc())
		next, err := hp.slowdown()
		if err != nil {
			return nil, err
		}
		sl := slice{part: p, wall: cfg.measure / time.Duration(cfg.slices), slow: (slow + next) / 2}
		if p.last.After(t0) {
			sl.wall = p.last.Sub(t0)
		}
		slow = next
		res.slices = append(res.slices, sl)
		res.wall += sl.wall
		res.merge(p)
	}
	return res, nil
}

// stretch runs every client until d has passed and merges what they
// measured.
func stretch(cs []*client, d time.Duration, timed bool) *part {
	end := time.Now().Add(d)
	parts := make([]*part, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i] = c.run(end, timed)
		}()
	}
	wg.Wait()
	for _, p := range parts[1:] {
		parts[0].merge(p)
	}
	return parts[0]
}

// client is one closed-loop caller.
type client struct {
	id    int
	http  *http.Client
	base  string
	reqs  []request
	seq   []int32
	pos   int
	buf   bytes.Buffer
	tr    *tracer
	timed uint64 // timed requests so far, for span sampling
}

func newClient(id int, base string, reqs []request, seq []int32, pos int, tr *tracer) *client {
	return &client{id: id, http: ownClient(), base: base, reqs: reqs, seq: seq, pos: pos, tr: tr}
}

// ownClient returns an HTTP client with one keep-alive connection
// through a transport of its own, never http.DefaultTransport, which
// the router's default client uses.
func ownClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
}

// run sends requests until end.
func (c *client) run(end time.Time, timed bool) *part {
	p := &part{}
	for time.Now().Before(end) {
		r := &c.reqs[c.seq[c.pos]]
		c.pos = (c.pos + 1) % len(c.seq)
		var sc spanCtx
		sampled := false
		if c.tr != nil && timed {
			if c.timed%sampleEvery == 0 {
				sampled = true
				sc = spanCtx{trace: uint64(c.id+1)<<40 | c.timed, id: c.tr.newID()}
			}
			c.timed++
		}
		var spanStart int64
		if sampled {
			spanStart = c.tr.now()
		}
		t0 := time.Now()
		status, err := c.send(r, sampled, sc)
		d := time.Since(t0)
		if sampled {
			c.tr.record(span{trace: sc.trace, id: sc.id, name: spanName(layerClient, r.op), start: spanStart, end: c.tr.now()})
		}
		if err == nil {
			err = verify(r, status, c.buf.Bytes())
		}
		p.attempted++
		if err != nil {
			p.failed++
			if len(p.errs) < keepErrs {
				p.errs = append(p.errs, err.Error())
			}
		}
		if timed {
			p.all.Record(d)
			p.ops[r.op].Record(d)
			if err == nil {
				p.ok++
			}
			p.last = t0.Add(d)
		}
	}
	return p
}

// send issues one request and reads the whole reply into c.buf.
func (c *client) send(r *request, sampled bool, sc spanCtx) (int, error) {
	var body io.Reader = http.NoBody
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, c.base+r.target, body)
	if err != nil {
		return 0, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sampled {
		req.Header.Set(spanHeader, formatSpanCtx(sc))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// verify is the output oracle: status 200, and the body byte-equal to
// the expected one or accepted by the request's check.
func verify(r *request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", r.method, r.target, status, body)
	}
	if r.want != nil {
		if !bytes.Equal(body, r.want) {
			return fmt.Errorf("%s %.120s: reply differs from the expected body\n got: %.200s\nwant: %.200s",
				r.method, r.target, body, r.want)
		}
		return nil
	}
	if r.check != nil {
		if err := r.check(body); err != nil {
			return fmt.Errorf("%s %s: %w", r.method, r.target, err)
		}
	}
	return nil
}
