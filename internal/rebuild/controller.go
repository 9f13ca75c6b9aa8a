package rebuild

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"fairindex"
	"fairindex/internal/registry"
)

// SourceFunc opens a fresh record stream for one entry — the data a
// rebuild trains the candidate on. The returned close function (nil is
// allowed) runs after the build, whatever its outcome. The function is
// called once per rebuild attempt, so a retry after a transient
// failure reads the feed again from scratch.
type SourceFunc func(name string) (fairindex.Source, func() error, error)

// Controller drives the trigger → build → gate → promote lifecycle
// over a registry's entries. Bind subscribes it to the registry's
// drift hook; Kick and Rebuild start attempts explicitly. Per entry,
// rebuilds are single-flight: a trigger arriving while one is running
// is dropped (the running rebuild already reads the freshest feed).
// Build failures retry with exponential backoff; gate refusals and
// promotion errors do not retry on their own — they represent a
// decision or a condition a retry loop cannot fix.
type Controller struct {
	reg     *registry.Registry
	source  SourceFunc
	budgets map[string]float64
	base    time.Duration // first backoff delay
	max     time.Duration // backoff ceiling
	logger  *log.Logger
	observe func(name string, res Result, err error)

	mu     sync.Mutex
	states map[string]*entryState
	bound  bool
	closed bool
	wg     sync.WaitGroup
}

// entryState is the per-entry single-flight latch plus the visible
// status snapshot. All fields are guarded by Controller.mu.
type entryState struct {
	inFlight bool
	retry    *time.Timer
	status   Status
}

// Option configures a Controller.
type Option func(*Controller)

// WithBudgets replaces the default regression budgets (metric name →
// maximum tolerated badness delta). A zero budget evaluates and
// reports the metric without ever refusing.
func WithBudgets(budgets map[string]float64) Option {
	return func(c *Controller) {
		c.budgets = make(map[string]float64, len(budgets))
		for name, b := range budgets {
			c.budgets[name] = b
		}
	}
}

// WithBackoff sets the build-failure retry schedule: the first retry
// waits base, each further consecutive failure doubles the wait, and
// max caps it. The default is 1s doubling up to 1m.
func WithBackoff(base, max time.Duration) Option {
	return func(c *Controller) { c.base, c.max = base, max }
}

// WithLogger routes the controller's lifecycle log lines.
func WithLogger(l *log.Logger) Option {
	return func(c *Controller) { c.logger = l }
}

// WithObserver installs a hook called after every completed attempt —
// promoted, refused, or failed — with the result and error the caller
// of a synchronous Rebuild would have seen. Tests use it to
// synchronize on asynchronous (drift-triggered) rebuilds.
func WithObserver(fn func(name string, res Result, err error)) Option {
	return func(c *Controller) { c.observe = fn }
}

// New creates a Controller over reg that builds candidates from the
// streams source opens. It does not subscribe to drift notifications
// until Bind.
func New(reg *registry.Registry, source SourceFunc, opts ...Option) (*Controller, error) {
	if reg == nil {
		return nil, errors.New("rebuild: nil registry")
	}
	if source == nil {
		return nil, errors.New("rebuild: nil source function")
	}
	c := &Controller{
		reg:     reg,
		source:  source,
		budgets: DefaultBudgets(),
		base:    time.Second,
		max:     time.Minute,
		logger:  log.Default(),
		states:  make(map[string]*entryState),
	}
	for _, opt := range opts {
		opt(c)
	}
	if err := validateBudgets(c.budgets); err != nil {
		return nil, err
	}
	if c.base <= 0 || c.max < c.base {
		return nil, fmt.Errorf("rebuild: backoff %v..%v", c.base, c.max)
	}
	return c, nil
}

// Bind subscribes the controller to the registry's drift hook: every
// once-per-generation drift notification becomes an asynchronous
// rebuild kick. Close unsubscribes.
func (c *Controller) Bind() {
	c.mu.Lock()
	c.bound = true
	c.mu.Unlock()
	c.reg.SetOnDrift(func(name string) {
		c.logger.Printf("rebuild: drift trigger for %q", name)
		c.Kick(name)
	})
}

// Kick starts an asynchronous rebuild of name. It returns false — and
// does nothing — when a rebuild for the entry is already in flight or
// the controller is closed; the drift hook and the server's 202
// endpoint both route through it.
func (c *Controller) Kick(name string) bool {
	st, ok := c.begin(name)
	if !ok {
		return false
	}
	go func() {
		defer c.wg.Done()
		res, err := c.attempt(name)
		c.finish(name, st, res, err)
	}()
	return true
}

// Rebuild runs one rebuild of name synchronously and returns its
// result: the gate decision on success (promoted or refused), an
// error otherwise (wrapping ErrBuild when producing the candidate
// failed, ErrInFlight when an attempt is already running).
func (c *Controller) Rebuild(name string) (Result, error) {
	st, ok := c.begin(name)
	if !ok {
		return Result{Name: name}, fmt.Errorf("rebuild %q: %w", name, ErrInFlight)
	}
	defer c.wg.Done()
	res, err := c.attempt(name)
	c.finish(name, st, res, err)
	return res, err
}

// Status reports the entry's rebuild state. An entry never touched by
// the controller is idle.
func (c *Controller) Status(name string) Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.states[name]
	if !ok {
		return Status{Name: name, State: StateIdle}
	}
	return st.status.clone()
}

// Close unsubscribes from the drift hook, cancels pending backoff
// retries, refuses new kicks and waits for in-flight rebuilds to
// finish. A rebuild completing during Close still promotes or refuses
// normally — Close drains, it does not abort.
func (c *Controller) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	bound := c.bound
	for _, st := range c.states {
		if st.retry != nil {
			st.retry.Stop()
			st.retry = nil
			st.status.NextRetry = time.Time{}
		}
	}
	c.mu.Unlock()
	if bound {
		c.reg.SetOnDrift(nil)
	}
	c.wg.Wait()
}

// clone copies a status so callers cannot alias the guarded map.
func (s Status) clone() Status {
	out := s
	if s.RefusalDeltas != nil {
		out.RefusalDeltas = make(map[string]float64, len(s.RefusalDeltas))
		for k, v := range s.RefusalDeltas {
			out.RefusalDeltas[k] = v
		}
	}
	return out
}

// begin claims the entry's single-flight slot. On success the caller
// owns one wg count and must finish the attempt.
func (c *Controller) begin(name string) (*entryState, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, false
	}
	st, ok := c.states[name]
	if !ok {
		st = &entryState{status: Status{Name: name, State: StateIdle}}
		c.states[name] = st
	}
	if st.inFlight {
		return nil, false
	}
	if st.retry != nil {
		st.retry.Stop()
		st.retry = nil
		st.status.NextRetry = time.Time{}
	}
	st.inFlight = true
	st.status.State = StateBuilding
	c.wg.Add(1)
	return st, true
}

// finish releases the single-flight slot, folds the attempt's outcome
// into the status, schedules a backoff retry for build failures, and
// notifies the observer.
func (c *Controller) finish(name string, st *entryState, res Result, err error) {
	c.mu.Lock()
	st.inFlight = false
	switch {
	case err != nil:
		st.status.State = StateFailed
		st.status.LastErr = err.Error()
		if errors.Is(err, ErrBuild) && !c.closed {
			st.status.Attempts++
			delay := c.backoff(st.status.Attempts)
			st.status.NextRetry = time.Now().Add(delay)
			st.retry = time.AfterFunc(delay, func() { c.Kick(name) })
		}
	case res.Outcome == OutcomeRefused:
		st.status.State = StateRefused
		st.status.Attempts = 0
		st.status.LastErr = ""
		st.status.RefusalDeltas = res.Decision.Refusals
	default:
		st.status.State = StatePromoted
		st.status.Attempts = 0
		st.status.LastErr = ""
		st.status.RefusalDeltas = nil
		st.status.LastPromoted = time.Now()
	}
	c.mu.Unlock()

	switch {
	case err != nil:
		c.logger.Printf("rebuild: %v", err)
	case res.Outcome == OutcomeRefused:
		c.logger.Printf("rebuild: refused candidate for %q: %s", name, refusalLine(res.Decision))
	default:
		c.logger.Printf("rebuild: promoted %q in %v", name, res.Duration.Round(time.Millisecond))
	}
	if c.observe != nil {
		c.observe(name, res, err)
	}
}

// backoff returns the delay before retry number attempt (1-based):
// base · 2^(attempt−1), capped at max.
func (c *Controller) backoff(attempt int) time.Duration {
	d := c.base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= c.max {
			return c.max
		}
	}
	if d > c.max {
		return c.max
	}
	return d
}

// refusalLine renders a refusal's worst deltas for the log.
func refusalLine(dec Decision) string {
	line := ""
	for _, d := range dec.Deltas {
		if !d.Exceeded {
			continue
		}
		if line != "" {
			line += ", "
		}
		line += fmt.Sprintf("%s +%.4g > budget %.4g (task %d, probe %d)", d.Metric, d.Delta, d.Budget, d.Task, d.Probe)
	}
	return line
}

// attempt runs one full rebuild: resolve the serving index, open a
// fresh source, pre-flight its schema, build the candidate with the
// serving index's own resolved build configuration (bit-identical
// recipe) and its live drift thresholds, gate it, and — on a promote
// verdict — write the artifact atomically and swap it into the
// registry.
func (c *Controller) attempt(name string) (Result, error) {
	start := time.Now()
	res := Result{Name: name}
	serving, err := c.reg.Lookup(name)
	if err != nil {
		return res, fmt.Errorf("rebuild %q: serving index: %w", name, err)
	}
	src, closeSrc, err := c.source(name)
	if err != nil {
		return res, fmt.Errorf("rebuild %q: %w: source: %v", name, ErrBuild, err)
	}
	if closeSrc != nil {
		defer func() { _ = closeSrc() }()
	}
	candidate, err := BuildCandidate(serving, src)
	if err != nil {
		return res, fmt.Errorf("rebuild %q: %w", name, err)
	}
	// Drift thresholds are runtime policy, not part of the build
	// recipe: the candidate inherits the serving index's live armed
	// set, so a threshold the operator disarmed stays disarmed. (A copy
	// of an armed set always passes validation.)
	_ = candidate.SetDriftThresholds(serving.DriftThresholds())
	dec, err := Evaluate(serving, candidate, c.budgets, nil) // nil probes: the whole serving box
	if err != nil {
		return res, fmt.Errorf("rebuild %q: gate: %w", name, err)
	}
	res.Decision = dec
	if !dec.Promote {
		res.Outcome = OutcomeRefused
		res.Duration = time.Since(start)
		return res, nil
	}
	// Artifact bytes first, then the in-memory swap: a crash between
	// the two restarts into the promoted generation, never a torn or
	// regressed one.
	if info, ok := c.reg.Info(name); ok && info.Path != "" {
		if err := PromoteFile(info.Path, candidate); err != nil {
			return res, fmt.Errorf("rebuild %q: %w", name, err)
		}
		res.Path = info.Path
	}
	if _, err := c.reg.Swap(name, candidate); err != nil {
		return res, fmt.Errorf("rebuild %q: swap: %w", name, err)
	}
	res.Outcome = OutcomePromoted
	res.Duration = time.Since(start)
	return res, nil
}
