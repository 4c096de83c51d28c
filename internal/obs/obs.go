// Package obs is MetaAI's observability layer: deterministic, dependency-free
// counters, gauges, and fixed-bucket latency histograms with snapshot and
// export (aligned text, JSON, expvar). Every layer of the air stack — the
// mts solver, ota/parallel sessions, the fault injector, the mobility
// monitor, the core pipeline, and the serve binary — registers its metrics
// here; the serve sidecar and metaai-bench expose them.
//
// Two invariants shape the design:
//
//   - Instrumentation never touches randomness. No metric draws from an
//     rng.Source, so enabling or disabling observability leaves every
//     accumulator, logit, and experiment row bit-identical (the zero-rate
//     fault-identity gate and the determinism tests keep passing with
//     metrics on).
//   - The disabled path is allocation-free. Counters and gauges are single
//     atomic operations. Wall-clock timing is gated behind an Enabled flag:
//     StartTimer returns the zero Timer without calling time.Now when
//     disabled, and observing a zero Timer is a no-op — so a run that never
//     enables obs pays no timer allocations and takes no timestamps.
//
// Determinism: under a fixed seed, every counter value, every gauge driven
// by simulation state, and every histogram observation COUNT is a pure
// function of the workload. Only histogram sums and bucket placements
// depend on wall-clock time. Snapshot.Fingerprint returns exactly the
// deterministic subset, which is what the CI determinism gate compares
// across two seeded runs.
package obs

import (
	"expvar"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates the wall-clock side of instrumentation (timers). Counters
// and gauges are so cheap they stay unconditionally live.
var enabled atomic.Bool

// Enabled reports whether wall-clock instrumentation is armed.
func Enabled() bool { return enabled.Load() }

// SetEnabled arms (or disarms) wall-clock instrumentation. Counters and
// gauges record regardless; timers and their histogram observations only
// fire while enabled.
func SetEnabled(on bool) { enabled.Store(on) }

// Counter is a monotonically increasing atomic count. The zero value is
// ready to use; a nil Counter ignores all operations.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically updated float64 level. The zero value is ready to
// use; a nil Gauge ignores all operations.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add moves the gauge by delta (lock-free CAS loop).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefaultLatencyBuckets are the fixed histogram bounds (seconds) used when
// a histogram is registered without explicit bounds: 1 µs to 10 s on a
// 1-2.5-5 grid — wide enough for a solver call and a full serve round trip.
var DefaultLatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket distribution: len(bounds)+1 atomic bucket
// counts (the last bucket is the +Inf overflow), a total count, and a sum.
// Buckets are fixed at registration, so observation is lock- and
// allocation-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value (seconds for latency histograms). Unlike
// timers, a direct Observe always records — the caller already has the
// value, so there is no wall-clock read to gate.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Timer is a wall-clock measurement token. The zero Timer (returned by
// StartTimer while obs is disabled) observes nothing.
type Timer struct {
	start time.Time
}

// StartTimer returns a running timer when obs is enabled and the zero Timer
// otherwise — the disabled path never calls time.Now.
func StartTimer() Timer {
	if !enabled.Load() {
		return Timer{}
	}
	return Timer{start: time.Now()}
}

// ObserveInto records the elapsed seconds into h. A zero Timer or nil
// histogram is a no-op.
func (t Timer) ObserveInto(h *Histogram) {
	if t.start.IsZero() || h == nil {
		return
	}
	h.Observe(time.Since(t.start).Seconds())
}

// Registry holds named metrics. Registration memoizes by name, so any
// package may re-request a handle; instrumented code holds the returned
// pointers and never pays a map lookup on the hot path.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

var def = NewRegistry()

// Default returns the process-wide registry every instrumented package
// registers into.
func Default() *Registry { return def }

// Counter returns the registry's counter with the given name, creating it
// on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the registry's gauge with the given name, creating it on
// first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the registry's histogram with the given name, creating
// it with the given bucket bounds (nil means DefaultLatencyBuckets) on
// first use. Bounds are fixed at creation; later calls ignore them.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every registered metric in place: handles held by
// instrumented packages stay valid. Tests use it to isolate runs.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.count.Store(0)
		h.sum.Store(0)
	}
}

// NewCounter registers (or fetches) a counter in the default registry.
func NewCounter(name string) *Counter { return def.Counter(name) }

// NewGauge registers (or fetches) a gauge in the default registry.
func NewGauge(name string) *Gauge { return def.Gauge(name) }

// NewLatencyHistogram registers (or fetches) a DefaultLatencyBuckets
// histogram in the default registry.
func NewLatencyHistogram(name string) *Histogram { return def.Histogram(name, nil) }

var expvarOnce sync.Once

// PublishExpvar publishes the default registry as an expvar variable named
// "metaai" (a JSON snapshot per scrape of /debug/vars). Safe to call more
// than once; only the first call registers.
func PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("metaai", expvar.Func(func() interface{} {
			return Default().Snapshot()
		}))
	})
}
