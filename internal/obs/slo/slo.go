// Package slo tracks multi-window error-budget burn rates over a stream of
// good/bad request outcomes — the Google-SRE-style alerting signal the
// fleet uses to suspect silently-slow replicas before they fail
// heartbeats.
//
// An objective of 0.99 leaves a 1% error budget. A burn rate of 1 means
// the budget is being consumed exactly as fast as it accrues; a burn rate
// of B means B times faster. The tracker keeps two bounded windows — a
// fast one (reacts in tens of requests) and a slow one (filters blips) —
// and only reports unhealthy when BOTH burn past the threshold, the
// classic multi-window guard against paging on a single lost packet.
//
// The tracker is a pure function of its Observe sequence: no wall clock,
// no rng, so a test replays any outcome sequence deterministically. The
// fleet router feeds it live forward outcomes, one tracker per replica plus
// one fleet-wide.
package slo

import "sync"

// Config parameterizes a Tracker. The zero value is usable: every field
// falls back to the default noted on it.
type Config struct {
	// Objective is the target good fraction (e.g. 0.99 → 1% error budget).
	// Default 0.99. Values outside (0, 1) fall back to the default.
	Objective float64
	// FastWindow and SlowWindow are the two window lengths in observations.
	// Defaults 32 and 256.
	FastWindow, SlowWindow int
	// MaxBurn is the burn-rate threshold at which Healthy turns false
	// (both windows must exceed it). Default 2.
	MaxBurn float64
}

func (c Config) withDefaults() Config {
	if c.Objective <= 0 || c.Objective >= 1 {
		c.Objective = 0.99
	}
	if c.FastWindow <= 0 {
		c.FastWindow = 32
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = 256
	}
	if c.SlowWindow < c.FastWindow {
		c.SlowWindow = c.FastWindow
	}
	if c.MaxBurn <= 0 {
		c.MaxBurn = 2
	}
	return c
}

// window is a fixed-size ring of outcomes with a running failure count, so
// burn-rate reads are O(1).
type window struct {
	ring  []bool // true = bad
	idx   int
	fill  int
	fails int
}

func (w *window) observe(bad bool) {
	if w.fill == len(w.ring) {
		if w.ring[w.idx] {
			w.fails--
		}
	} else {
		w.fill++
	}
	w.ring[w.idx] = bad
	if bad {
		w.fails++
	}
	w.idx = (w.idx + 1) % len(w.ring)
}

func (w *window) badFrac() float64 {
	if w.fill == 0 {
		return 0
	}
	return float64(w.fails) / float64(w.fill)
}

// Tracker measures error-budget burn over two windows. The zero Tracker is
// not usable; build one with New. All methods are safe for concurrent use;
// none are on the serving hot path.
type Tracker struct {
	cfg  Config
	mu   sync.Mutex
	fast window
	slow window
}

// New builds a Tracker with c (zero fields defaulted).
func New(c Config) *Tracker {
	c = c.withDefaults()
	return &Tracker{
		cfg:  c,
		fast: window{ring: make([]bool, c.FastWindow)},
		slow: window{ring: make([]bool, c.SlowWindow)},
	}
}

// Observe records one request outcome in both windows. A nil Tracker is a
// no-op, so call sites need no enabled check.
func (t *Tracker) Observe(good bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.fast.observe(!good)
	t.slow.observe(!good)
	t.mu.Unlock()
}

// BurnRate returns the error-budget burn rate over the fast and slow
// windows: bad-fraction divided by the error budget (1 − objective). 1.0
// means the budget is burning exactly at its sustainable rate. A nil or
// empty tracker reports 0, 0.
func (t *Tracker) BurnRate() (fast, slow float64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	budget := 1 - t.cfg.Objective
	return t.fast.badFrac() / budget, t.slow.badFrac() / budget
}

// Healthy reports whether the tracked stream is inside its SLO: it turns
// false only when the fast window is full AND both windows burn at or past
// MaxBurn. Requiring window fill keeps a cold tracker (or one observation
// after a reset) from suspecting anyone.
func (t *Tracker) Healthy() bool {
	if t == nil {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fast.fill < len(t.fast.ring) {
		return true
	}
	budget := 1 - t.cfg.Objective
	return t.fast.badFrac()/budget < t.cfg.MaxBurn || t.slow.badFrac()/budget < t.cfg.MaxBurn
}

// HealthScore compresses the worst-window burn rate into (0, 1]: 1 means
// no budget burning, 0.5 means burning at exactly the sustainable rate,
// and scores shrink toward 0 as the burn grows. Routers export it
// per-replica so operators can rank a fleet at a glance.
func (t *Tracker) HealthScore() float64 {
	fast, slow := t.BurnRate()
	worst := fast
	if slow > worst {
		worst = slow
	}
	return 1 / (1 + worst)
}

// Reset forgets every observation — used when a replica rejoins after
// eviction so its old bad streak cannot re-suspect the fresh incarnation.
func (t *Tracker) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fast = window{ring: make([]bool, t.cfg.FastWindow)}
	t.slow = window{ring: make([]bool, t.cfg.SlowWindow)}
}
