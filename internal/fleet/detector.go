package fleet

import (
	"sync"
	"time"

	"repro/internal/rng"
)

// MemberState is the failure detector's verdict on one replica.
type MemberState uint8

const (
	// Alive: heartbeats are landing; route traffic here.
	Alive MemberState = iota
	// Suspect: consecutive heartbeats went unanswered (or the data path's
	// failure rate crossed the NACK-fraction threshold). The member gets no
	// new traffic and is probed on a jittered exponential schedule until it
	// answers or runs out of probes.
	Suspect
	// Evicted: the member exhausted its probes. It stays evicted until a
	// join announcement or a live heartbeat resurrects it.
	Evicted
)

func (s MemberState) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Evicted:
		return "evicted"
	}
	return "unknown"
}

// DetectorConfig tunes the failure detector.
type DetectorConfig struct {
	// SuspectMisses is how many consecutive missed heartbeats turn an Alive
	// member Suspect (default 3).
	SuspectMisses int
	// ProbeBase is the first suspect-probe delay; probe k waits
	// base·2^k·jitter with jitter uniform in [0.5, 1.5), capped at ProbeMax
	// (defaults 250ms / 4s). Jitter keeps a router fleet from synchronizing
	// its probes against a recovering replica.
	ProbeBase time.Duration
	ProbeMax  time.Duration
	// ProbeLimit is how many unanswered suspect probes evict (default 5).
	ProbeLimit int
	// NackWindow and NackFrac tune data-path suspicion: when the trailing
	// NackWindow forward outcomes for a member are at least NackFrac
	// failures, the member turns Suspect without waiting for heartbeats to
	// miss (defaults 16 / 0.5).
	NackWindow int
	NackFrac   float64
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.SuspectMisses <= 0 {
		c.SuspectMisses = 3
	}
	if c.ProbeBase <= 0 {
		c.ProbeBase = 250 * time.Millisecond
	}
	if c.ProbeMax <= 0 {
		c.ProbeMax = 4 * time.Second
	}
	if c.ProbeLimit <= 0 {
		c.ProbeLimit = 5
	}
	if c.NackWindow <= 0 {
		c.NackWindow = 16
	}
	if c.NackFrac <= 0 || c.NackFrac > 1 {
		c.NackFrac = 0.5
	}
	return c
}

// memberHealth is the detector's per-replica state machine.
type memberHealth struct {
	state     MemberState
	misses    int       // consecutive missed heartbeats while Alive
	probes    int       // unanswered probes while Suspect
	nextProbe time.Time // earliest next suspect probe
	window    []bool    // trailing forward outcomes (true = failed)
	widx      int
	wfill     int
	wfails    int
}

// Detector is the fleet's failure detector: a per-member
// Alive→Suspect→Evicted state machine fed by heartbeat outcomes and
// data-path forward results. All decisions take the caller's clock, so
// tests drive it deterministically with a fake time.
type Detector struct {
	cfg DetectorConfig

	mu  sync.Mutex
	src *rng.Source
	m   map[string]*memberHealth
}

func NewDetector(cfg DetectorConfig, src *rng.Source) *Detector {
	if src == nil {
		src = rng.New(1)
	}
	return &Detector{cfg: cfg.withDefaults(), src: src, m: make(map[string]*memberHealth)}
}

func (d *Detector) member(name string) *memberHealth {
	h := d.m[name]
	if h == nil {
		h = &memberHealth{window: make([]bool, d.cfg.NackWindow)}
		d.m[name] = h
	}
	return h
}

// Observe records one heartbeat outcome at time now and returns the
// member's state after the transition. A success from any state — including
// Evicted — restores Alive: the member is answering, so it is back.
func (d *Detector) Observe(name string, ok bool, now time.Time) MemberState {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := d.member(name)
	if ok {
		h.state = Alive
		h.misses, h.probes = 0, 0
		h.resetWindow()
		return Alive
	}
	switch h.state {
	case Alive:
		h.misses++
		if h.misses >= d.cfg.SuspectMisses {
			d.suspect(h, now)
		}
	case Suspect:
		h.probes++
		if h.probes >= d.cfg.ProbeLimit {
			h.state = Evicted
		} else {
			h.scheduleProbe(d.cfg, d.src, now)
		}
	}
	return h.state
}

// suspect transitions a member into Suspect and schedules its first probe.
func (d *Detector) suspect(h *memberHealth, now time.Time) {
	h.state = Suspect
	h.probes = 0
	h.scheduleProbe(d.cfg, d.src, now)
}

func (h *memberHealth) scheduleProbe(cfg DetectorConfig, src *rng.Source, now time.Time) {
	delay := time.Duration(float64(cfg.ProbeBase) * float64(int(1)<<h.probes) * (0.5 + src.Float64()))
	if delay > cfg.ProbeMax {
		delay = cfg.ProbeMax
	}
	h.nextProbe = now.Add(delay)
}

func (h *memberHealth) resetWindow() {
	for i := range h.window {
		h.window[i] = false
	}
	h.widx, h.wfill, h.wfails = 0, 0, 0
}

// ReportForward records one data-path forward outcome (failed = timeout or
// degraded NACK). A full window at or above the NACK fraction turns an
// Alive member Suspect without waiting for heartbeats to miss — the data
// path sees trouble seconds before the next liveness tick does. Returns the
// state after the report.
func (d *Detector) ReportForward(name string, failed bool, now time.Time) MemberState {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := d.member(name)
	if h.wfill == len(h.window) && h.window[h.widx] {
		h.wfails--
	}
	h.window[h.widx] = failed
	if failed {
		h.wfails++
	}
	h.widx = (h.widx + 1) % len(h.window)
	if h.wfill < len(h.window) {
		h.wfill++
	}
	if h.state == Alive && h.wfill == len(h.window) &&
		float64(h.wfails) >= d.cfg.NackFrac*float64(len(h.window)) {
		d.suspect(h, now)
		h.resetWindow()
	}
	return h.state
}

// ShouldProbe reports whether a Suspect member's next jittered probe is
// due. Alive members are always probed (the regular heartbeat cadence);
// Evicted members never are.
func (d *Detector) ShouldProbe(name string, now time.Time) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := d.member(name)
	switch h.state {
	case Alive:
		return true
	case Suspect:
		return !now.Before(h.nextProbe)
	}
	return false
}

// State returns the member's current verdict (Alive for an unknown name —
// a member starts trusted until evidence says otherwise).
func (d *Detector) State(name string) MemberState {
	d.mu.Lock()
	defer d.mu.Unlock()
	if h, ok := d.m[name]; ok {
		return h.state
	}
	return Alive
}

// Evict forces a member into the Evicted state (the publication path calls
// this when a replica dies mid-transfer, without waiting for heartbeats to
// reach the same verdict) and returns the state it replaced.
func (d *Detector) Evict(name string) (prev MemberState) {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := d.member(name)
	prev, h.state = h.state, Evicted
	return prev
}

// Revive restores a member to Alive (a join announcement: the replica is
// provably talking) and returns the state it replaced.
func (d *Detector) Revive(name string) (prev MemberState) {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := d.member(name)
	prev, h.state = h.state, Alive
	h.misses, h.probes = 0, 0
	h.resetWindow()
	return prev
}

// Counts returns how many known members sit in each state.
func (d *Detector) Counts() (alive, suspect, evicted int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, h := range d.m {
		switch h.state {
		case Alive:
			alive++
		case Suspect:
			suspect++
		case Evicted:
			evicted++
		}
	}
	return
}
