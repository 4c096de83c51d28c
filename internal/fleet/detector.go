package fleet

import (
	"time"

	"repro/internal/rng"
)

// MemberState is the failure detector's verdict on one replica.
type MemberState uint8

const (
	// Alive: heartbeats are landing; route traffic here.
	Alive MemberState = iota
	// Suspect: consecutive heartbeats went unanswered. Heartbeats alone
	// decide this: a replica's StatusDegraded or StatusRetryAfter NACK only
	// fails that one request over, because a replica that sheds is alive
	// and busy, and suspecting every busy replica at once would leave the
	// router refusing requests they can answer. The member gets no new
	// traffic and is probed on a jittered exponential schedule until it
	// answers or runs out of probes.
	Suspect
	// Evicted: the member exhausted its probes, or a push to it never
	// finished. It is probed once every ProbeMax, and a reply or a join
	// announcement revives it.
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
	return c
}

// memberHealth is the detector's per-replica state machine.
type memberHealth struct {
	state     MemberState
	misses    int       // consecutive missed heartbeats while Alive
	probes    int       // unanswered probes while Suspect
	nextProbe time.Time // earliest next probe while Suspect or Evicted
}

// Detector is the fleet's failure detector: a per-member
// Alive→Suspect→Evicted state machine fed by heartbeat outcomes. All
// decisions take the caller's clock, so tests drive it deterministically
// with a fake time. It is not goroutine-safe: the router's core
// serializes access.
type Detector struct {
	cfg DetectorConfig
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
		h = &memberHealth{}
		d.m[name] = h
	}
	return h
}

// Observe records one heartbeat outcome at time now and returns the
// member's state after the transition. A success from any state — including
// Evicted — restores Alive: the member is answering, so it is back.
func (d *Detector) Observe(name string, ok bool, now time.Time) MemberState {
	h := d.member(name)
	if ok {
		h.state = Alive
		h.misses, h.probes = 0, 0
		return Alive
	}
	switch h.state {
	case Alive:
		h.misses++
		if h.misses >= d.cfg.SuspectMisses {
			h.state = Suspect // probes is 0 while Alive
			h.scheduleProbe(d.cfg, d.src, now)
		}
	case Suspect:
		h.probes++
		if h.probes >= d.cfg.ProbeLimit {
			h.state, h.nextProbe = Evicted, now.Add(d.cfg.ProbeMax)
		} else {
			h.scheduleProbe(d.cfg, d.src, now)
		}
	case Evicted:
		h.nextProbe = now.Add(d.cfg.ProbeMax)
	}
	return h.state
}

func (h *memberHealth) scheduleProbe(cfg DetectorConfig, src *rng.Source, now time.Time) {
	delay := time.Duration(float64(cfg.ProbeBase) * float64(int(1)<<h.probes) * (0.5 + src.Float64()))
	if delay > cfg.ProbeMax {
		delay = cfg.ProbeMax
	}
	h.nextProbe = now.Add(delay)
}

// ShouldProbe reports whether a member's next probe is due. Alive members
// are always probed (the regular heartbeat cadence), Suspect members on
// their jittered exponential schedule, and Evicted members once every
// ProbeMax, so a router that learns of its replicas only from its seed
// list still takes back one that answers again.
func (d *Detector) ShouldProbe(name string, now time.Time) bool {
	h := d.member(name)
	return h.state == Alive || !now.Before(h.nextProbe)
}

// State returns the member's current verdict (Alive for an unknown name —
// a member starts trusted until evidence says otherwise).
func (d *Detector) State(name string) MemberState { return d.member(name).state }

// Evict forces a member into the Evicted state at time now (the
// publication path calls this when a replica dies mid-transfer, without
// waiting for heartbeats to reach the same verdict) and returns the state
// it replaced.
func (d *Detector) Evict(name string, now time.Time) (prev MemberState) {
	h := d.member(name)
	prev, h.state, h.nextProbe = h.state, Evicted, now.Add(d.cfg.ProbeMax)
	return prev
}

// Revive restores a member to Alive (a join announcement: the replica is
// provably talking) and returns the state it replaced.
func (d *Detector) Revive(name string) (prev MemberState) {
	h := d.member(name)
	prev, h.state = h.state, Alive
	h.misses, h.probes = 0, 0
	return prev
}

// Counts returns how many known members sit in each state.
func (d *Detector) Counts() (alive, suspect, evicted int) {
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
