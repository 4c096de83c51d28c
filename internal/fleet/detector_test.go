package fleet

import (
	"testing"
	"time"

	"repro/internal/rng"
)

func testClock() (func() time.Time, func(time.Duration)) {
	now := time.Unix(1_700_000_000, 0)
	return func() time.Time { return now }, func(d time.Duration) { now = now.Add(d) }
}

func TestDetectorSuspectsAfterConsecutiveMisses(t *testing.T) {
	now, advance := testClock()
	d := NewDetector(DetectorConfig{SuspectMisses: 3}, rng.New(1))
	if st := d.Observe("r1", false, now()); st != Alive {
		t.Fatalf("one miss -> %v", st)
	}
	// An intervening success resets the streak.
	d.Observe("r1", true, now())
	d.Observe("r1", false, now())
	if st := d.Observe("r1", false, now()); st != Alive {
		t.Fatalf("two misses after reset -> %v", st)
	}
	if st := d.Observe("r1", false, now()); st != Suspect {
		t.Fatalf("three consecutive misses -> %v, want Suspect", st)
	}
	// Counts reflect the state machine.
	d.Observe("r2", true, now())
	if alive, suspect, evicted := d.Counts(); alive != 1 || suspect != 1 || evicted != 0 {
		t.Fatalf("counts = (%d, %d, %d), want (1, 1, 0)", alive, suspect, evicted)
	}
	advance(time.Minute)
	if !d.ShouldProbe("r1", now()) {
		t.Fatal("suspect member not probeable after its backoff")
	}
}

func TestDetectorJitteredExponentialProbingThenEviction(t *testing.T) {
	now, advance := testClock()
	cfg := DetectorConfig{SuspectMisses: 1, ProbeBase: 100 * time.Millisecond, ProbeMax: 10 * time.Second, ProbeLimit: 3}
	d := NewDetector(cfg, rng.New(7))
	d.Observe("r1", false, now()) // -> Suspect, probe scheduled
	if d.State("r1") != Suspect {
		t.Fatal("not suspect after the miss")
	}
	// Immediately after suspicion the first probe is not yet due: the
	// jittered delay is at least base/2.
	if d.ShouldProbe("r1", now()) {
		t.Fatal("probe due instantly; backoff not applied")
	}
	prev := time.Duration(0)
	for probe := 0; probe < cfg.ProbeLimit-1; probe++ {
		// Find when the probe comes due; the gap must grow (exponential
		// schedule, jitter in [0.5, 1.5) around base·2^k keeps successive
		// windows disjoint).
		var waited time.Duration
		for !d.ShouldProbe("r1", now()) {
			advance(10 * time.Millisecond)
			waited += 10 * time.Millisecond
			if waited > time.Minute {
				t.Fatal("probe never came due")
			}
		}
		if probe > 0 && waited <= prev/4 {
			t.Fatalf("probe %d due after %v, not exponentially spaced (prev %v)", probe, waited, prev)
		}
		prev = waited
		if st := d.Observe("r1", false, now()); probe < cfg.ProbeLimit-2 && st != Suspect {
			t.Fatalf("probe %d failed -> %v", probe, st)
		}
	}
	// The final allowed probe failure evicts.
	for !d.ShouldProbe("r1", now()) {
		advance(10 * time.Millisecond)
	}
	if st := d.Observe("r1", false, now()); st != Evicted {
		t.Fatalf("exhausted probes -> %v, want Evicted", st)
	}
	// An evicted member is probed once every ProbeMax, not before, and a
	// reply revives it.
	if d.ShouldProbe("r1", now().Add(cfg.ProbeMax-time.Millisecond)) {
		t.Fatal("evicted member probed before ProbeMax passed")
	}
	advance(cfg.ProbeMax)
	if !d.ShouldProbe("r1", now()) {
		t.Fatal("evicted member not probed once ProbeMax passed")
	}
	if st := d.Observe("r1", false, now()); st != Evicted || d.ShouldProbe("r1", now().Add(cfg.ProbeMax/2)) {
		t.Fatalf("a missed probe of an evicted member -> %v, probed again before ProbeMax", st)
	}
	if st := d.Observe("r1", true, now().Add(cfg.ProbeMax)); st != Alive {
		t.Fatalf("a reply from an evicted member -> %v, want Alive", st)
	}
}

func TestDetectorSuspectRecoversOnSuccess(t *testing.T) {
	now, _ := testClock()
	d := NewDetector(DetectorConfig{SuspectMisses: 1}, rng.New(3))
	d.Observe("r1", false, now())
	if d.State("r1") != Suspect {
		t.Fatal("not suspect")
	}
	if st := d.Observe("r1", true, now()); st != Alive {
		t.Fatalf("successful probe -> %v, want Alive", st)
	}
}

func TestDetectorUnknownMemberIsTrusted(t *testing.T) {
	d := NewDetector(DetectorConfig{}, rng.New(1))
	if d.State("never-seen") != Alive {
		t.Fatal("unknown member distrusted")
	}
}
