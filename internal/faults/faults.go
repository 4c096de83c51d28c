// Package faults is MetaAI's fault-injection and degraded-mode layer. The
// ota engine models real-world impairments statistically — Gaussian noise,
// phase jitter, Gamma-distributed sync error — but a production air service
// also meets DISCRETE faults: a PIN diode dies and latches its meta-atom in
// one phase state, a shift-register row misses a latch edge, a deep fade
// erases a symbol, a rogue transmitter opens an interference burst, a
// passing body collapses the channel's coherence. This package wraps the
// immutable ota/parallel deployments and their per-worker sessions with a
// deterministic, seed-driven repertoire of exactly those processes, plus
// the recovery action a self-healing service takes: a masked-atom re-solve
// that rebuilds the schedule around the diagnosed stuck atoms.
//
// Two invariants shape the design:
//
//   - Zero is free: an injector whose Rates are all zero yields sessions
//     whose accumulators are bit-identical to unfaulted ones. Fault
//     processes draw only from the injector's own random streams, never
//     from the session's, and the zero-rate hook perturbs nothing.
//   - Determinism: every fault — which atoms stick, where a burst lands —
//     is a pure function of the injector's seed and the call sequence, so
//     any degraded scenario replays exactly.
//
// Static faults (stuck atoms) are applied at the deployment level, by
// re-evaluating the realized responses the defective surface actually
// plays; dynamic faults ride a per-session ota.FaultHook. Heal re-solves
// the schedule with the stuck atoms pinned (mts.Solver.SolveMasked) and
// returns a fresh deployment to swap in behind an atomic pointer — the
// serving stack loses no in-flight request.
package faults

import (
	"fmt"
	"math"

	"repro/internal/cplx"
	"repro/internal/mts"
	"repro/internal/obs/events"
	"repro/internal/obs/trace"
	"repro/internal/ota"
	"repro/internal/rng"
)

// Rates configures the fault processes. The zero value injects nothing and
// is bit-identical to the unfaulted path.
type Rates struct {
	// StuckAtomFrac is the fraction of meta-atoms latched in a random phase
	// state (static hardware defect, drawn once per injector).
	StuckAtomFrac float64
	// RowGlitchProb is the per-symbol probability that one shift-register
	// row misses its latch edge and keeps the previous symbol's states for
	// this reconfiguration.
	RowGlitchProb float64
	// ErasureProb is the per-symbol probability the data symbol is lost
	// entirely (deep per-symbol fade or a dropped chip).
	ErasureProb float64
	// BurstProb is the per-transmission probability that a burst
	// interference window opens somewhere in the symbol stream.
	BurstProb float64
	// BurstLenFrac is the burst window length as a fraction of U
	// (default 1/8).
	BurstLenFrac float64
	// BurstPower is the interference amplitude relative to the schedule's
	// RMS response (default 2: each burst sample carries 4× the mean
	// per-symbol signal power).
	BurstPower float64
	// KCollapseProb is the per-transmission probability that the channel's
	// coherence transiently collapses — the Rician K-factor drops toward
	// zero and the quasi-static response decorrelates symbol to symbol.
	KCollapseProb float64
	// KCollapseVar is the per-symbol multiplicative scatter variance during
	// a collapse (default 1).
	KCollapseVar float64
}

// Zero reports whether the configuration injects nothing.
func (r Rates) Zero() bool {
	return r.StuckAtomFrac == 0 && r.RowGlitchProb == 0 && r.ErasureProb == 0 &&
		r.BurstProb == 0 && r.KCollapseProb == 0
}

// withDefaults fills the shape parameters that scale fault severity.
func (r Rates) withDefaults() Rates {
	if r.BurstLenFrac <= 0 {
		r.BurstLenFrac = 1.0 / 8
	}
	if r.BurstPower <= 0 {
		r.BurstPower = 2
	}
	if r.KCollapseVar <= 0 {
		r.KCollapseVar = 1
	}
	return r
}

// Mix returns the canonical mixed fault load at severity rate ∈ [0, 1]:
// stuck atoms dominate (they are the fault the masked re-solve can heal),
// with proportional dynamic fault rates riding along — light enough that
// static damage stays the leading term until rate gets severe, which is
// what makes self-healing worth its cost in the abl-faults sweep. Mix(0)
// is the zero configuration. This is the mix behind metaai-serve's
// -fault-rate flag and the abl-faults experiment.
func Mix(rate float64) Rates {
	if rate <= 0 {
		return Rates{}
	}
	if rate > 1 {
		rate = 1
	}
	return Rates{
		StuckAtomFrac: rate,
		RowGlitchProb: rate / 32,
		ErasureProb:   rate / 32,
		BurstProb:     rate / 16,
		KCollapseProb: rate / 16,
	}
}

// Injector ties one deployment to one drawn fault population. The injector
// owns the stuck-atom diagnosis, derives per-session fault hooks, and
// implements the Heal recovery. Construction and Heal are single-threaded
// (run them from one supervisor goroutine); the sessions an injector hands
// out are as concurrent as plain ota sessions.
type Injector struct {
	rates  Rates
	src    *rng.Source
	orig   *ota.Deployment // the healthy deployment, kept as the heal target
	cur    *ota.Deployment // serving deployment: stuck-faulted, healed after Heal
	stuck  map[int]uint8
	layer  int     // cascade layer the stuck atoms live on (0 = primary)
	sigRMS float64 // healthy RMS |H|, the burst-power reference
	healed bool
	// sabotage, when positive, makes PreviewHeal produce a deliberately
	// regressive candidate (see SabotageHeal) — the test hook for the
	// canary gate and the rollback supervisor.
	sabotage float64
}

// New draws the static fault population for deployment d at the given rates
// and returns the injector. src seeds every fault process; the deployment
// and its sessions never see it. The injector's serving deployment
// (Deployment) carries the stuck-atom damage; with StuckAtomFrac zero it is
// d itself.
func New(d *ota.Deployment, rates Rates, src *rng.Source) (*Injector, error) {
	return NewAtLayer(d, rates, 0, src)
}

// NewAtLayer is New with the static stuck-atom population drawn on cascade
// layer `layer` (0 is the primary surface; a K-layer deployment accepts
// layers 0..K-1). The dynamic fault repertoire is layer-agnostic — bursts,
// erasures, and collapses hit the composed air path — but stuck atoms and
// the masked re-solve that heals them target exactly one surface.
func NewAtLayer(d *ota.Deployment, rates Rates, layer int, src *rng.Source) (*Injector, error) {
	if layer < 0 || layer >= d.Layers() {
		return nil, fmt.Errorf("faults: layer %d of a %d-layer deployment", layer, d.Layers())
	}
	in := &Injector{rates: rates.withDefaults(), src: src, orig: d, cur: d, layer: layer}
	in.sigRMS = matRMS(d.Realized)
	surface := d.LayerSurface(layer)
	in.stuck = drawStuck(surface, rates.StuckAtomFrac, src)
	if len(in.stuck) > 0 {
		realized, err := d.RealizedWithLayerStuck(layer, in.stuck)
		if err != nil {
			return nil, err
		}
		faulted, err := d.WithResponses(realized)
		if err != nil {
			return nil, err
		}
		in.cur = faulted
	}
	faultInjectors.Inc()
	faultStuck.Set(float64(len(in.stuck)))
	faultResidual.Set(in.ResidualError())
	if !rates.Zero() {
		events.Default().Emit(events.FaultInjected, "fault population drawn",
			events.Num("stuck_atoms", float64(len(in.stuck))),
			events.Num("stuck_frac", rates.StuckAtomFrac),
			events.Num("layer", float64(layer)),
			events.Num("residual", in.ResidualError()))
	}
	return in, nil
}

// Layer returns the cascade layer the injector's stuck-atom population
// targets (0 for the primary surface).
func (in *Injector) Layer() int { return in.layer }

// drawStuck picks ⌊frac·M⌋ distinct atoms and latches each in a uniformly
// random phase state.
func drawStuck(s *mts.Surface, frac float64, src *rng.Source) map[int]uint8 {
	n := int(frac * float64(s.Atoms()))
	if frac > 0 && n == 0 {
		n = 1
	}
	stuck := make(map[int]uint8, n)
	states := len(s.States())
	for len(stuck) < n {
		stuck[src.IntN(s.Atoms())] = uint8(src.IntN(states))
	}
	return stuck
}

// overrideStuck returns cfg with the stuck atoms forced to their latched
// states (a copy; the schedule itself is immutable).
func overrideStuck(cfg mts.Config, stuck map[int]uint8) mts.Config {
	out := cfg.Clone()
	for m, st := range stuck {
		out[m] = st
	}
	return out
}

// Rates returns the injector's fault configuration.
func (in *Injector) Rates() Rates { return in.rates }

// Deployment returns the current serving deployment: stuck-atom-faulted at
// construction, re-solved after Heal. Dynamic faults are NOT in it — they
// ride the session hooks.
func (in *Injector) Deployment() *ota.Deployment { return in.cur }

// StuckAtoms returns the injector's stuck-atom diagnosis (atom index →
// latched state). The map is shared; callers must not modify it.
func (in *Injector) StuckAtoms() map[int]uint8 { return in.stuck }

// Healed reports whether Heal has run.
func (in *Injector) Healed() bool { return in.healed }

// Session derives one faulted per-worker session over the current serving
// deployment: src becomes the session's own random stream (exactly as
// ota.Deployment.NewSession) and the dynamic fault processes draw from an
// independent split of the injector's stream.
func (in *Injector) Session(src *rng.Source) *ota.Session {
	return in.SessionFor(in.cur, src)
}

// SessionFor is Session over an explicit deployment — used when the caller
// has already published a swapped deployment and needs hooks wired to it.
func (in *Injector) SessionFor(d *ota.Deployment, src *rng.Source) *ota.Session {
	return d.NewSession(src).SetFaultHook(in.newHook(d))
}

// Sessions derives n independent faulted sessions via deterministic seeded
// splits of src, mirroring ota.Deployment.Sessions.
func (in *Injector) Sessions(n int, src *rng.Source) []*ota.Session {
	if n < 1 {
		n = 1
	}
	out := make([]*ota.Session, n)
	for i := range out {
		out[i] = in.Session(src.Split())
	}
	return out
}

// newHook builds one per-session dynamic-fault hook bound to deployment d.
func (in *Injector) newHook(d *ota.Deployment) *hook {
	return &hook{
		rates:    in.rates,
		src:      in.src.Split(),
		u:        d.InputLen(),
		burstVar: in.rates.BurstPower * in.rates.BurstPower * in.sigRMS * in.sigRMS,
		glitch:   otaGlitch(d),
	}
}

// PreviewHeal computes the heal candidate WITHOUT publishing it: the
// schedule re-solved around the diagnosed stuck atoms (each entry's target
// is the solver-frame response of the original healthy schedule, with the
// stuck atoms pinned at their latched states so the healthy atoms steer to
// compensate). The injector's serving deployment, healed flag, and metrics
// are untouched — this is the canary-validation hook: evaluate the returned
// deployment on a held-out probe batch, then either CommitHeal it or drop
// it. With no stuck atoms and no sabotage armed, the preview is the current
// serving deployment itself.
func (in *Injector) PreviewHeal() (*ota.Deployment, error) {
	return in.PreviewHealSpan(nil)
}

// PreviewHealSpan is PreviewHeal with the masked re-solve traced under
// parent (the supervisor's heal span). A nil parent records nothing; the
// candidate is bit-identical either way, since spans never touch the
// injector's random streams.
func (in *Injector) PreviewHealSpan(parent *trace.Span) (*ota.Deployment, error) {
	if len(in.stuck) == 0 && in.sabotage == 0 {
		return in.cur, nil
	}
	hsp := parent.Child("faults.heal_preview")
	hsp.SetNum("stuck_atoms", float64(len(in.stuck)))
	hsp.SetNum("layer", float64(in.layer))
	hsp.SetNum("sabotage", in.sabotage)
	defer hsp.End()
	// The re-solve targets exactly the faulted layer: its surface, its
	// solver-frame path phases, its schedule. Every other cascade layer is
	// untouched (WithLayerSchedule recomposes the end-to-end responses).
	s := in.orig.LayerSurface(in.layer)
	origSched := in.orig.LayerSchedule(in.layer)
	sched := make([][]mts.Config, in.orig.Classes())
	if len(in.stuck) > 0 {
		ideal, err := mts.NewSurface(s.Rows, s.Cols, s.Bits, s.FreqGHz, nil)
		if err != nil {
			return nil, err
		}
		solver := ideal.NewSolver(in.orig.EstLayerPathPhases(in.layer))
		ssp := mts.StartSolveSpan(hsp, "masked", in.orig.Classes()*in.orig.InputLen())
		for r := range sched {
			sched[r] = make([]mts.Config, in.orig.InputLen())
			for i := range sched[r] {
				target := solver.Response(origSched[r][i])
				cfg, _ := solver.SolveMasked(target, in.stuck)
				sched[r][i] = cfg
			}
		}
		ssp.End()
	} else {
		for r := range sched {
			sched[r] = make([]mts.Config, in.orig.InputLen())
			for i := range sched[r] {
				sched[r][i] = origSched[r][i].Clone()
			}
		}
	}
	if in.sabotage > 0 {
		// Regression-test mode: scramble a severity-fraction of the solved
		// entries into uniformly random configurations. The candidate looks
		// like a heal but serves garbage — exactly what the canary gate and
		// the rollback supervisor exist to catch.
		states := len(s.States())
		ssrc := in.src.Split()
		for r := range sched {
			for i := range sched[r] {
				if ssrc.Float64() < in.sabotage {
					cfg := sched[r][i]
					for a := range cfg {
						cfg[a] = uint8(ssrc.IntN(states))
					}
				}
			}
		}
	}
	if in.layer == 0 {
		return in.orig.WithSchedule(sched)
	}
	return in.orig.WithLayerSchedule(in.layer, sched)
}

// CommitHeal publishes a heal candidate previously obtained from
// PreviewHeal: it becomes the injector's serving deployment and the heal
// metrics advance. Like construction and Heal, commit is single-threaded —
// call it from the supervisor goroutine that owns the injector.
func (in *Injector) CommitHeal(d *ota.Deployment) {
	in.healed = true
	in.cur = d
	faultHeals.Inc()
	faultResidual.Set(in.ResidualError())
}

// Heal is PreviewHeal followed by CommitHeal — the ungated recovery path.
// The healed deployment (also returned) becomes the injector's serving
// deployment; swap it behind an atomic pointer and derive fresh sessions
// via Session/Sessions. Dynamic faults — glitches, erasures, bursts,
// collapses — keep firing: healing restores the static weight structure
// only.
func (in *Injector) Heal() (*ota.Deployment, error) {
	healed, err := in.PreviewHeal()
	if err != nil {
		return nil, err
	}
	in.CommitHeal(healed)
	return healed, nil
}

// SabotageHeal arms a deliberately regressive heal: every subsequent
// PreviewHeal scrambles the given fraction of schedule entries (clamped to
// [0, 1]) into random configurations before returning the candidate. This
// is the fault-injection hook behind the canary/rollback acceptance tests;
// severity 0 disarms it.
func (in *Injector) SabotageHeal(severity float64) {
	in.sabotage = math.Max(0, math.Min(1, severity))
}

// ResidualError quantifies the static damage still in the serving
// deployment: the mean relative distance between its realized responses and
// the healthy ones, normalized by the healthy RMS. Zero for an undamaged
// injector; Heal drives it back down without touching the hardware.
func (in *Injector) ResidualError() float64 {
	if in.cur == in.orig {
		return 0
	}
	var sum float64
	for i, h := range in.cur.Realized.Data {
		d := h - in.orig.Realized.Data[i]
		sum += real(d)*real(d) + imag(d)*imag(d)
	}
	n := float64(len(in.cur.Realized.Data))
	if in.sigRMS == 0 {
		return 0
	}
	return math.Sqrt(sum/n) / in.sigRMS
}

// otaGlitch returns the row-glitch response-delta evaluator for a
// sequential deployment: when a shift-register row misses its latch at
// (r, i), that row's atoms keep symbol i−1's states (wrapping, as the
// schedule replays cyclically), and the delta between the glitched and the
// nominal response is added to the in-flight symbol term. The delta is
// evaluated against the scheduled configurations — a deliberate
// approximation under sync offset and exact-jitter replay, where the
// in-flight response already blends neighbors.
func otaGlitch(d *ota.Deployment) func(r, i int, src *rng.Source) complex128 {
	opts := d.Options()
	surface := opts.Surface
	pp := surface.PathPhases(opts.Geometry)
	u := d.InputLen()
	return func(r, i int, src *rng.Source) complex128 {
		prev := d.Schedule[r][(i-1+u)%u]
		cfg := d.Schedule[r][i].Clone()
		row := src.IntN(surface.Rows)
		for c := 0; c < surface.Cols; c++ {
			a := row*surface.Cols + c
			cfg[a] = prev[a]
		}
		if d.Layers() > 1 {
			// The glitch hits the primary; the composed response scales by
			// the glitched/nominal primary ratio (the relay factors cancel).
			nom := surface.Response(d.Schedule[r][i], pp)
			if nom == 0 {
				return 0
			}
			return d.Realized.At(r, i) * (surface.Response(cfg, pp)/nom - 1)
		}
		return surface.Response(cfg, pp) - d.Realized.At(r, i)
	}
}

func matRMS(m *cplx.Mat) float64 {
	var sum float64
	for _, h := range m.Data {
		sum += real(h)*real(h) + imag(h)*imag(h)
	}
	return math.Sqrt(sum / float64(len(m.Data)))
}
