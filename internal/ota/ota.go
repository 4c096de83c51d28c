// Package ota is MetaAI's over-the-air computing engine: it deploys a
// digitally trained complex LNN onto a programmable metasurface and then
// simulates inference as physical transmission, per Eqn 3 of the paper:
//
//	y_r = | Σ_i H_r(t_i) · x_i |
//
// Deployment (§3.2) maps every desired weight H_des[r][i] to a discrete
// metasurface configuration via the Eqn 7 solver; transmission plays the
// per-symbol schedule against the sequentially transmitted symbols while
// the environment contributes multipath, noise, hardware phase jitter, and
// clock misalignment. The within-symbol multi-sampling scheme of §3.2
// (zero-mean chips + synchronized MTS sign flips) cancels environmental
// multipath without channel estimation.
//
// The engine is split along the mutability boundary:
//
//   - Deployment holds everything Deploy computes — the solved MTS
//     schedules, realized responses, channel/geometry parameters, and
//     derived noise statistics. After Deploy it is read-only and may be
//     shared freely across goroutines.
//   - Session owns all runtime stochastic state (noise and fading draws,
//     sync-offset sampling, jitter replay). Sessions are cheap; create one
//     per worker via Deployment.NewSession or Deployment.Sessions.
//   - System couples one Deployment with one bound default Session,
//     preserving the original single-threaded API: a 1-session run
//     reproduces the pre-split numbers exactly.
package ota

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/channel"
	"repro/internal/cplx"
	"repro/internal/mts"
	"repro/internal/obs/trace"
	"repro/internal/rng"
)

// Options configures a deployment. NewOptions supplies the paper's §4
// defaults.
type Options struct {
	// Surface is the programmable metasurface realizing the weights.
	Surface *mts.Surface
	// Geometry fixes Tx/MTS/Rx placement.
	Geometry mts.Geometry
	// Controller models the MTS control plane and validates the schedule's
	// switching rate.
	Controller mts.Controller
	// Channel describes the propagation environment.
	Channel channel.Params
	// SubSamples is the within-symbol multi-sampling count for multipath
	// cancellation (even, ≥2); 0 disables the scheme (single sample per
	// symbol, environment leaks into the accumulation).
	SubSamples int
	// TargetScale positions the largest desired weight at this fraction of
	// the maximum achievable array factor; interior targets quantize better
	// (Fig 6).
	TargetScale float64
	// BeamScanStepDeg, when positive, makes deployment estimate the receiver
	// angle by beam scanning at this resolution instead of assuming perfect
	// knowledge; the residual error degrades the prototype (§3.2).
	BeamScanStepDeg float64
	// JitterStd is the per-reconfiguration per-atom phase noise (radians) —
	// the dynamic part of the hardware noise N_d of Eqn 13.
	JitterStd float64
	// SymbolRateHz is the transmitter's symbol rate (§4: 1 Msym/s).
	SymbolRateHz float64
	// SyncSampler draws the clock offset, in symbols, between the data
	// stream and the weight schedule for one transmission (§3.5.1). Nil
	// means perfect synchronization. The sampler must be a pure function of
	// its source argument: concurrent sessions call it with their own
	// independent sources.
	SyncSampler func(src *rng.Source) float64
	// ExactJitter evaluates per-atom phase jitter atom by atom at every
	// reconfiguration instead of using the engine's closed-form
	// approximation (mean attenuation e^{−σ²/2} plus complex scatter of
	// variance M·(1−e^{−σ²})). Exact evaluation costs M trig calls per
	// symbol per output; the abl-jitter experiment confirms the two agree.
	ExactJitter bool
	// CompensateEnv selects the Eqn 8 alternative to zero-mean cancellation:
	// deployment estimates the static environmental response H_e (a
	// calibration pass with the metasurface disabled) and solves the
	// schedule for H_des − H_e, so the total channel realizes H_des. It
	// requires SubSamples == 0 (the two schemes are alternatives) and — as
	// the paper warns — only works while the environment stays static.
	CompensateEnv bool
	// Stack lists the extra metasurface layers the signal traverses after
	// the primary surface — a stacked-intelligent-metasurface cascade whose
	// end-to-end channel is the product of the per-layer responses. Empty
	// means the paper's single-surface system, and every code path is then
	// bit-identical to it (the K=1 compatibility contract; see DESIGN.md
	// "Stacked cascades").
	Stack []CascadeLayer
	// LayerPower gives the per-layer drive amplitudes p_k, primary first
	// (len 1+len(Stack)); nil means uniform unit drive. Raising a hop's
	// amplitude buys back the hop's noise contribution (see HopNoise);
	// power.AllocateLayers computes the optimal split under a budget.
	LayerPower []float64
	// HopNoise is the per-extra-hop rescatter noise fraction: each extra
	// layer k inflates the receiver-noise variance by HopNoise/p_k², the
	// noise floor a real re-scattering hop adds referred through its drive
	// amplitude. Zero (the default) models ideal lossless relays. Ignored
	// without a Stack.
	HopNoise float64
}

// NewOptions returns the paper's default setup: 16×16 2-bit prototype
// surface at 5.25 GHz, Tx 1 m / 30°, Rx 3 m / 40°, office channel,
// 1 Msym/s, two in-symbol samples (the most the 2.56 MHz controller
// supports), mild hardware jitter, and 1°-resolution beam scanning.
func NewOptions(src *rng.Source) Options {
	return Options{
		Surface:         mts.Prototype(src),
		Geometry:        mts.DefaultGeometry(),
		Controller:      mts.PrototypeController(),
		Channel:         channel.Default(),
		SubSamples:      2,
		TargetScale:     0.6,
		BeamScanStepDeg: 1,
		JitterStd:       0.08,
		SymbolRateHz:    1e6,
	}
}

// IdealOptions returns options with every hardware impairment disabled:
// perfect geometry knowledge, no jitter, no sync error, and a clean
// channel. The deployment still quantizes weights to the discrete surface,
// so it isolates pure quantization loss.
func IdealOptions(surface *mts.Surface) Options {
	ch := channel.Default()
	ch.TxPowerDB = 60 // effectively noiseless
	ch.Env = channel.Corridor
	return Options{
		Surface:      surface,
		Geometry:     mts.DefaultGeometry(),
		Controller:   mts.PrototypeController(),
		Channel:      ch,
		SubSamples:   2,
		TargetScale:  0.6,
		SymbolRateHz: 1e6,
	}
}

// Deployment is a solved over-the-air classifier: the MTS schedules,
// physically realized responses, and every derived statistic one inference
// needs. It carries no random state — after NewDeployment returns it is
// immutable (except for the explicit Recompute recalibration below) and
// safe to share across any number of concurrent Sessions.
type Deployment struct {
	opts Options
	// Schedule holds the per-output, per-symbol configurations.
	Schedule [][]mts.Config
	// Realized holds the physically realized ideal responses
	// H_mts(r, i) — the solver output evaluated against the TRUE path
	// phases (including fabrication offsets and angle-estimation error the
	// solver didn't know about).
	Realized *cplx.Mat
	// Gamma is the desired-weight → array-factor scale factor.
	Gamma float64
	// EstRxAngleDeg is the angle deployment assumed (beam-scanned or exact).
	EstRxAngleDeg float64

	classes, u int
	sigRMS     float64 // RMS |H| over the schedule, the SNR reference
	gainFactor float64 // element-pattern gain relative to nominal geometry
	ch         *channel.Model
	jitterAtt  float64 // e^{-σ²/2}
	jitterVar  float64 // per-response complex variance M·(1-e^{-σ²})
	jitterSD   float64 // sqrt(jitterVar/2), hoisted for the per-symbol sampler
	noise2     float64 // per-sample receiver-noise variance (derived)
	noiseSD    float64 // sqrt(noise2/2), hoisted for the per-symbol sampler

	compensate  bool
	envBase     complex128 // calibrated quasi-static environment (Eqn 8)
	calMTSPhase complex128 // calibrated MTS-path phase (coherent reference)
	envScale    float64    // physical scale of the environment term
	truePP      []float64  // true path phases, kept for exact-jitter replay
	estPP       []float64  // solver-side path phases (ideal surface, estimated geometry)

	// Cascade state (zero/nil for the single-surface system). Realized and
	// Schedule keep their seed meaning — Realized holds the COMPOSED
	// end-to-end responses, Schedule the primary layer's configurations —
	// so sessions consume a cascade through the unchanged hot path.
	power       []float64        // per-layer drive amplitudes, primary first
	layerSched  [][][]mts.Config // extra layers' schedules [k][r][i]
	layerScale  []complex128     // extra layers' composition scales p_k/maxR_k
	layerEstPP  [][]float64      // extra layers' solver-frame path phases
	layerTruePP [][]float64      // extra layers' true path phases
	noiseBoost  float64          // multi-hop receiver-noise inflation (see cascadeNoiseBoost)
}

// NewDeployment solves the MTS schedule realizing the trained weight matrix
// w (classes×U) and returns the immutable deployment. src drives only
// deployment-time randomness (the Eqn 8 calibration pass); runtime
// randomness lives in Sessions.
func NewDeployment(w *cplx.Mat, opts Options, src *rng.Source) (*Deployment, error) {
	return NewDeploymentSpan(w, opts, src, nil)
}

// NewDeploymentSpan is NewDeployment with its schedule solve traced under
// parent (a pipeline-build or heal span). A nil parent — the common
// untraced path — records nothing and costs nothing; either way the solve
// itself is bit-identical, since spans never touch src.
func NewDeploymentSpan(w *cplx.Mat, opts Options, src *rng.Source, parent *trace.Span) (*Deployment, error) {
	if len(opts.Stack) > 0 {
		// Stacked cascade: the joint layer-wise solve lives in cascade.go.
		// The single-surface path below is untouched by the dispatch, which
		// is what makes K=1 provably bit-identical to the seed system.
		return newCascadeDeploymentSpan(w, opts, src, parent)
	}
	if opts.Surface == nil {
		return nil, fmt.Errorf("ota: Deploy requires a surface")
	}
	if opts.TargetScale <= 0 || opts.TargetScale > 1 {
		return nil, fmt.Errorf("ota: TargetScale %v out of (0, 1]", opts.TargetScale)
	}
	if opts.SubSamples < 0 || opts.SubSamples%2 == 1 {
		return nil, fmt.Errorf("ota: SubSamples %d must be 0 or a positive even count", opts.SubSamples)
	}
	if opts.SymbolRateHz <= 0 {
		opts.SymbolRateHz = 1e6
	}
	switches := 1
	if opts.SubSamples > 0 {
		switches = opts.SubSamples
	}
	if err := opts.Controller.ValidateSchedule(opts.Surface.Atoms(), opts.SymbolRateHz, switches); err != nil {
		return nil, err
	}
	if opts.CompensateEnv && opts.SubSamples > 0 {
		return nil, fmt.Errorf("ota: CompensateEnv (Eqn 8) and multipath cancellation (SubSamples > 0) are alternative schemes; enable one")
	}

	// Deployment-side geometry knowledge: the Tx-MTS placement is fixed and
	// known; the Rx angle is beam-scanned when a scan step is configured.
	// The solver also has no access to per-atom fabrication offsets.
	estGeom := opts.Geometry
	if opts.BeamScanStepDeg > 0 {
		ideal, err := mts.NewSurface(opts.Surface.Rows, opts.Surface.Cols, opts.Surface.Bits, opts.Surface.FreqGHz, nil)
		if err != nil {
			return nil, err
		}
		estGeom.RxAngleDeg = ideal.BeamScan(opts.Geometry, opts.BeamScanStepDeg)
	}
	idealSurface, err := mts.NewSurface(opts.Surface.Rows, opts.Surface.Cols, opts.Surface.Bits, opts.Surface.FreqGHz, nil)
	if err != nil {
		return nil, err
	}
	estPP := idealSurface.PathPhases(estGeom)
	truePP := opts.Surface.PathPhases(opts.Geometry)

	maxR := idealSurface.MaxResponse(estPP)
	maxW := w.MaxAbs()
	if maxW == 0 {
		return nil, fmt.Errorf("ota: weight matrix is all zeros")
	}
	gamma := opts.TargetScale * maxR / maxW

	d := &Deployment{
		opts:          opts,
		Schedule:      make([][]mts.Config, w.Rows),
		Realized:      cplx.NewMat(w.Rows, w.Cols),
		Gamma:         gamma,
		EstRxAngleDeg: estGeom.RxAngleDeg,
		classes:       w.Rows,
		u:             w.Cols,
		ch:            channel.New(opts.Channel),
	}
	// Eqn 8 calibration: estimate the quasi-static environment once (the
	// paper's "disable the metasurface to estimate H_e" pass) and shift
	// every solver target by it. The environment's physical scale is
	// predicted from the weight scaling, since the realized responses do
	// not exist yet.
	// The solver target for weight W is (γW − H_e)/e^{jφ_mts}: the realized
	// response rides the MTS path's calibrated phase, so the correction is
	// applied in the MTS path's own frame.
	compCorrect := func(target complex128) complex128 { return target }
	if opts.CompensateEnv {
		var rms float64
		for _, v := range w.Data {
			rms += real(v)*real(v) + imag(v)*imag(v)
		}
		rms = math.Sqrt(rms / float64(len(w.Data)))
		d.envScale = gamma * rms
		cal := d.ch.NewRealization(src.Split())
		d.envBase = cal.Base()
		d.calMTSPhase = cal.MTSPhase()
		d.compensate = true
		envPhys := d.envBase * complex(d.envScale, 0)
		inv := cmplx.Conj(d.calMTSPhase) // unit modulus: conj == inverse
		compCorrect = func(target complex128) complex128 {
			return (target - envPhys) * inv
		}
	}
	// One table per path set: the solver frame's estimated phases, and the
	// true phases the physically realized responses are evaluated at.
	solver := idealSurface.NewSolver(estPP)
	truth := opts.Surface.NewSolver(truePP)
	ssp := mts.StartSolveSpan(parent, "schedule", w.Rows*w.Cols)
	ssp.SetNum("classes", float64(w.Rows))
	ssp.SetNum("u", float64(w.Cols))
	ssp.SetNum("gamma", gamma)
	targets := make([]complex128, len(w.Data))
	for i, v := range w.Data {
		targets[i] = compCorrect(v * complex(gamma, 0))
	}
	cfgs := solver.SolveAll(targets)
	var sumSq float64
	for r := 0; r < w.Rows; r++ {
		d.Schedule[r] = cfgs[r*w.Cols : (r+1)*w.Cols]
		for c, cfg := range d.Schedule[r] {
			// The physically realized response uses the true phases.
			h := truth.Response(cfg)
			d.Realized.Set(r, c, h)
			sumSq += real(h)*real(h) + imag(h)*imag(h)
		}
	}
	ssp.End()
	d.sigRMS = math.Sqrt(sumSq / float64(len(d.Realized.Data)))
	d.truePP = truePP
	d.estPP = estPP
	if !d.compensate {
		d.envScale = d.sigRMS
	}
	d.refreshDerived(opts.Geometry)
	// Jitter statistics: a per-atom phase error ε~N(0,σ²) attenuates the
	// mean response by e^{-σ²/2} and adds a complex scatter of variance
	// M·(1−e^{-σ²}) (independent atoms).
	d.setJitterMoments()
	return d, nil
}

// refreshDerived recomputes the geometry- and schedule-dependent statistics:
// the element-pattern gain at the actual Tx/Rx angles relative to the
// nominal default geometry (the SNR reference point), and the per-sample
// receiver-noise variance used by every session.
func (d *Deployment) refreshDerived(geom mts.Geometry) {
	nom := mts.DefaultGeometry()
	nomGain := mts.ElementGain(nom.TxAngleDeg) * mts.ElementGain(nom.RxAngleDeg)
	g := mts.ElementGain(geom.TxAngleDeg) * mts.ElementGain(geom.RxAngleDeg)
	d.gainFactor = g / nomGain
	// The channel's SNR is anchored at the 256-atom prototype aperture;
	// a smaller array collects quadratically less energy (array gain ∝ M²),
	// which is why recognition accuracy grows with the atom count until the
	// quantization floor takes over (Fig 7).
	aperture := 256.0 / float64(d.opts.Surface.Atoms())
	noise2 := d.sigRMS * d.sigRMS * d.ch.Params().NoiseSigma2() * aperture * aperture
	// Element-pattern gain scales the MTS-path signal but not the receiver
	// noise floor: express it as an SNR change by dividing noise instead of
	// multiplying every signal term (classification is scale invariant).
	if d.gainFactor > 0 {
		noise2 /= d.gainFactor * d.gainFactor
	} else {
		noise2 = math.Inf(1)
	}
	// Multi-hop cascades inflate the receiver-noise floor (each extra
	// re-scattering layer adds its own, scaled by its drive amplitude). The
	// single-surface path never sets noiseBoost, so its arithmetic here is
	// byte-identical to the seed.
	if d.noiseBoost > 1 {
		noise2 *= d.noiseBoost
	}
	d.noise2 = noise2
	d.noiseSD = math.Sqrt(noise2 / 2)
}

// Classes returns the number of output categories.
func (d *Deployment) Classes() int { return d.classes }

// InputLen returns the expected symbol-vector length U.
func (d *Deployment) InputLen() int { return d.u }

// Options returns the deployment's configuration.
func (d *Deployment) Options() Options { return d.opts }

// QuantizationError returns the mean relative error between the realized
// responses and the scaled desired weights — the pure hardware
// approximation quality (Fig 6).
func (d *Deployment) QuantizationError(w *cplx.Mat) float64 {
	var sum float64
	for i, h := range d.Realized.Data {
		sum += cmplx.Abs(h - w.Data[i]*complex(d.Gamma, 0))
	}
	return sum / (float64(len(d.Realized.Data)) * d.Gamma * w.MaxAbs())
}

// Recompute re-evaluates the physically realized responses of the existing
// schedule under a new true geometry — what happens when the receiver moves
// after deployment (§7, Device Mobility): the schedule still encodes the
// old propagation phases, so the realized weights drift from the desired
// ones until the system recalibrates. It returns the updated Deployment
// (self).
//
// Recompute is the one sanctioned mutation of a Deployment. It is NOT safe
// to call while sessions are running concurrently; quiesce inference first
// (package mobility's Tracker advances time single-threaded), or use
// Recomputed to build a fresh deployment and swap it behind an atomic
// pointer while readers keep using the old one.
func (d *Deployment) Recompute(geom mts.Geometry) *Deployment {
	// Mobility moves the PRIMARY hop's geometry (the receiver); extra
	// cascade layers keep their own placements and stored responses, and the
	// composed end-to-end realized matrix reflects the primary's drift.
	d.truePP = d.opts.Surface.PathPhases(geom)
	d.opts.Geometry = geom
	d.refreshRealizedFromSchedules()
	d.refreshFromRealized()
	return d
}

// Recomputed is the copy-on-write variant of Recompute: the receiver is left
// untouched and a NEW deployment re-evaluated under geom is returned. This
// is the swap-safe recalibration path: publish the result behind an
// atomic.Pointer while any number of concurrent sessions keep reading the
// old deployment, then derive fresh sessions from the new one.
func (d *Deployment) Recomputed(geom mts.Geometry) *Deployment {
	return d.clone().Recompute(geom)
}

// clone returns a deep-enough copy for independent recalibration: the
// realized-response matrix is owned by the copy, while the solved schedule,
// path phases, and channel model — all read-only after deployment — stay
// shared.
func (d *Deployment) clone() *Deployment {
	cp := *d
	cp.Realized = d.Realized.Clone()
	return &cp
}

// refreshFromRealized re-derives every statistic that depends on the
// realized-response matrix (signal RMS, environment scale, noise variance).
func (d *Deployment) refreshFromRealized() {
	var sumSq float64
	for _, h := range d.Realized.Data {
		sumSq += real(h)*real(h) + imag(h)*imag(h)
	}
	d.sigRMS = math.Sqrt(sumSq / float64(len(d.Realized.Data)))
	if !d.compensate {
		d.envScale = d.sigRMS
	}
	d.refreshDerived(d.opts.Geometry)
}

// WithResponses returns a copy of the deployment whose physically realized
// response matrix is replaced by realized (classes×U), with every derived
// statistic refreshed. This is the hook the fault-injection layer uses to
// model hardware defects — stuck meta-atoms change what the surface plays
// without changing what the solver intended, so the schedule stays and only
// the realized responses move.
func (d *Deployment) WithResponses(realized *cplx.Mat) (*Deployment, error) {
	if realized.Rows != d.classes || realized.Cols != d.u {
		return nil, fmt.Errorf("ota: responses %dx%d for a %dx%d deployment", realized.Rows, realized.Cols, d.classes, d.u)
	}
	cp := *d
	cp.Realized = realized
	cp.refreshFromRealized()
	return &cp, nil
}

// WithSchedule returns a copy of the deployment playing a replacement
// schedule (classes×U configurations), its realized responses re-evaluated
// under the deployment's current true geometry. This is the degraded-mode
// re-solve path: heal a faulted deployment by re-solving the schedule
// around known-bad atoms, then publish the result behind an atomic pointer
// with zero disruption to sessions on the old one.
func (d *Deployment) WithSchedule(schedule [][]mts.Config) (*Deployment, error) {
	if len(schedule) != d.classes {
		return nil, fmt.Errorf("ota: schedule has %d outputs, deployment has %d", len(schedule), d.classes)
	}
	for r, row := range schedule {
		if len(row) != d.u {
			return nil, fmt.Errorf("ota: schedule output %d has %d symbols, deployment has %d", r, len(row), d.u)
		}
	}
	cp := *d
	cp.Schedule = schedule
	cp.Realized = cplx.NewMat(d.classes, d.u)
	cp.refreshRealizedFromSchedules()
	cp.refreshFromRealized()
	return &cp, nil
}

// EstPathPhases returns the solver-side per-atom path phases the schedule
// was solved against: the ideal (fabrication-free) surface at the estimated
// receiver angle. Degraded-mode re-solves must target this frame — not the
// true phases, which deployment never observes. The slice is shared; callers
// must not modify it.
func (d *Deployment) EstPathPhases() []float64 { return d.estPP }

// TransmissionsPerInference returns how many sequential replays one
// inference costs without parallelism (§3.3: R transmissions).
func (d *Deployment) TransmissionsPerInference() int { return d.classes }

// AirTime returns the on-air time for one full inference at the configured
// symbol rate (sequential scheme).
func (d *Deployment) AirTime() float64 {
	return float64(d.classes) * float64(d.u) / d.opts.SymbolRateHz
}

// NewSession binds a per-worker inference session to the deployment. The
// session takes ownership of src as its random stream; the caller must not
// draw from src afterwards.
func (d *Deployment) NewSession(src *rng.Source) *Session {
	return &Session{d: d, src: src}
}

// SessionFromSeed is NewSession over a fresh source seeded with seed.
func (d *Deployment) SessionFromSeed(seed uint64) *Session {
	return d.NewSession(rng.New(seed))
}

// Sessions derives n independent sessions via deterministic seeded splits
// of src: session i's stream is a pure function of (src state, i), so a
// fixed seed yields a reproducible worker fleet regardless of how the
// sessions are later interleaved.
func (d *Deployment) Sessions(n int, src *rng.Source) []*Session {
	if n < 1 {
		n = 1
	}
	out := make([]*Session, n)
	for i := range out {
		out[i] = d.NewSession(src.Split())
	}
	return out
}

// System couples a Deployment with one bound default Session, preserving
// the pre-split single-threaded API: Deploy consumes src exactly as the
// original combined implementation did, so a 1-session run reproduces the
// historical numbers bit for bit. For concurrent inference share the
// embedded Deployment across per-worker Sessions instead of calling the
// System's own Predict from several goroutines.
type System struct {
	*Deployment
	sess *Session
}

// Deploy solves the MTS schedule realizing the trained weight matrix w
// (classes×U) and returns a ready System whose default session draws its
// runtime randomness from src.
func Deploy(w *cplx.Mat, opts Options, src *rng.Source) (*System, error) {
	return DeploySpan(w, opts, src, nil)
}

// DeploySpan is Deploy with the schedule solve traced under parent; see
// NewDeploymentSpan.
func DeploySpan(w *cplx.Mat, opts Options, src *rng.Source, parent *trace.Span) (*System, error) {
	d, err := NewDeploymentSpan(w, opts, src, parent)
	if err != nil {
		return nil, err
	}
	return &System{Deployment: d, sess: d.NewSession(src)}, nil
}

// Session returns the system's bound default session.
func (s *System) Session() *Session { return s.sess }

// Sessions derives n independent per-worker sessions by splitting the
// system's bound session source. Deterministic given the deploy seed and
// the call position in the system's usage sequence.
func (s *System) Sessions(n int) []*Session {
	return s.Deployment.Sessions(n, s.sess.src)
}

// Accumulate runs one full over-the-air inference on the default session.
func (s *System) Accumulate(x []complex128) cplx.Vec { return s.sess.Accumulate(x) }

// Logits returns |accumulator| per class — the y_r of Eqn 3.
func (s *System) Logits(x []complex128) []float64 { return s.sess.Logits(x) }

// Predict classifies one encoded input over the air.
func (s *System) Predict(x []complex128) int { return s.sess.Predict(x) }

// Recompute recalibrates the underlying deployment (see
// Deployment.Recompute) and returns the updated System (self).
func (s *System) Recompute(geom mts.Geometry) *System {
	s.Deployment.Recompute(geom)
	return s
}
