// Package core assembles the full MetaAI pipeline of the paper: encode a
// sensor sample into modulated symbols (§2.2), train the complex-valued
// single-layer network digitally (§3.1) — optionally with CDFA's
// synchronization-error injector (§3.5.1) and the system-noise alleviation
// scheme (§3.5.2) — solve the metasurface weight schedules (§3.2), and run
// inference over the simulated wireless channel (Eqn 3).
//
// The package distinguishes the paper's two measurement modes: the
// "simulation" accuracy of the digital model, and the "prototype" accuracy
// of the deployed over-the-air system with every hardware impairment
// enabled (Table 1 reports both).
package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/autodiff"
	"repro/internal/clocksync"
	"repro/internal/dataset"
	"repro/internal/modem"
	"repro/internal/nn"
	"repro/internal/noisetrain"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/ota"
	"repro/internal/rng"
)

// Pipeline metrics: per-stage wall-clock timings (Train = digital training,
// Deploy = MTS schedule solving, Infer = one end-to-end over-the-air
// classification) recorded only while obs is enabled, plus a build counter.
var (
	pipeBuilds        = obs.NewCounter("pipeline.builds")
	pipeTrainSeconds  = obs.NewLatencyHistogram("pipeline.train.seconds")
	pipeDeploySeconds = obs.NewLatencyHistogram("pipeline.deploy.seconds")
	pipeInferSeconds  = obs.NewLatencyHistogram("pipeline.infer.seconds")
)

// SyncMode selects the clock-synchronization configuration (§3.5.1).
type SyncMode int

const (
	// SyncPerfect assumes a shared clock (the idealized upper bound).
	SyncPerfect SyncMode = iota
	// SyncNone plays the schedule from a random position — Fig 16's
	// "without sync scheme" baseline.
	SyncNone
	// SyncCoarse uses only the envelope detector: Gamma-distributed
	// residual offsets, plainly trained weights.
	SyncCoarse
	// SyncCDFA uses the detector plus the fine-grained-adjustment training
	// injector — the full scheme.
	SyncCDFA
)

// String names the mode as in Fig 16.
func (m SyncMode) String() string {
	switch m {
	case SyncPerfect:
		return "perfect"
	case SyncNone:
		return "none"
	case SyncCoarse:
		return "CD"
	case SyncCDFA:
		return "CDFA"
	}
	return fmt.Sprintf("SyncMode(%d)", int(m))
}

// Config assembles one end-to-end MetaAI run.
type Config struct {
	// Dataset names one of the Table 1 tasks (dataset.Names()). Ignored by
	// NewFromSets.
	Dataset string
	// Scale selects Quick or Full data sizes.
	Scale dataset.Scale
	// Scheme is the modulation (§4 default: 256-QAM).
	Scheme modem.Scheme
	// Train carries the §4 recipe; zero values use the paper's defaults.
	Train nn.TrainConfig
	// Air configures the physical deployment. A zero Surface means
	// ota.NewOptions defaults.
	Air ota.Options
	// Sync selects the synchronization configuration.
	Sync SyncMode
	// Detector parameterizes coarse detection; zero value means the Fig 12
	// defaults.
	Detector clocksync.CoarseDetector
	// NoiseAware, when non-nil, trains with the §3.5.2 alleviation scheme.
	NoiseAware *noisetrain.Config
	// Layers deploys a K-layer stacked cascade (0 or 1 means the classic
	// single surface). When Air.Stack is empty, the extra K-1 layers come
	// from ota.DefaultStack with the default per-hop noise; an explicit
	// Air.Stack wins over this count.
	Layers int
	// Seed drives every stochastic component.
	Seed uint64
}

// DefaultConfig returns the paper's default setup for a dataset: 256-QAM,
// office environment, CDFA sync, prototype surface.
func DefaultConfig(datasetName string) Config {
	return Config{
		Dataset: datasetName,
		Scale:   dataset.Quick,
		Scheme:  modem.QAM256,
		Sync:    SyncCDFA,
		Seed:    1,
	}
}

// Pipeline is a fully assembled MetaAI system.
type Pipeline struct {
	Cfg   Config
	Enc   nn.Encoder
	Train *nn.EncodedSet
	Test  *nn.EncodedSet
	// Model is the digitally trained network (the "simulation model").
	Model *nn.ComplexLNN
	// System is the deployed over-the-air classifier (the "prototype
	// model").
	System *ota.System
}

// New loads the configured dataset, trains, and deploys.
func New(cfg Config) (*Pipeline, error) {
	ds, err := dataset.Load(cfg.Dataset, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	enc := nn.Encoder{Scheme: cfg.Scheme}
	train := nn.EncodeSet(ds.Train, ds.Classes, enc)
	test := nn.EncodeSet(ds.Test, ds.Classes, enc)
	return NewFromSets(train, test, cfg)
}

// NewResumed loads the configured dataset and deploys an ALREADY-TRAINED
// model (typically restored from a checkpoint), skipping the digital
// training pass entirely. The deployment half matches New exactly, so a
// resumed pipeline equals the one that saved the model.
func NewResumed(cfg Config, model *nn.ComplexLNN) (*Pipeline, error) {
	ds, err := dataset.Load(cfg.Dataset, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	enc := nn.Encoder{Scheme: cfg.Scheme}
	train := nn.EncodeSet(ds.Train, ds.Classes, enc)
	test := nn.EncodeSet(ds.Test, ds.Classes, enc)
	return NewFromModel(train, test, model, cfg)
}

// EffectiveDetector returns the coarse-detection error model the pipeline
// uses for a stream of u symbols: the configured detector, or the
// stream-length-scaled Fig 12 default when unset. Checkpoint recovery
// persists its two parameters to rebuild the SyncSampler after a restart
// (functions don't serialize).
func (cfg Config) EffectiveDetector(u int) clocksync.CoarseDetector {
	det := cfg.Detector
	if det.Shape == 0 {
		// Default detector severity is scaled to the stream length so the
		// CDFA injector costs the same relative capacity as in the paper's
		// 784-symbol streams (see clocksync.ScaledDetector).
		det = clocksync.ScaledDetector(u)
	}
	return det
}

// NewFromSets builds the pipeline from pre-encoded train/test sets (used by
// the multi-sensor fusion and face-case experiments).
func NewFromSets(train, test *nn.EncodedSet, cfg Config) (*Pipeline, error) {
	if len(train.X) == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	det := cfg.EffectiveDetector(train.U)

	// Training-side configuration.
	tc := cfg.Train
	if tc.Seed == 0 {
		tc.Seed = cfg.Seed
	}
	symRate := cfg.Air.SymbolRateHz
	if symRate == 0 {
		symRate = 1e6
	}
	if cfg.Sync == SyncCDFA {
		tc.InputAug = chainAug(tc.InputAug, clocksync.Injector(det, symRate))
	}
	root := startBuildTrace(cfg)
	trainTimer := obs.StartTimer()
	tsp := root.Child("pipeline.train")
	tsp.SetNum("classes", float64(train.Classes))
	tsp.SetNum("u", float64(train.U))
	tsp.SetNum("samples", float64(len(train.X)))
	var model *nn.ComplexLNN
	if cfg.NoiseAware != nil {
		model = noisetrain.Train(train, tc, *cfg.NoiseAware)
	} else {
		model = nn.TrainLNN(train, tc)
	}
	tsp.End()
	trainTimer.ObserveInto(pipeTrainSeconds)
	p, err := newFromModel(train, test, model, cfg, root)
	if err != nil {
		root.Finish(trace.FlagError)
		return nil, err
	}
	root.Finish(0)
	return p, nil
}

// buildSeq distinguishes successive pipeline builds in one process so
// their trace IDs never collide; it advances deterministically with the
// build sequence and never touches an rng stream.
var buildSeq atomic.Uint64

// startBuildTrace opens the per-build trace (nil while tracing is
// disabled). The ID derives from the config seed and the process-local
// build ordinal — stable identifiers only.
func startBuildTrace(cfg Config) *trace.Span {
	root := trace.Default().Start("pipeline.build",
		trace.Derive(cfg.Seed, 0xb111d, buildSeq.Add(1)))
	root.SetStr("dataset", cfg.Dataset)
	root.SetNum("seed", float64(cfg.Seed))
	return root
}

// NewFromModel deploys an ALREADY-TRAINED model over the air — the resume
// path: a model restored from a checkpoint skips the digital training pass
// entirely and goes straight to schedule solving. The deployment half is
// identical to NewFromSets', so resuming from a saved model reproduces the
// trained-then-deployed pipeline exactly.
func NewFromModel(train, test *nn.EncodedSet, model *nn.ComplexLNN, cfg Config) (*Pipeline, error) {
	root := startBuildTrace(cfg)
	p, err := newFromModel(train, test, model, cfg, root)
	if err != nil {
		root.Finish(trace.FlagError)
		return nil, err
	}
	root.Finish(0)
	return p, nil
}

// newFromModel is the shared deployment half, its schedule solve traced
// under root (nil when tracing is disabled or the caller owns no trace).
func newFromModel(train, test *nn.EncodedSet, model *nn.ComplexLNN, cfg Config, root *trace.Span) (*Pipeline, error) {
	if len(train.X) == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	if model == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	if model.Classes != train.Classes || model.U != train.U {
		return nil, fmt.Errorf("core: %dx%d model does not fit a %d-class U=%d dataset",
			model.Classes, model.U, train.Classes, train.U)
	}
	p := &Pipeline{Cfg: cfg, Enc: nn.Encoder{Scheme: cfg.Scheme}, Train: train, Test: test, Model: model}
	det := cfg.EffectiveDetector(train.U)

	// Deployment-side configuration.
	deployTimer := obs.StartTimer()
	dsp := root.Child("pipeline.deploy")
	dsp.SetNum("classes", float64(train.Classes))
	dsp.SetNum("u", float64(train.U))
	src := rng.New(cfg.Seed ^ 0xa17)
	air := fillAir(cfg.Air, ota.NewOptions(src.Split()))
	if cfg.Layers > 1 && len(air.Stack) == 0 {
		// Extra relay layers draw from their own split so a K=1 config keeps
		// the seed's random stream (and accumulators) bit-identical.
		air.Stack = ota.DefaultStack(cfg.Layers-1, src.Split())
		if air.HopNoise == 0 {
			air.HopNoise = ota.DefaultHopNoise
		}
	}
	if n := len(air.Stack); n > 0 {
		dsp.SetNum("layers", float64(n+1))
	}
	switch cfg.Sync {
	case SyncNone:
		air.SyncSampler = clocksync.NoSyncSampler(train.U)
	case SyncCoarse, SyncCDFA:
		air.SyncSampler = clocksync.CoarseSampler(det, air.SymbolRateHz)
	case SyncPerfect:
		air.SyncSampler = nil
	}
	sys, err := ota.DeploySpan(p.Model.Weights(), air, src, dsp)
	if err != nil {
		return nil, err
	}
	dsp.End()
	deployTimer.ObserveInto(pipeDeploySeconds)
	p.System = sys
	pipeBuilds.Inc()
	return p, nil
}

// fillAir overlays defaults onto a partially specified Options: any field
// left at its zero value takes the default.
func fillAir(air, def ota.Options) ota.Options {
	if air.Surface == nil {
		air.Surface = def.Surface
	}
	if air.Geometry == (ota.Options{}).Geometry {
		air.Geometry = def.Geometry
	}
	if air.Controller == (ota.Options{}).Controller {
		air.Controller = def.Controller
	}
	if air.Channel == (ota.Options{}).Channel {
		air.Channel = def.Channel
	}
	switch {
	case air.SubSamples == 0:
		air.SubSamples = def.SubSamples
	case air.SubSamples < 0:
		// Explicitly disabled multipath cancellation.
		air.SubSamples = 0
	}
	if air.TargetScale == 0 {
		air.TargetScale = def.TargetScale
	}
	if air.BeamScanStepDeg == 0 {
		air.BeamScanStepDeg = def.BeamScanStepDeg
	}
	if air.JitterStd == 0 {
		air.JitterStd = def.JitterStd
	}
	if air.SymbolRateHz == 0 {
		air.SymbolRateHz = def.SymbolRateHz
	}
	return air
}

func chainAug(a, b nn.InputAugmenter) nn.InputAugmenter {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	// a allocates what it perturbs, so b never writes the dst it reads.
	return func(dst, x []complex128, src *rng.Source) []complex128 {
		return b(dst, a(nil, x, src), src)
	}
}

// Deployment returns the immutable over-the-air deployment — the solved
// schedules and channel statistics that any number of concurrent sessions
// share.
func (p *Pipeline) Deployment() *ota.Deployment {
	return p.System.Deployment
}

// Sessions derives n independent per-worker inference sessions from the
// pipeline's seed. The derivation is a pure function of (Cfg.Seed, n-th
// split), so a fixed seed yields a reproducible worker fleet without
// disturbing the default session bound inside System.
func (p *Pipeline) Sessions(n int) []*ota.Session {
	return p.Deployment().Sessions(n, rng.New(p.Cfg.Seed^0x5e5510))
}

// Predictors adapts Sessions(n) into the factory shape nn.EvaluateParallel
// consumes.
func (p *Pipeline) Predictors(n int) nn.SessionFactory {
	ss := p.Sessions(n)
	return func(w int) nn.Predictor { return ss[w] }
}

// SimAccuracy returns the digital model's test accuracy — the paper's
// "Simulation" column.
func (p *Pipeline) SimAccuracy() float64 {
	return nn.Evaluate(p.Model, p.Test)
}

// SimAccuracyParallel is SimAccuracy fanned across workers. The digital
// model's Predict is pure, so every worker shares the one model.
func (p *Pipeline) SimAccuracyParallel(workers int) float64 {
	return nn.EvaluateParallel(p.Test, workers, nn.StatelessSessions(p.Model))
}

// AirAccuracy returns the deployed system's over-the-air test accuracy —
// the paper's "Prototype" column. It runs through the system's bound
// default session, reproducing the single-threaded numbers exactly.
func (p *Pipeline) AirAccuracy() float64 {
	return nn.Evaluate(p.System, p.Test)
}

// AirAccuracyParallel is AirAccuracy fanned across `workers` independent
// sessions of the shared deployment. workers <= 1 degrades to a serial
// evaluation through Sessions(1)[0].
func (p *Pipeline) AirAccuracyParallel(workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	return nn.EvaluateParallel(p.Test, workers, p.Predictors(workers))
}

// Infer classifies one raw sample end to end over the air through the
// default session, returning the predicted class and the per-class
// probabilities.
func (p *Pipeline) Infer(x []float64) (int, []float64) {
	t := obs.StartTimer()
	defer t.ObserveInto(pipeInferSeconds)
	root := trace.Default().Start("pipeline.infer",
		trace.Derive(p.Cfg.Seed, 0x1f3a, inferSeq.Add(1)))
	sess := p.System.Session()
	sess.SetSpan(root)
	logits := p.System.Logits(p.Enc.Encode(x))
	sess.SetSpan(nil)
	arg, probs := p.inferLogits(logits)
	root.SetNum("class", float64(arg))
	root.Finish(0)
	return arg, probs
}

// inferSeq orders standalone Infer traces within one process, exactly as
// buildSeq orders builds.
var inferSeq atomic.Uint64

// InferSession is Infer through a caller-owned session, for concurrent
// serving: each worker holds one session from Sessions(n) and infers
// without any cross-worker locking.
func (p *Pipeline) InferSession(sess *ota.Session, x []float64) (int, []float64) {
	return p.InferSessionSpan(sess, x, nil)
}

// InferSessionSpan is InferSession with the inference traced as a
// "pipeline.infer" child of parent — the request-root plumbing a serving
// worker that owns both the session and the request trace uses. A nil
// parent records nothing.
func (p *Pipeline) InferSessionSpan(sess *ota.Session, x []float64, parent *trace.Span) (int, []float64) {
	t := obs.StartTimer()
	defer t.ObserveInto(pipeInferSeconds)
	sp := parent.Child("pipeline.infer")
	sess.SetSpan(sp)
	logits := sess.Logits(p.Enc.Encode(x))
	sess.SetSpan(nil)
	arg, probs := p.inferLogits(logits)
	sp.SetNum("class", float64(arg))
	sp.End()
	return arg, probs
}

func (p *Pipeline) inferLogits(logits []float64) (int, []float64) {
	probs := autodiff.Softmax(logits)
	best, arg := -1.0, 0
	for i, v := range probs {
		if v > best {
			best, arg = v, i
		}
	}
	return arg, probs
}
