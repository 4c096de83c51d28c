package ota

import (
	"fmt"
	"math"

	"repro/internal/channel"
	"repro/internal/cplx"
	"repro/internal/mts"
	"repro/internal/rng"
)

// SurfaceState is the serializable description of a programmable
// metasurface: the grid, the carrier, and the per-atom static fabrication
// offsets that make one physical surface different from the ideal one.
type SurfaceState struct {
	Rows, Cols, Bits int
	FreqGHz          float64
	SpacingM         float64
	FabPhaseStd      float64
	Fab              []float64
}

// DeploymentState is everything a Deployment needs to be rebuilt without
// re-solving: the full Options (minus the SyncSampler function, which is
// runtime-only and must be re-attached by the caller via WithSyncSampler),
// the solved schedule, the physically realized responses, and the
// calibration constants of the Eqn 8 compensation path. FromState(d.State())
// yields a deployment whose inference accumulators are bit-identical to d's
// under equal session seeds — every derived statistic is either carried here
// or re-derived by the one derivation NewDeployment itself runs.
//
// The state shares storage with its deployment; treat it as read-only.
type DeploymentState struct {
	Surface    SurfaceState
	Geometry   mts.Geometry
	Controller mts.Controller
	Channel    channel.Params

	SubSamples      int
	TargetScale     float64
	BeamScanStepDeg float64
	JitterStd       float64
	SymbolRateHz    float64
	ExactJitter     bool
	CompensateEnv   bool

	Schedule      [][]mts.Config
	Realized      *cplx.Mat
	Gamma         float64
	EstRxAngleDeg float64

	// Eqn 8 calibration constants (zero unless CompensateEnv).
	EnvBase     complex128
	CalMTSPhase complex128
	EnvScale    float64

	// Stacked-cascade extensions (absent — all nil/zero — for the paper's
	// single-surface system; their presence bumps the checkpoint envelope
	// to version 2). Layers and LayerSchedules describe the extra surfaces
	// and their solved configurations; Realized above already holds the
	// COMPOSED end-to-end responses.
	Layers         []CascadeLayerState
	LayerSchedules [][][]mts.Config
	LayerPower     []float64
	HopNoise       float64
}

// CascadeLayerState is the serializable description of one extra cascade
// layer: its surface and its hop geometry.
type CascadeLayerState struct {
	Surface  SurfaceState
	Geometry mts.Geometry
}

// State captures the deployment as a serializable snapshot.
func (d *Deployment) State() *DeploymentState {
	s := d.opts.Surface
	st := &DeploymentState{
		Surface: SurfaceState{
			Rows: s.Rows, Cols: s.Cols, Bits: s.Bits,
			FreqGHz: s.FreqGHz, SpacingM: s.SpacingM,
			FabPhaseStd: s.FabPhaseStd, Fab: s.FabOffsets(),
		},
		Geometry:        d.opts.Geometry,
		Controller:      d.opts.Controller,
		Channel:         d.opts.Channel,
		SubSamples:      d.opts.SubSamples,
		TargetScale:     d.opts.TargetScale,
		BeamScanStepDeg: d.opts.BeamScanStepDeg,
		JitterStd:       d.opts.JitterStd,
		SymbolRateHz:    d.opts.SymbolRateHz,
		ExactJitter:     d.opts.ExactJitter,
		CompensateEnv:   d.opts.CompensateEnv,
		Schedule:        d.Schedule,
		Realized:        d.Realized,
		Gamma:           d.Gamma,
		EstRxAngleDeg:   d.EstRxAngleDeg,
	}
	if d.compensate {
		st.EnvBase = d.envBase
		st.CalMTSPhase = d.calMTSPhase
		st.EnvScale = d.envScale
	}
	for _, lay := range d.opts.Stack {
		ls := lay.Surface
		st.Layers = append(st.Layers, CascadeLayerState{
			Surface: SurfaceState{
				Rows: ls.Rows, Cols: ls.Cols, Bits: ls.Bits,
				FreqGHz: ls.FreqGHz, SpacingM: ls.SpacingM,
				FabPhaseStd: ls.FabPhaseStd, Fab: ls.FabOffsets(),
			},
			Geometry: lay.Geometry,
		})
	}
	if len(d.opts.Stack) > 0 {
		st.LayerSchedules = d.layerSched
		st.LayerPower = d.power
		st.HopNoise = d.opts.HopNoise
	}
	return st
}

// Validate checks the state's internal consistency: grid and schedule
// dimensions agree, every configuration covers every atom, and every state
// index is representable at the surface's bit depth. It is the gate between
// a decoded checkpoint and the panic-free serving path.
func (st *DeploymentState) Validate() error {
	atoms := st.Surface.Rows * st.Surface.Cols
	if st.Surface.Rows <= 0 || st.Surface.Cols <= 0 {
		return fmt.Errorf("ota: state has invalid grid %dx%d", st.Surface.Rows, st.Surface.Cols)
	}
	if st.Surface.Bits <= 0 || st.Surface.Bits > 8 {
		return fmt.Errorf("ota: state has unsupported bit depth %d", st.Surface.Bits)
	}
	if st.Surface.Fab != nil && len(st.Surface.Fab) != atoms {
		return fmt.Errorf("ota: state has %d fabrication offsets for %d atoms", len(st.Surface.Fab), atoms)
	}
	if st.Realized == nil || st.Realized.Rows <= 0 || st.Realized.Cols <= 0 {
		return fmt.Errorf("ota: state has no realized responses")
	}
	if len(st.Realized.Data) != st.Realized.Rows*st.Realized.Cols {
		return fmt.Errorf("ota: state realized matrix carries %d entries for %dx%d",
			len(st.Realized.Data), st.Realized.Rows, st.Realized.Cols)
	}
	if len(st.Schedule) != st.Realized.Rows {
		return fmt.Errorf("ota: state schedule has %d outputs, realized responses have %d", len(st.Schedule), st.Realized.Rows)
	}
	states := uint8(1) << st.Surface.Bits
	for r, row := range st.Schedule {
		if len(row) != st.Realized.Cols {
			return fmt.Errorf("ota: state schedule output %d has %d symbols, want %d", r, len(row), st.Realized.Cols)
		}
		for i, cfg := range row {
			if len(cfg) != atoms {
				return fmt.Errorf("ota: state schedule (%d,%d) configures %d atoms, surface has %d", r, i, len(cfg), atoms)
			}
			for _, stt := range cfg {
				if stt >= states {
					return fmt.Errorf("ota: state schedule (%d,%d) uses state %d beyond %d-bit depth", r, i, stt, st.Surface.Bits)
				}
			}
		}
	}
	return st.validateCascade()
}

// validateCascade checks the stacked-layer extension block: every extra
// layer's grid/bit depth, its schedule's shape against the deployment
// dimensions, and the power allocation's arity and positivity.
func (st *DeploymentState) validateCascade() error {
	if len(st.Layers) == 0 {
		if len(st.LayerSchedules) != 0 || len(st.LayerPower) != 0 {
			return fmt.Errorf("ota: state carries cascade schedules or power without cascade layers")
		}
		return nil
	}
	if len(st.LayerSchedules) != len(st.Layers) {
		return fmt.Errorf("ota: state has %d layer schedules for %d cascade layers", len(st.LayerSchedules), len(st.Layers))
	}
	if st.LayerPower != nil && len(st.LayerPower) != 1+len(st.Layers) {
		return fmt.Errorf("ota: state has %d power amplitudes for %d layers", len(st.LayerPower), 1+len(st.Layers))
	}
	for _, p := range st.LayerPower {
		if !(p > 0) || math.IsInf(p, 0) {
			return fmt.Errorf("ota: state layer drive amplitude %v out of (0, ∞)", p)
		}
	}
	if st.HopNoise < 0 || math.IsNaN(st.HopNoise) {
		return fmt.Errorf("ota: state hop-noise fraction %v negative", st.HopNoise)
	}
	for k, lay := range st.Layers {
		atoms := lay.Surface.Rows * lay.Surface.Cols
		if lay.Surface.Rows <= 0 || lay.Surface.Cols <= 0 {
			return fmt.Errorf("ota: cascade layer %d has invalid grid %dx%d", k+1, lay.Surface.Rows, lay.Surface.Cols)
		}
		if lay.Surface.Bits <= 0 || lay.Surface.Bits > 8 {
			return fmt.Errorf("ota: cascade layer %d has unsupported bit depth %d", k+1, lay.Surface.Bits)
		}
		if lay.Surface.Fab != nil && len(lay.Surface.Fab) != atoms {
			return fmt.Errorf("ota: cascade layer %d has %d fabrication offsets for %d atoms", k+1, len(lay.Surface.Fab), atoms)
		}
		sched := st.LayerSchedules[k]
		if len(sched) != st.Realized.Rows {
			return fmt.Errorf("ota: cascade layer %d schedule has %d outputs, want %d", k+1, len(sched), st.Realized.Rows)
		}
		states := uint8(1) << lay.Surface.Bits
		for r, row := range sched {
			if len(row) != st.Realized.Cols {
				return fmt.Errorf("ota: cascade layer %d schedule output %d has %d symbols, want %d", k+1, r, len(row), st.Realized.Cols)
			}
			for i, cfg := range row {
				if len(cfg) != atoms {
					return fmt.Errorf("ota: cascade layer %d schedule (%d,%d) configures %d atoms, layer has %d", k+1, r, i, len(cfg), atoms)
				}
				for _, stt := range cfg {
					if stt >= states {
						return fmt.Errorf("ota: cascade layer %d schedule (%d,%d) uses state %d beyond %d-bit depth", k+1, r, i, stt, lay.Surface.Bits)
					}
				}
			}
		}
	}
	return nil
}

// FromState rebuilds a deployment from a snapshot with zero re-solving. It
// shares the constructors' derivation — the option check, the frame (path
// phases, drive amplitudes, composition scales, hop-noise inflation) and
// the finishing step (signal RMS, noise variance, jitter moments) — and
// differs only in reading the schedules, realized responses, gamma, the
// estimated receiver angle and the Eqn 8 calibration from the state, so
// accumulators are bit-identical to the snapshotted deployment's. The
// restored deployment's SyncSampler is nil; re-attach one with
// WithSyncSampler when the original deployment had one.
func FromState(st *DeploymentState) (*Deployment, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	surface, err := mts.SurfaceFromOffsets(st.Surface.Rows, st.Surface.Cols, st.Surface.Bits,
		st.Surface.FreqGHz, st.Surface.SpacingM, st.Surface.FabPhaseStd, st.Surface.Fab)
	if err != nil {
		return nil, err
	}
	opts := Options{
		Surface:         surface,
		Geometry:        st.Geometry,
		Controller:      st.Controller,
		Channel:         st.Channel,
		SubSamples:      st.SubSamples,
		TargetScale:     st.TargetScale,
		BeamScanStepDeg: st.BeamScanStepDeg,
		JitterStd:       st.JitterStd,
		SymbolRateHz:    st.SymbolRateHz,
		ExactJitter:     st.ExactJitter,
		CompensateEnv:   st.CompensateEnv,
		LayerPower:      st.LayerPower,
		HopNoise:        st.HopNoise,
	}
	for _, lay := range st.Layers {
		ls, err := mts.SurfaceFromOffsets(lay.Surface.Rows, lay.Surface.Cols, lay.Surface.Bits,
			lay.Surface.FreqGHz, lay.Surface.SpacingM, lay.Surface.FabPhaseStd, lay.Surface.Fab)
		if err != nil {
			return nil, err
		}
		opts.Stack = append(opts.Stack, CascadeLayer{Surface: ls, Geometry: lay.Geometry})
	}
	if err := checkOptions(&opts); err != nil {
		return nil, err
	}
	d, _, err := newFrame(opts, st.EstRxAngleDeg)
	if err != nil {
		return nil, err
	}
	d.Schedule, d.layerSched, d.Realized = st.Schedule, st.LayerSchedules, st.Realized
	d.Gamma = st.Gamma
	d.classes, d.u = st.Realized.Rows, st.Realized.Cols
	if st.CompensateEnv {
		d.compensate = true
		d.envBase = st.EnvBase
		d.calMTSPhase = st.CalMTSPhase
		d.envScale = st.EnvScale
	}
	d.refreshFromRealized()
	d.setJitterMoments()
	return d, nil
}

// WithSyncSampler returns a copy of the deployment whose sessions draw their
// clock offsets from sampler (nil restores perfect synchronization). It is
// the restore-side counterpart of Options.SyncSampler: checkpoints cannot
// carry a function, so recovery rebuilds the sampler from its recorded
// parameters and re-attaches it here. Everything else — schedule, responses,
// derived statistics — is shared with the receiver.
func (d *Deployment) WithSyncSampler(sampler func(src *rng.Source) float64) *Deployment {
	cp := *d
	cp.opts.SyncSampler = sampler
	return &cp
}
