package ota

import (
	"fmt"
	"math"

	"repro/internal/cplx"
	"repro/internal/mts"
	"repro/internal/obs/trace"
	"repro/internal/rng"
)

// CascadeLayer is one extra metasurface the signal traverses after the
// primary surface — a stacked-intelligent-metasurface hop. Each layer
// re-scatters the field arriving from the previous hop under its own
// geometry, so the end-to-end channel is the product of the per-layer
// responses.
type CascadeLayer struct {
	// Surface is the layer's programmable metasurface.
	Surface *mts.Surface
	// Geometry fixes the hop's incidence/emergence placement relative to
	// this layer.
	Geometry mts.Geometry
}

// unitPower returns k unit per-layer drive amplitudes.
func unitPower(k int) []float64 {
	p := make([]float64, k)
	for i := range p {
		p[i] = 1
	}
	return p
}

// cascadeNoiseBoost is the receiver-noise inflation of a multi-hop link:
// every extra re-scattering hop adds its own thermal/rescatter noise floor,
// referred to the output through that layer's drive amplitude, so boosting
// a layer's power (LayerPower) genuinely buys end-to-end SNR. hop is the
// per-hop noise fraction (Options.HopNoise); power carries one amplitude
// per layer including the primary. The factor is exactly 1 with no extra
// layers or a zero hop fraction.
func cascadeNoiseBoost(hop float64, power []float64) float64 {
	boost := 1.0
	if hop <= 0 {
		return boost
	}
	for k := 1; k < len(power); k++ {
		boost += hop / (power[k] * power[k])
	}
	return boost
}

// cascadeTables prepares a stack's solve: the joint layer-wise solver over
// every layer's ideal surface, solver-frame phases and composition scale,
// run target by target into the layer schedules and the composed realized
// responses the sessions play.
func cascadeTables(d *Deployment, ideal []*mts.Surface) solveFunc {
	solver := &mts.CascadeSolver{
		Surfaces: ideal,
		Paths:    append([][]float64{d.estPP}, d.layerEstPP...),
		Scales:   append([]complex128{complex(d.power[0], 0)}, d.layerScale...),
	}
	return func(targets []complex128, parent *trace.Span) {
		ssp := d.startSolveSpan(parent, "cascade")
		ssp.SetNum("layers", float64(d.Layers()))
		d.layerSched = make([][][]mts.Config, len(d.opts.Stack))
		for k := range d.layerSched {
			d.layerSched[k] = make([][]mts.Config, d.classes)
		}
		for r := range d.Schedule {
			d.Schedule[r] = make([]mts.Config, d.u)
			for k := range d.layerSched {
				d.layerSched[k][r] = make([]mts.Config, d.u)
			}
			for c := range d.Schedule[r] {
				cfgs, _ := solver.Solve(targets[r*d.u+c])
				d.Schedule[r][c] = cfgs[0]
				for k := range d.layerSched {
					d.layerSched[k][r][c] = cfgs[k+1]
				}
				d.Realized.Set(r, c, d.composedRealizedAt(r, c))
			}
		}
		ssp.End()
		cascadeDeploys.Inc()
		cascadeLayers.Set(float64(d.Layers()))
	}
}

// composedRealizedAt evaluates the physically realized end-to-end response
// of output r, symbol c: every layer's TRUE response (fabrication offsets,
// actual geometry) at its scheduled configuration, composed with the
// per-layer power scales.
func (d *Deployment) composedRealizedAt(r, c int) complex128 {
	h := complex(d.power[0], 0) * d.opts.Surface.Response(d.Schedule[r][c], d.truePP)
	for k := range d.opts.Stack {
		h *= d.layerScale[k] * d.opts.Stack[k].Surface.Response(d.layerSched[k][r][c], d.layerTruePP[k])
	}
	return h
}

// refreshRealizedFromSchedules re-evaluates every realized response from the
// current schedules under the current true path phases — the shared core of
// Recompute, WithSchedule, and WithLayerSchedule. The single-surface
// expression is exactly the seed path's arithmetic.
func (d *Deployment) refreshRealizedFromSchedules() {
	for r := 0; r < d.classes; r++ {
		for c := 0; c < d.u; c++ {
			if len(d.opts.Stack) > 0 {
				d.Realized.Set(r, c, d.composedRealizedAt(r, c))
			} else {
				d.Realized.Set(r, c, d.opts.Surface.Response(d.Schedule[r][c], d.truePP))
			}
		}
	}
}

// setJitterMoments derives the closed-form jitter statistics. A single
// surface keeps the seed model (mean attenuation e^{−σ²/2}, complex scatter
// of variance M·(1−e^{−σ²})); a K-layer cascade composes K independent
// per-layer jitter processes to first order — attenuations multiply, and
// the normalized per-layer scatters add.
func (d *Deployment) setJitterMoments() {
	sigma2 := d.opts.JitterStd * d.opts.JitterStd
	att := math.Exp(-sigma2 / 2)
	scatter := float64(d.opts.Surface.Atoms()) * (1 - math.Exp(-sigma2))
	if k := len(d.opts.Stack); k > 0 {
		d.jitterAtt = math.Pow(att, float64(k+1))
		d.jitterVar = float64(k+1) * scatter
	} else {
		d.jitterAtt = att
		d.jitterVar = scatter
	}
	d.jitterSD = math.Sqrt(d.jitterVar / 2)
}

// exactJitterResponse evaluates the atom-by-atom jittered response of symbol
// slot i0, output r — per layer when a cascade is deployed, composing the
// per-layer draws exactly as composedRealizedAt composes the ideal ones. The
// single-surface call is byte-identical to the seed exact-jitter path.
func (d *Deployment) exactJitterResponse(r, i0 int, src *rng.Source) complex128 {
	if len(d.opts.Stack) == 0 {
		return d.opts.Surface.RealizedResponse(d.Schedule[r][i0], d.truePP, d.opts.JitterStd, src)
	}
	h := complex(d.power[0], 0) * d.opts.Surface.RealizedResponse(d.Schedule[r][i0], d.truePP, d.opts.JitterStd, src)
	for k := range d.opts.Stack {
		h *= d.layerScale[k] * d.opts.Stack[k].Surface.RealizedResponse(d.layerSched[k][r][i0], d.layerTruePP[k], d.opts.JitterStd, src)
	}
	return h
}

// Layers returns the cascade depth K — 1 for the paper's single-surface
// system.
func (d *Deployment) Layers() int { return 1 + len(d.opts.Stack) }

// StackLayers returns the extra cascade layers (empty for a single-surface
// deployment). The slice is shared; callers must not modify it.
func (d *Deployment) StackLayers() []CascadeLayer { return d.opts.Stack }

// LayerPowerAlloc returns the per-layer drive amplitudes, primary first
// (nil for a single-surface deployment). The slice is shared; callers must
// not modify it.
func (d *Deployment) LayerPowerAlloc() []float64 { return d.power }

// LayerSurface returns layer k's surface (layer 0 is the primary).
func (d *Deployment) LayerSurface(k int) *mts.Surface {
	if k == 0 {
		return d.opts.Surface
	}
	return d.opts.Stack[k-1].Surface
}

// LayerSchedule returns layer k's solved per-output per-symbol
// configurations (layer 0 is the primary schedule). The slices are shared;
// callers must not modify them.
func (d *Deployment) LayerSchedule(k int) [][]mts.Config {
	if k == 0 {
		return d.Schedule
	}
	return d.layerSched[k-1]
}

// EstLayerPathPhases returns the solver-frame path phases of layer k —
// what a degraded-mode re-solve of that layer must target, exactly as
// EstPathPhases does for the primary.
func (d *Deployment) EstLayerPathPhases(k int) []float64 {
	if k == 0 {
		return d.estPP
	}
	return d.layerEstPP[k-1]
}

// WithLayerSchedule returns a copy of the deployment playing a replacement
// schedule on ONE cascade layer, every other layer untouched, with the
// composed realized responses re-evaluated under the current true
// geometry. Layer 0 delegates to WithSchedule; this is the (layer, atom)
// heal path: re-solve the faulted layer around its stuck atoms and publish
// the result behind an atomic pointer.
func (d *Deployment) WithLayerSchedule(layer int, schedule [][]mts.Config) (*Deployment, error) {
	if layer == 0 {
		return d.WithSchedule(schedule)
	}
	if layer < 0 || layer >= d.Layers() {
		return nil, fmt.Errorf("ota: layer %d of a %d-layer deployment", layer, d.Layers())
	}
	if len(schedule) != d.classes {
		return nil, fmt.Errorf("ota: schedule has %d outputs, deployment has %d", len(schedule), d.classes)
	}
	atoms := d.LayerSurface(layer).Atoms()
	for r, row := range schedule {
		if len(row) != d.u {
			return nil, fmt.Errorf("ota: schedule output %d has %d symbols, deployment has %d", r, len(row), d.u)
		}
		for i, cfg := range row {
			if len(cfg) != atoms {
				return nil, fmt.Errorf("ota: schedule (%d,%d) configures %d atoms, layer %d has %d", r, i, len(cfg), layer, atoms)
			}
		}
	}
	cp := *d
	cp.layerSched = append([][][]mts.Config(nil), d.layerSched...)
	cp.layerSched[layer-1] = schedule
	cp.Realized = cplx.NewMat(d.classes, d.u)
	cp.refreshRealizedFromSchedules()
	cp.refreshFromRealized()
	return &cp, nil
}

// RealizedWithLayerStuck re-evaluates the end-to-end realized responses
// with a set of layer-k atoms latched in fixed states — what the cascade
// physically plays when one layer's hardware degrades. This is the
// fault-injection hook's (layer, atom) generalization of re-evaluating a
// single surface's stuck responses; for a single-surface deployment with
// layer 0 it reproduces that arithmetic exactly.
func (d *Deployment) RealizedWithLayerStuck(layer int, stuck map[int]uint8) (*cplx.Mat, error) {
	if layer < 0 || layer >= d.Layers() {
		return nil, fmt.Errorf("ota: layer %d of a %d-layer deployment", layer, d.Layers())
	}
	override := func(cfg mts.Config) mts.Config {
		out := cfg.Clone()
		for m, st := range stuck {
			if m >= 0 && m < len(out) {
				out[m] = st
			}
		}
		return out
	}
	out := cplx.NewMat(d.classes, d.u)
	for r := 0; r < d.classes; r++ {
		for c := 0; c < d.u; c++ {
			if len(d.opts.Stack) == 0 {
				out.Set(r, c, d.opts.Surface.Response(override(d.Schedule[r][c]), d.truePP))
				continue
			}
			cfg0 := d.Schedule[r][c]
			if layer == 0 {
				cfg0 = override(cfg0)
			}
			h := complex(d.power[0], 0) * d.opts.Surface.Response(cfg0, d.truePP)
			for k := range d.opts.Stack {
				cfg := d.layerSched[k][r][c]
				if layer == k+1 {
					cfg = override(cfg)
				}
				h *= d.layerScale[k] * d.opts.Stack[k].Surface.Response(cfg, d.layerTruePP[k])
			}
			out.Set(r, c, h)
		}
	}
	return out, nil
}

// DefaultHopNoise is the per-hop re-scattering noise coefficient a default
// relay stack assumes: each extra surface-to-surface hop adds a few percent
// of the receiver noise floor at unit drive (see Options.HopNoise).
const DefaultHopNoise = 0.02

// DefaultStack builds `extra` relay layers for a stacked deployment: each is
// a prototype-class fabricated surface (drawn from src, so a fixed seed
// yields a fixed stack) placed on a short re-scattering hop with a slightly
// rotated exit angle per layer. The primary surface and its geometry stay
// whatever Options carries; these layers slot into Options.Stack.
func DefaultStack(extra int, src *rng.Source) []CascadeLayer {
	if extra <= 0 {
		return nil
	}
	stack := make([]CascadeLayer, extra)
	for k := range stack {
		stack[k] = CascadeLayer{
			Surface: mts.Prototype(src.Split()),
			Geometry: mts.Geometry{
				TxDistM: 1.5, TxAngleDeg: 20,
				RxDistM: 2, RxAngleDeg: 35 + 4*float64(k),
			},
		}
	}
	return stack
}
