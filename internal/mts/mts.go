// Package mts simulates the programmable metasurface at the heart of
// MetaAI: a 16×16 array of 2-bit meta-atoms (phase states 0, π/2, π, 3π/2
// selected by PIN-diode bias, §4 of the paper) whose aggregate reflection
// realizes the complex channel response
//
//	H_mts = α_p Σ_m e^{jφ^p_m} e^{jφ_m}            (Eqn 4)
//
// where φ^p_m is the propagation phase accumulated on the Tx→atom→Rx path
// and φ_m the atom's programmed state. The package provides the far-field
// geometry (Eqn 6), the discrete configuration solver for desired weights
// (Eqn 7) including environment compensation (Eqn 8), beam-scan angle
// estimation, the weight-distribution-density metric of Appendix A.2
// (Eqn 19), and the shift-register control/timing model of §4.
package mts

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/cplx"
	"repro/internal/rng"
)

// Surface describes one programmable metasurface.
type Surface struct {
	// Rows and Cols give the meta-atom grid; the prototype is 16×16.
	Rows, Cols int
	// Bits is the per-atom phase resolution; the prototype uses 2-bit atoms
	// (4 states) driven by two PIN diodes.
	Bits int
	// FreqGHz is the operating carrier frequency. The prototypes cover
	// 2.4/5 GHz (dual band) and 3.5 GHz.
	FreqGHz float64
	// SpacingM is the meta-atom pitch d_s; zero means λ/2.
	SpacingM float64
	// FabPhaseStd is the per-atom static fabrication phase error (radians),
	// one component of the hardware noise N_d of §3.5.2.
	FabPhaseStd float64

	states []float64
	fab    []float64 // per-atom static fabrication offsets
}

// DefaultFabPhaseStd is the mild per-atom fabrication phase spread
// (radians) of the paper's prototype surface, used by NewSurface and
// Prototype when drawing fabrication offsets.
const DefaultFabPhaseStd = 0.05

// NewSurface builds a surface. rows, cols and bits must be positive; the
// fabrication offsets are drawn once from src at the DefaultFabPhaseStd
// spread (pass nil for an ideal surface). Use NewSurfaceFab to configure
// the spread.
func NewSurface(rows, cols, bits int, freqGHz float64, src *rng.Source) (*Surface, error) {
	return NewSurfaceFab(rows, cols, bits, freqGHz, DefaultFabPhaseStd, src)
}

// NewSurfaceFab builds a surface whose per-atom static fabrication offsets
// are drawn from src as N(0, fabStd²). With src nil or fabStd zero the
// surface is fabrication-free (an ideal surface); fabStd must not be
// negative. NewSurfaceFab(r, c, b, f, DefaultFabPhaseStd, src) is
// bit-identical to NewSurface(r, c, b, f, src).
func NewSurfaceFab(rows, cols, bits int, freqGHz, fabStd float64, src *rng.Source) (*Surface, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("mts: invalid grid %dx%d", rows, cols)
	}
	if bits <= 0 || bits > 8 {
		return nil, fmt.Errorf("mts: unsupported bit depth %d", bits)
	}
	if freqGHz <= 0 {
		return nil, fmt.Errorf("mts: invalid frequency %v GHz", freqGHz)
	}
	if fabStd < 0 {
		return nil, fmt.Errorf("mts: negative fabrication spread %v", fabStd)
	}
	s := &Surface{Rows: rows, Cols: cols, Bits: bits, FreqGHz: freqGHz}
	n := 1 << bits
	s.states = make([]float64, n)
	for i := range s.states {
		s.states[i] = 2 * math.Pi * float64(i) / float64(n)
	}
	s.fab = make([]float64, rows*cols)
	if src != nil && fabStd > 0 {
		s.FabPhaseStd = fabStd
		for i := range s.fab {
			s.fab[i] = src.Normal(0, s.FabPhaseStd)
		}
	}
	return s, nil
}

// SurfaceFromOffsets rebuilds a surface from explicit per-atom fabrication
// offsets — the checkpoint-restore path. fab must carry exactly rows·cols
// entries (nil means fabrication-free); fabStd records the spread the
// offsets were drawn at and is informational only. A surface restored from
// FabOffsets of another surface produces bit-identical path phases and
// responses.
func SurfaceFromOffsets(rows, cols, bits int, freqGHz, spacingM, fabStd float64, fab []float64) (*Surface, error) {
	s, err := NewSurfaceFab(rows, cols, bits, freqGHz, 0, nil)
	if err != nil {
		return nil, err
	}
	s.SpacingM = spacingM
	s.FabPhaseStd = fabStd
	if fab != nil {
		if len(fab) != s.Atoms() {
			return nil, fmt.Errorf("mts: %d fabrication offsets for a %d-atom surface", len(fab), s.Atoms())
		}
		copy(s.fab, fab)
	}
	return s, nil
}

// FabOffsets returns the per-atom static fabrication phase offsets (radians).
// The slice is shared; callers must not modify it.
func (s *Surface) FabOffsets() []float64 { return s.fab }

// Prototype returns the paper's default surface: 16×16 2-bit atoms at
// 5.25 GHz with λ/2 spacing and mild fabrication spread.
func Prototype(src *rng.Source) *Surface {
	s, err := NewSurface(16, 16, 2, 5.25, src)
	if err != nil {
		panic(err)
	}
	return s
}

// Atoms returns the meta-atom count M.
func (s *Surface) Atoms() int { return s.Rows * s.Cols }

// States returns the programmable phase states (radians). The slice is
// shared; callers must not modify it.
func (s *Surface) States() []float64 { return s.states }

// Wavelength returns the carrier wavelength in meters.
func (s *Surface) Wavelength() float64 { return 299792458.0 / (s.FreqGHz * 1e9) }

// Spacing returns the atom pitch, defaulting to λ/2.
func (s *Surface) Spacing() float64 {
	if s.SpacingM > 0 {
		return s.SpacingM
	}
	return s.Wavelength() / 2
}

// Geometry fixes the link endpoints relative to the surface. Angles are
// measured from the surface normal (boresight 0°) in the azimuth plane;
// distances in meters. The paper's default is Tx at 1 m / 30° incidence and
// Rx at 3 m / 40° emergence.
type Geometry struct {
	TxDistM    float64
	TxAngleDeg float64
	RxDistM    float64
	RxAngleDeg float64
}

// DefaultGeometry returns the paper's §4 default placement.
func DefaultGeometry() Geometry {
	return Geometry{TxDistM: 1, TxAngleDeg: 30, RxDistM: 3, RxAngleDeg: 40}
}

// atomX returns the azimuth-plane coordinate of atom m (column offset from
// array center).
func (s *Surface) atomX(m int) float64 {
	col := m % s.Cols
	return (float64(col) - float64(s.Cols-1)/2) * s.Spacing()
}

// atomZ returns the elevation coordinate of atom m.
func (s *Surface) atomZ(m int) float64 {
	row := m / s.Cols
	return (float64(row) - float64(s.Rows-1)/2) * s.Spacing()
}

// PathPhases returns φ^p_m for every atom: the exact spherical-wave phase
// from the Tx (whose position is known, §3.2) plus the far-field plane-wave
// phase toward the Rx direction (Eqn 6). The common term e^{jk·d_1,Rx} is
// deliberately dropped — the paper proves it scales every output equally.
func (s *Surface) PathPhases(g Geometry) []float64 {
	k0 := 2 * math.Pi / s.Wavelength()
	sinTx, cosTx := math.Sincos(g.TxAngleDeg * math.Pi / 180)
	txX := g.TxDistM * sinTx
	txY := g.TxDistM * cosTx
	sinRx := math.Sin(g.RxAngleDeg * math.Pi / 180)
	out := make([]float64, s.Atoms())
	for m := range out {
		x, z := s.atomX(m), s.atomZ(m)
		dTx := math.Sqrt((txX-x)*(txX-x) + txY*txY + z*z)
		// Far-field Rx: projection of atom position onto the Rx direction.
		dRxRel := -x * sinRx
		out[m] = cplx.WrapPhase(k0*(dTx+dRxRel) + s.fab[m])
	}
	return out
}

// ElementGain returns the per-atom radiation pattern at the given off-normal
// angle. The prototype's field of view is [-60°, +60°] (Fig 25): the gain is
// a gentle cosine roll-off inside the FoV and collapses quickly beyond it.
func ElementGain(angleDeg float64) float64 {
	a := math.Abs(angleDeg)
	if a >= 90 {
		return 0
	}
	g := math.Pow(math.Cos(a*math.Pi/180), 0.8)
	if a > 60 {
		// Outside the designed FoV the unit-cell response degrades sharply.
		g *= math.Exp(-(a - 60) / 12)
	}
	return g
}

// Config holds one phase-state index per meta-atom.
type Config []uint8

// Clone returns a copy of the configuration.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	copy(out, c)
	return out
}

// Response evaluates the ideal array factor Σ_m e^{j(φ^p_m + φ_states[cfg_m])}
// for the given path phases. This is H_mts of Eqn 4 up to the common real
// path amplitude α_p.
func (s *Surface) Response(cfg Config, pathPhases []float64) complex128 {
	if len(cfg) != s.Atoms() || len(pathPhases) != s.Atoms() {
		panic(fmt.Sprintf("mts: Response wants %d atoms, got cfg=%d phases=%d", s.Atoms(), len(cfg), len(pathPhases)))
	}
	var sum complex128
	for m, st := range cfg {
		sum += cplx.Expi(pathPhases[m] + s.states[st])
	}
	return sum
}

// RealizedResponse evaluates the array factor with per-atom dynamic phase
// jitter of the given standard deviation (radians) — the PIN-diode drive
// noise component of N_d in Eqn 13. Pass jitterStd 0 for the ideal response.
func (s *Surface) RealizedResponse(cfg Config, pathPhases []float64, jitterStd float64, src *rng.Source) complex128 {
	if jitterStd == 0 || src == nil {
		return s.Response(cfg, pathPhases)
	}
	var sum complex128
	for m, st := range cfg {
		sum += cplx.Expi(pathPhases[m] + s.states[st] + src.Normal(0, jitterStd))
	}
	return sum
}

// MaxResponse returns the magnitude of the best achievable array factor at
// the given path phases (every atom phase-aligned as well as its discrete
// states allow). Deployment normalizes desired weights against this value so
// every target lies inside the achievable disk.
func (s *Surface) MaxResponse(pathPhases []float64) float64 {
	cfg := s.alignConfig(0, pathPhases)
	return cmplx.Abs(s.Response(cfg, pathPhases))
}

// AlignedConfig returns the configuration that phase-aligns every atom
// toward the given paths (target phase zero) — the beam-steering / relay
// configuration whose response realizes MaxResponse's magnitude.
func (s *Surface) AlignedConfig(pathPhases []float64) Config {
	return s.alignConfig(0, pathPhases)
}

// alignConfig picks, per atom, the state whose total phase is closest to
// targetPhase — the greedy beam-steering initialization.
func (s *Surface) alignConfig(targetPhase float64, pathPhases []float64) Config {
	cfg := make(Config, len(pathPhases))
	wrapped := make([]float64, len(s.states))
	wt := cplx.WrapPhase(targetPhase)
	for m, pp := range pathPhases {
		for i, st := range s.states {
			wrapped[i] = cplx.WrapPhase(pp + st)
		}
		cfg[m] = nearestState(wrapped, wt)
	}
	return cfg
}

// nearestState returns the state whose wrapped total phase lies closest to
// the wrapped target phase wt (the first on ties).
func nearestState(wrapped []float64, wt float64) uint8 {
	best, arg := math.Inf(1), 0
	for i, w := range wrapped {
		if d := cplx.WrappedPhaseDistance(w, wt); d < best {
			best, arg = d, i
		}
	}
	return uint8(arg)
}

// SolveTarget solves Eqn 7: it finds the discrete configuration whose array
// factor best approximates the desired complex weight. The solver greedily
// phase-aligns atoms toward the target direction, rescales by dropping atoms
// into canceling pairs when the target magnitude is small, then runs
// coordinate-descent refinement passes (each atom in turn tries all states,
// keeping the best incremental sum). It returns the configuration and the
// achieved ideal response. Solving many targets against the same path
// phases, bind them once with NewSolver instead.
func (s *Surface) SolveTarget(target complex128, pathPhases []float64) (Config, complex128) {
	return s.NewSolver(pathPhases).Solve(target)
}

// SolveTargetGreedy runs only the greedy phase-alignment initialization of
// the Eqn 7 solver, without coordinate-descent refinement. It exists for
// the solver-refinement ablation: greedy alignment alone matches the target
// phase but not its magnitude.
func (s *Surface) SolveTargetGreedy(target complex128, pathPhases []float64) (Config, complex128) {
	cfg := s.alignConfig(cmplx.Phase(target), pathPhases)
	return cfg, s.Response(cfg, pathPhases)
}

// SolveTargetCompensated solves Eqn 8: it targets H_des − H_e so the
// realized total channel (MTS path + known static environment) equals the
// desired weight. This is the explicit-estimation alternative to the
// zero-mean cancellation scheme; it requires a static environment.
func (s *Surface) SolveTargetCompensated(des, env complex128, pathPhases []float64) (Config, complex128) {
	return s.SolveTarget(des-env, pathPhases)
}

// BeamScan estimates the receiver angle θ by sweeping beam-steering
// configurations over a grid and returning the angle whose beam collects the
// most power at the true receiver direction (§3.2: "standard beam scanning
// techniques"). stepDeg sets the scan resolution; the residual quantization
// error is one source of prototype-vs-simulation accuracy gap.
func (s *Surface) BeamScan(g Geometry, stepDeg float64) float64 {
	if stepDeg <= 0 {
		stepDeg = 1
	}
	truth := s.PathPhases(g)
	best, bestAngle := -1.0, 0.0
	for a := -80.0; a <= 80.0; a += stepDeg {
		cand := g
		cand.RxAngleDeg = a
		// Steer a beam toward candidate angle a…
		cfg := s.alignConfig(0, s.PathPhases(cand))
		// …and measure the power actually delivered to the true Rx.
		p := cmplx.Abs(s.Response(cfg, truth))
		if p > best {
			best, bestAngle = p, a
		}
	}
	return bestAngle
}
