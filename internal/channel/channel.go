// Package channel models the wireless propagation environment the MetaAI
// prototype was evaluated in: free-space path loss on the Tx→MTS→Rx path,
// environmental multipath whose strength depends on the room (corridor,
// office, laboratory — §5.2), line-of-sight blockage (NLoS corner, §5.3),
// wall penetration loss (cross-room, §5.3), directional vs omni-directional
// antennas (Fig 17), and a walking interferer (Fig 26).
//
// The model follows the paper's signal decomposition: the receiver observes
// (H_mts + H_e)·x + n, where H_mts is the programmable metasurface path and
// H_e is everything else. H_e is static within one symbol period but may
// change between symbols (the regime in which the §3.2 multipath
// cancellation is exact); a dynamic interferer makes H_e drift across
// symbols and, when it blocks the MTS-Rx path, attenuates H_mts itself.
package channel

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// SpeedOfLight in m/s.
const SpeedOfLight = 299792458.0

// Environment identifies one of the indoor deployment environments used in
// the evaluation.
type Environment int

const (
	// Corridor is the low-multipath environment of Fig 17.
	Corridor Environment = iota
	// Office is the default evaluation environment (Fig 15).
	Office
	// Laboratory is the richest-multipath environment of Fig 17.
	Laboratory
	// NLoSCorner places the MTS at a corridor intersection with no Tx-Rx
	// visibility (Fig 21): all received energy arrives via the MTS.
	NLoSCorner
	// CrossRoom separates Tx/MTS and Rx by one or more walls (Fig 27).
	CrossRoom
)

var envNames = map[Environment]string{
	Corridor:   "corridor",
	Office:     "office",
	Laboratory: "laboratory",
	NLoSCorner: "nlos-corner",
	CrossRoom:  "cross-room",
}

// String returns the environment name.
func (e Environment) String() string {
	if n, ok := envNames[e]; ok {
		return n
	}
	return fmt.Sprintf("Environment(%d)", int(e))
}

// multipathRel is the RMS magnitude of the environmental response H_e
// relative to the MTS-path response, per environment. Corridors are nearly
// multipath-free; laboratories are cluttered.
func (e Environment) multipathRel() float64 {
	switch e {
	case Corridor:
		return 0.18
	case Office:
		return 0.45
	case Laboratory:
		return 0.70
	case NLoSCorner:
		return 0.25 // no direct path; residual scatter only
	case CrossRoom:
		return 0.40
	default:
		return 0.45
	}
}

// hasDirectPath reports whether a Tx→Rx path that bypasses the MTS exists.
func (e Environment) hasDirectPath() bool {
	return e != NLoSCorner
}

// Antenna identifies the Tx/Rx antenna type used in Fig 17.
type Antenna int

const (
	// Directional antennas focus on the MTS and suppress off-axis
	// multipath.
	Directional Antenna = iota
	// Omni antennas pick up the full environmental scatter.
	Omni
)

// String returns the antenna name used in the paper's figures.
func (a Antenna) String() string {
	if a == Directional {
		return "Dire"
	}
	return "Omni"
}

// multipathFactor scales environmental multipath by antenna selectivity.
func (a Antenna) multipathFactor() float64 {
	if a == Directional {
		return 0.5
	}
	return 1.4
}

// InterferenceRegion identifies where a walking interferer moves relative to
// the link geometry (Fig 26(a)).
type InterferenceRegion int

const (
	// NoInterferer disables the dynamic interferer.
	NoInterferer InterferenceRegion = iota
	// RegionR1 through RegionR3 are off-path regions: the interferer only
	// perturbs environmental scatter between symbols.
	RegionR1
	RegionR2
	RegionR3
	// RegionR4 crosses the MTS-Rx direct path, periodically attenuating the
	// computing path itself.
	RegionR4
)

// String returns the region label used in Fig 26.
func (r InterferenceRegion) String() string {
	switch r {
	case NoInterferer:
		return "none"
	case RegionR1:
		return "R1"
	case RegionR2:
		return "R2"
	case RegionR3:
		return "R3"
	case RegionR4:
		return "R4"
	}
	return fmt.Sprintf("Region(%d)", int(r))
}

// scatterDrift returns how strongly the walking interferer re-randomizes
// H_e between symbols, and blockProb the per-symbol probability that it
// shadows the MTS-Rx path.
func (r InterferenceRegion) scatterDrift() (drift, blockProb, blockDepth float64) {
	switch r {
	case RegionR1:
		return 0.25, 0, 0
	case RegionR2:
		return 0.35, 0, 0
	case RegionR3:
		return 0.45, 0, 0
	case RegionR4:
		return 0.45, 0.30, 0.45 // shadowing knocks ~7 dB off the MTS path
	default:
		return 0, 0, 0
	}
}

// Params configures a channel model instance. The zero value is not useful;
// use Default for the paper's default setup (§4: office, 5.25 GHz, Tx-MTS
// 1 m at 30°, MTS-Rx 3 m at 40°).
type Params struct {
	Env       Environment
	Antenna   Antenna
	FreqGHz   float64
	TxMTSDist float64 // meters
	MTSRxDist float64 // meters
	TxPowerDB float64 // transmit power proxy; the Fig 19 sweep varies 5–30 dB
	Walls     int     // intervening walls on the MTS→Rx path (CrossRoom)
	Interf    InterferenceRegion
	// DopplerHz is the carrier frequency offset a moving receiver induces
	// (f_D = v·f/c: ~17.5 Hz per m/s at 5.25 GHz, §7's mobility regime).
	// It rotates the MTS-path phase across symbols, eroding the coherence
	// of the receiver's accumulation.
	DopplerHz float64
	// SymbolRateHz converts the Doppler shift into a per-symbol phase step;
	// zero means the §4 default of 1 Msym/s.
	SymbolRateHz float64
}

// Default returns the paper's default experimental setup.
func Default() Params {
	return Params{
		Env:       Office,
		Antenna:   Directional,
		FreqGHz:   5.25,
		TxMTSDist: 1,
		MTSRxDist: 3,
		TxPowerDB: 20,
		Walls:     0,
		Interf:    NoInterferer,
	}
}

// Wavelength returns the carrier wavelength in meters.
func (p Params) Wavelength() float64 { return SpeedOfLight / (p.FreqGHz * 1e9) }

// wallLossDB is the penetration loss per interior wall at sub-6 GHz.
const wallLossDB = 5.0

// refSNRDB anchors the link budget: the default setup (TxPower 20 dB,
// 1 m + 3 m, no walls) yields this per-sample SNR on the MTS path. The
// anchor is chosen so the link stays compute-limited across the paper's
// distance sweeps (Figs 21/24/27 stay above ~70% out to 22 m) and becomes
// noise-limited only at the low end of the Fig 19 power sweep.
const refSNRDB = 30.0

// SNRdB returns the per-sample SNR of the MTS-path signal at the receiver,
// combining transmit power, two-hop distance spreading, and wall loss.
// Distances below 0.1 m are clamped to avoid a near-field singularity.
func (p Params) SNRdB() float64 {
	d1 := math.Max(p.TxMTSDist, 0.1)
	d2 := math.Max(p.MTSRxDist, 0.1)
	ref := 1.0 * 3.0 // default d1·d2 product
	spreading := 20 * math.Log10(d1*d2/ref)
	return refSNRDB + (p.TxPowerDB - 20) - spreading - float64(p.Walls)*wallLossDB
}

// NoiseSigma2 converts the link SNR into a per-sample complex noise variance
// for a unit-power MTS-path signal.
func (p Params) NoiseSigma2() float64 {
	return math.Pow(10, -p.SNRdB()/10)
}

// FSPLAmplitude returns the free-space amplitude gain λ/(4πd) of a single
// hop. The MTS path combines two hops; per Eqn 4 this common factor α_p
// scales every output equally and never changes the classification decision,
// but it matters for absolute SNR and for the energy model.
func (p Params) FSPLAmplitude(d float64) float64 {
	d = math.Max(d, 0.1)
	return p.Wavelength() / (4 * math.Pi * d)
}

// Model is an instantiated channel. Create per-inference Realizations to
// draw the random multipath and noise.
type Model struct {
	p Params

	// Derived constants, fixed at New: realizations are re-drawn per
	// transmission on the serving hot path, and none of these depend on
	// anything but Params — recomputing the link budget's pow/log chain per
	// realization would cost more than the draws themselves. Every value is
	// computed by exactly the arithmetic the per-realization code used, so
	// the cached constants are bit-identical to recomputation.
	envRMS     float64
	drift      float64
	blockProb  float64
	blockDepth float64
	noise2     float64
	dopStep    float64
	baseSD     float64 // per-component SD of the NLoS envBase draw
	scatterSD  float64 // per-component SD of the per-symbol scatter draw
	driftSD    float64 // per-component SD of the interferer drift draw
}

// New returns a channel model for the given parameters.
func New(p Params) *Model {
	if p.FreqGHz <= 0 {
		p.FreqGHz = 5.25
	}
	m := &Model{p: p}
	rel := p.Env.multipathRel() * p.Antenna.multipathFactor()
	m.envRMS = rel
	m.drift, m.blockProb, m.blockDepth = p.Interf.scatterDrift()
	m.noise2 = p.NoiseSigma2()
	if p.DopplerHz != 0 {
		rate := p.SymbolRateHz
		if rate <= 0 {
			rate = 1e6
		}
		m.dopStep = 2 * math.Pi * p.DopplerHz / rate
	}
	m.baseSD = math.Sqrt(rel * rel * 0.25 / 2)
	m.scatterSD = math.Sqrt(rel * rel * 0.3 / 2)
	m.driftSD = math.Sqrt(m.drift * m.drift * rel * rel / 2)
	return m
}

// Params returns the model's configuration.
func (m *Model) Params() Params { return m.p }

// Realization is one random draw of the environment for a single
// transmission: a sequence of per-symbol environmental responses plus the
// MTS-path scale. It is deterministic given the rng source.
type Realization struct {
	envBase    complex128 // quasi-static environment component
	envRMS     float64
	drift      float64
	blockProb  float64
	blockDepth float64
	mtsScale   complex128
	dopStep    float64 // per-symbol Doppler phase increment (radians)
	noise2     float64
	scatterSD  float64 // hoisted per-component SD of the scatter draw
	driftSD    float64 // hoisted per-component SD of the drift draw
	src        *rng.Source

	cur       complex128
	curSymbol int
	blocked   bool
}

// NewRealizationFrom builds a realization whose quasi-static components —
// the environment base AND the MTS-path phase — are the given values
// instead of fresh draws. This is the regime the Eqn 8 compensation
// approach assumes: for a static deployment, both paths persist coherently
// between a calibration pass and later transmissions. Scatter, blockage,
// and noise still vary per symbol.
func (m *Model) NewRealizationFrom(base, mtsPhase complex128, src *rng.Source) *Realization {
	return m.NewRealizationFromInto(new(Realization), base, mtsPhase, src)
}

// NewRealizationFromInto is NewRealizationFrom writing into rz — the
// allocation-free variant for steady-state loops that redraw a realization
// per transmission. It consumes the same draws from src and leaves rz in
// the same state a fresh NewRealizationFrom would return. Because the
// drawn quasi-static values are immediately replaced by the calibrated
// ones, only the stream consumption is replayed: the uniform draws happen
// (keeping src bit-aligned with NewRealizationInto), but the trigonometry
// that would shape the discarded values is skipped.
func (m *Model) NewRealizationFromInto(rz *Realization, base, mtsPhase complex128, src *rng.Source) *Realization {
	r := rz
	*r = Realization{
		envRMS:     m.envRMS,
		drift:      m.drift,
		blockProb:  m.blockProb,
		blockDepth: m.blockDepth,
		noise2:     m.noise2,
		dopStep:    m.dopStep,
		scatterSD:  m.scatterSD,
		driftSD:    m.driftSD,
		src:        src,
		curSymbol:  -1,
	}
	if m.p.Env.hasDirectPath() {
		src.Float64() // envBase real-part phase (Phase() is one uniform)
		src.Float64() // envBase imag-part phase
	} else {
		src.ComplexNormalSD(m.baseSD) // envBase normal draw
	}
	src.Float64() // mtsScale global phase
	r.envBase = base
	r.mtsScale = mtsPhase
	return r
}

// Base returns the realization's quasi-static environment component — what
// an explicit channel-estimation pass (MTS disabled, §3.2) would measure.
func (r *Realization) Base() complex128 { return r.envBase }

// MTSPhase returns the quasi-static unit-modulus phase of the MTS path
// (the common e^{jk·d_1,Rx} factor), which a coherent calibration pass also
// measures.
func (r *Realization) MTSPhase() complex128 { return r.mtsScale }

// NewRealization draws a fresh channel realization. src drives all
// randomness so experiments are reproducible.
func (m *Model) NewRealization(src *rng.Source) *Realization {
	return m.NewRealizationInto(new(Realization), src)
}

// NewRealizationInto is NewRealization writing into rz — the allocation-free
// variant for hot loops. It consumes the same draws from src and leaves rz
// in the same state a fresh NewRealization would return.
func (m *Model) NewRealizationInto(rz *Realization, src *rng.Source) *Realization {
	r := rz
	*r = Realization{
		envRMS:     m.envRMS,
		drift:      m.drift,
		blockProb:  m.blockProb,
		blockDepth: m.blockDepth,
		noise2:     m.noise2,
		dopStep:    m.dopStep,
		scatterSD:  m.scatterSD,
		driftSD:    m.driftSD,
		src:        src,
		curSymbol:  -1,
	}
	// Quasi-static environment response: Rician-like with a dominant static
	// component plus scatter. The direct Tx→Rx path exists in all LoS
	// environments.
	if m.p.Env.hasDirectPath() {
		rel := m.envRMS
		r.envBase = complex(rel*math.Cos(src.Phase()), rel*math.Sin(src.Phase()))
	} else {
		r.envBase = src.ComplexNormalSD(m.baseSD)
	}
	// MTS path random global phase (distance-dependent common factor
	// e^{jk·d1Rx} of Eqn 6 — provably irrelevant to classification, kept to
	// prove it).
	ph := src.Phase()
	r.mtsScale = complex(math.Cos(ph), math.Sin(ph))
	return r
}

// EnvAt returns the environmental (non-MTS) channel response during symbol
// sym. The response is constant within a symbol — the walking interferer of
// Fig 26 moves far slower than the symbol rate — and re-drawn across symbols
// when an interferer is present.
func (r *Realization) EnvAt(sym int) complex128 {
	if sym != r.curSymbol {
		r.curSymbol = sym
		scatter := r.src.ComplexNormalSD(r.scatterSD)
		if r.drift > 0 {
			scatter += r.src.ComplexNormalSD(r.driftSD)
		}
		r.cur = r.envBase + scatter
		r.blocked = r.blockProb > 0 && r.src.Bernoulli(r.blockProb)
	}
	return r.cur
}

// MTSScaleAt returns the complex scale applied to the metasurface path
// during symbol sym, including interferer shadowing in region R4 and the
// Doppler phase ramp of a moving receiver. Unlike the constant global
// phase, a phase that ROTATES across symbols is not harmless: the
// accumulation Σ H_i·x_i·e^{jθ·i} loses coherence once θ·U approaches π.
func (r *Realization) MTSScaleAt(sym int) complex128 {
	r.EnvAt(sym) // ensure per-symbol state for sym is drawn
	scale := r.mtsScale
	if r.dopStep != 0 {
		th := r.dopStep * float64(sym)
		sin, cos := math.Sincos(th)
		scale *= complex(cos, sin)
	}
	if r.blocked {
		return scale * complex(1-r.blockDepth, 0)
	}
	return scale
}

// Step advances the realization to symbol sym and returns both the
// environmental response and the MTS-path scale in one call — EnvAt and
// MTSScaleAt fused, drawing per-symbol randomness exactly once in the same
// order, so a loop over Step is bit-identical to the two-call sequence.
// Inference hot loops use it to halve per-symbol call overhead.
func (r *Realization) Step(sym int) (env, scale complex128) {
	if sym != r.curSymbol {
		r.curSymbol = sym
		scatter := r.src.ComplexNormalSD(r.scatterSD)
		if r.drift > 0 {
			scatter += r.src.ComplexNormalSD(r.driftSD)
		}
		r.cur = r.envBase + scatter
		r.blocked = r.blockProb > 0 && r.src.Bernoulli(r.blockProb)
	}
	scale = r.mtsScale
	if r.dopStep != 0 {
		th := r.dopStep * float64(sym)
		sin, cos := math.Sincos(th)
		scale *= complex(cos, sin)
	}
	if r.blocked {
		scale *= complex(1-r.blockDepth, 0)
	}
	return r.cur, scale
}

// Noise returns one complex receiver-noise sample for a unit-power MTS-path
// signal.
func (r *Realization) Noise() complex128 {
	return r.src.ComplexNormal(r.noise2)
}

// NoiseSigma2 returns the per-sample noise variance of this realization.
func (r *Realization) NoiseSigma2() float64 { return r.noise2 }
