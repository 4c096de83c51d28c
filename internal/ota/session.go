package ota

import (
	"fmt"
	"math"

	"repro/internal/channel"
	"repro/internal/cplx"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/rng"
)

// Session is one worker's view of a shared Deployment: it owns every piece
// of mutable runtime state an inference needs — the channel/noise source,
// the sync-offset sampler's draws, and the jitter replay stream. Sessions
// are cheap to create and independent of each other; a Session must not be
// used from more than one goroutine at a time, but any number of Sessions
// may run concurrently against the same Deployment.
type Session struct {
	d    *Deployment
	src  *rng.Source
	hook FaultHook
	span *trace.Span

	// Steady-state scratch, lazily built on the first inference: the
	// per-transmission channel source is re-seeded in place (SplitInto) and
	// the realization re-initialized in place (NewRealizationInto), consuming
	// draws exactly as freshly allocated ones would. After warmup,
	// AccumulateInto allocates nothing.
	chSrc *rng.Source
	rz    channel.Realization
	// row holds the played response row of a shifted transmission (see
	// played), sized U on first use.
	row []complex128
}

// FaultHook intercepts a Session's per-symbol physics to inject discrete
// hardware and channel faults (package faults implements the repertoire:
// shift-register glitches, symbol erasures, burst interference, coherence
// collapse). A hook belongs to exactly one session and must draw randomness
// only from its own sources — never from the session's — so that a hook
// whose fault rates are all zero leaves the session's random stream, and
// therefore its accumulators, bit-identical to an unhooked run.
type FaultHook interface {
	// BeginTransmission is called once before each output replay r, letting
	// per-transmission fault processes draw their windows.
	BeginTransmission(r int)
	// Symbol may perturb one per-symbol term: h is the effective MTS
	// response (after sync blending, jitter, and channel scaling), x the
	// data symbol. It returns the possibly perturbed pair plus an additive
	// interference sample (zero when no interference fires).
	Symbol(r, i int, h, x complex128) (hOut, xOut, interference complex128)
}

// SetFaultHook installs (or, with nil, removes) the session's fault hook
// and returns the session for chaining. Hooks are per-session state: wire
// each worker's session its own hook instance.
func (s *Session) SetFaultHook(h FaultHook) *Session {
	s.hook = h
	return s
}

// SetSpan parents the session's next inferences under a trace span (nil
// detaches). Sessions are single-goroutine, so the caller that owns the
// request trace — a serve worker, Pipeline.InferSession — sets the span
// before the inference and clears it after; the span itself never draws
// from the session's random stream, so tracing leaves accumulators
// bit-identical.
func (s *Session) SetSpan(sp *trace.Span) *Session {
	s.span = sp
	return s
}

// Deployment returns the shared immutable deployment this session draws
// inference from.
func (s *Session) Deployment() *Deployment { return s.d }

// Accumulate runs one full over-the-air inference: every output class r is
// computed by replaying the symbol stream against its weight schedule, with
// multipath, noise, jitter, and clock offset applied. It returns the
// complex accumulator per class (before the magnitude of Eqn 3).
func (s *Session) Accumulate(x []complex128) cplx.Vec {
	return s.AccumulateInto(x, make(cplx.Vec, s.d.classes))
}

// AccumulateInto is Accumulate writing into dst (len == Classes) — the
// zero-alloc variant for steady-state serving loops. The accumulator bits
// are identical to Accumulate's: reusing dst and the session's internal
// scratch changes where results live, never what is drawn or summed.
func (s *Session) AccumulateInto(x []complex128, dst cplx.Vec) cplx.Vec {
	d := s.d
	if len(x) != d.u {
		panic(fmt.Sprintf("ota: input length %d, deployed for U=%d", len(x), d.u))
	}
	if len(dst) != d.classes {
		panic(fmt.Sprintf("ota: accumulator length %d, deployment has %d classes", len(dst), d.classes))
	}
	t := obs.StartTimer()
	defer t.ObserveInto(otaInferSeconds)
	otaInferences.Inc()
	otaTransmissions.Add(int64(d.classes))
	otaSymbols.Add(int64(d.classes) * int64(d.u))
	asp := s.span.Child("ota.accumulate")
	asp.SetNum("classes", float64(d.classes))
	asp.SetNum("u", float64(d.u))
	if n := len(d.opts.Stack); n > 0 {
		asp.SetNum("layers", float64(n+1))
	}
	s.accumulate(x, dst, asp)
	asp.End()
	return dst
}

// AccumulateBatch runs one inference per input of xs into dst, in order:
// exactly len(xs) sequential AccumulateInto calls, so the accumulators are
// bit-identical to them at any batch size. dst is grown as needed (entries
// with the right length are reused in place) and returned as dst[:len(xs)].
func (s *Session) AccumulateBatch(xs [][]complex128, dst []cplx.Vec) []cplx.Vec {
	n := len(xs)
	if cap(dst) < n {
		grown := make([]cplx.Vec, n)
		copy(grown, dst[:cap(dst)])
		dst = grown
	}
	dst = dst[:n]
	for b, x := range xs {
		if len(dst[b]) != s.d.classes {
			dst[b] = make(cplx.Vec, s.d.classes)
		}
		s.AccumulateInto(x, dst[b])
	}
	return dst
}

// accumulate is AccumulateInto's physics core: one full inference into
// dst, with per-class replay spans hung under asp when tracing is live.
// Each class replay re-seeds the session's scratch channel source and
// realization in place — draw-for-draw what freshly split/allocated ones
// would consume — resolves the transmission's clock offset once
// (newShift), then dispatches to the fast replay loops unless a fault hook
// or exact jitter needs the general loop.
func (s *Session) accumulate(x []complex128, dst cplx.Vec, asp *trace.Span) {
	d := s.d
	exact := d.opts.ExactJitter && d.opts.JitterStd > 0
	for r := 0; r < d.classes; r++ {
		var rsp *trace.Span
		if asp != nil {
			rsp = asp.Child("ota.replay")
			rsp.SetNum("class", float64(r))
		}
		if s.hook != nil {
			s.hook.BeginTransmission(r)
		}
		s.chSrc = s.src.SplitInto(s.chSrc)
		var rz *channel.Realization
		if d.compensate {
			// The calibrated quasi-static components persist; only scatter
			// and blockage vary. If the environment has drifted since
			// calibration (a dynamic interferer), the stale estimate leaks.
			rz = d.ch.NewRealizationFromInto(&s.rz, d.envBase, d.calMTSPhase, s.chSrc)
		} else {
			rz = d.ch.NewRealizationInto(&s.rz, s.chSrc)
		}
		var offset float64
		if d.opts.SyncSampler != nil {
			offset = d.opts.SyncSampler(s.src)
		}
		sh := newShift(offset, d.u)
		var sum complex128
		if s.hook == nil && !exact {
			sum = s.fastReplay(x, s.played(r, sh), rz)
		} else {
			sum = s.replay(r, x, rz, sh, exact)
		}
		dst[r] = sum
		if rsp != nil {
			rsp.SetNum("acc_re", real(sum))
			rsp.SetNum("acc_im", imag(sum))
			rsp.End()
		}
	}
}

// blendEps is the smallest fractional clock offset that blends two
// adjacent schedule slots; below it the offset counts as whole symbols.
const blendEps = 1e-9

// shift is one transmission's schedule/data clock offset (in symbols)
// resolved against a U-slot schedule: data symbol i meets slot
// (start+i) mod U and, when blend is set, the slot before it too, the two
// weighted by their time overlap w0 = 1−frac and w1 = frac.
type shift struct {
	start  int
	blend  bool
	w0, w1 complex128
}

// newShift resolves offset once per transmission — the floor, fraction,
// blend weights and starting slot — so no replay loop takes a Floor or a
// modulo per symbol.
func newShift(offset float64, u int) shift {
	base := math.Floor(offset)
	frac := offset - base
	sh := shift{start: wrapIdx(-int(base), u)}
	if frac >= blendEps {
		sh.blend = true
		sh.w0, sh.w1 = complex(1-frac, 0), complex(frac, 0)
	}
	return sh
}

// wrapIdx reduces k into [0, n) with Euclidean wrap-around.
func wrapIdx(k, n int) int {
	return ((k % n) + n) % n
}

// played returns output r's realized response row as the data stream meets
// it under sh: entry i is Realized(r, (start+i) mod U), blended with the
// slot before it when sh.blend is set. An unshifted transmission (offset 0
// included) plays the realized row itself; any other goes into the
// session's row scratch, allocated once.
func (s *Session) played(r int, sh shift) []complex128 {
	d := s.d
	realized := d.Realized.Data[r*d.u : (r+1)*d.u]
	if sh.start == 0 && !sh.blend {
		return realized
	}
	if s.row == nil {
		s.row = make([]complex128, d.u)
	}
	row := s.row
	if !sh.blend {
		n := copy(row, realized[sh.start:])
		copy(row[n:], realized[:sh.start])
		return row
	}
	i0, i1 := sh.start, wrapIdx(sh.start-1, d.u)
	for i := range row {
		row[i] = realized[i0]*sh.w0 + realized[i1]*sh.w1
		i1 = i0
		if i0++; i0 == d.u {
			i0 = 0
		}
	}
	return row
}

// fastReplay is the per-symbol loop for every unhooked transmission with
// closed-form jitter, whatever its clock offset: row is the played response
// row, per-symbol channel state comes from one fused Realization.Step call,
// and noise/jitter draws use the hoisted standard deviations. Each variant
// keeps the general loop's per-source draw order and floating-point
// grouping, so the accumulators are bit-identical to it.
func (s *Session) fastReplay(x, row []complex128, rz *channel.Realization) complex128 {
	d := s.d
	noiseSD := d.noiseSD
	row = row[:len(x)] // lets the compiler drop the per-symbol bounds checks
	var sum complex128
	if d.opts.SubSamples > 0 {
		if d.opts.JitterStd > 0 {
			jatt, jsd := complex(d.jitterAtt, 0), d.jitterSD
			for i, xi := range x {
				_, scale := rz.Step(i)
				h := (row[i]*jatt + s.src.ComplexNormalSD(jsd)) * scale
				sum += h*xi + s.src.ComplexNormalSD(noiseSD)
			}
		} else {
			for i, xi := range x {
				_, scale := rz.Step(i)
				sum += (row[i]*scale)*xi + s.src.ComplexNormalSD(noiseSD)
			}
		}
		return sum
	}
	envScale := complex(d.envScale, 0)
	if d.opts.JitterStd > 0 {
		jatt, jsd := complex(d.jitterAtt, 0), d.jitterSD
		for i, xi := range x {
			env, scale := rz.Step(i)
			h := (row[i]*jatt + s.src.ComplexNormalSD(jsd)) * scale
			sum += (h+env*envScale)*xi + s.src.ComplexNormalSD(noiseSD)
		}
	} else {
		for i, xi := range x {
			env, scale := rz.Step(i)
			sum += (row[i]*scale+env*envScale)*xi + s.src.ComplexNormalSD(noiseSD)
		}
	}
	return sum
}

// replay is the general per-symbol loop, for fault hooks and exact jitter.
// On the session source it draws the jitter (or the atom-by-atom exact
// jitter of the two hoisted slots), then lets the hook perturb the term,
// then draws receiver noise; scatter stays on the channel source. With
// closed-form jitter it reads the played row, as fastReplay does.
func (s *Session) replay(r int, x []complex128, rz *channel.Realization, sh shift, exact bool) complex128 {
	d := s.d
	var row []complex128
	if !exact {
		row = s.played(r, sh)
	}
	jatt, jsd := complex(d.jitterAtt, 0), d.jitterSD
	envScale := complex(d.envScale, 0)
	i0, i1 := sh.start, wrapIdx(sh.start-1, d.u)
	var sum complex128
	for i, xi := range x {
		var h complex128
		if exact {
			// Atom-by-atom jitter on the actual scheduled configuration(s) —
			// composed per layer when a cascade is deployed.
			h = d.exactJitterResponse(r, i0, s.src)
			if sh.blend {
				h1 := d.exactJitterResponse(r, i1, s.src)
				h = h*sh.w0 + h1*sh.w1
			}
			i1 = i0
			if i0++; i0 == d.u {
				i0 = 0
			}
		} else {
			h = row[i]
			if d.opts.JitterStd > 0 {
				h = h*jatt + s.src.ComplexNormalSD(jsd)
			}
		}
		env, scale := rz.Step(i)
		h *= scale
		var extra complex128
		if s.hook != nil {
			h, xi, extra = s.hook.Symbol(r, i, h, xi)
		}
		if d.opts.SubSamples > 0 {
			// Zero-mean chips + synchronized MTS sign flips: the static
			// within-symbol environment integrates to zero, the MTS path
			// adds coherently, and the combined noise keeps the
			// single-sample variance (chip noise is wider-band).
			sum += h*xi + s.src.ComplexNormalSD(d.noiseSD)
		} else {
			sum += (h+env*envScale)*xi + s.src.ComplexNormalSD(d.noiseSD)
		}
		if extra != 0 {
			sum += extra
		}
	}
	return sum
}

// Logits returns |accumulator| per class — the y_r of Eqn 3.
func (s *Session) Logits(x []complex128) []float64 {
	return s.Accumulate(x).Abs()
}

// Predict classifies one encoded input over the air.
func (s *Session) Predict(x []complex128) int {
	return cplx.Argmax(s.Logits(x))
}
