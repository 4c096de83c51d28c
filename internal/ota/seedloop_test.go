package ota

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/clocksync"
	"repro/internal/cplx"
	"repro/internal/rng"
)

// This file keeps the seed's per-symbol replay loop — a Floor, two wrapped
// indices and the blend per symbol — as the oracle the shipped replay loops
// must match bit for bit.

// seedAccumulate is one full inference with every transmission replayed by
// the seed loop: accumulate's per-class set-up (hook, channel source and
// realization, offset draw), then slowReplay.
func (s *Session) seedAccumulate(x []complex128) cplx.Vec {
	d := s.d
	dst := make(cplx.Vec, d.classes)
	for r := 0; r < d.classes; r++ {
		if s.hook != nil {
			s.hook.BeginTransmission(r)
		}
		s.chSrc = s.src.SplitInto(s.chSrc)
		var rz *channel.Realization
		if d.compensate {
			rz = d.ch.NewRealizationFromInto(&s.rz, d.envBase, d.calMTSPhase, s.chSrc)
		} else {
			rz = d.ch.NewRealizationInto(&s.rz, s.chSrc)
		}
		var offset float64
		if d.opts.SyncSampler != nil {
			offset = d.opts.SyncSampler(s.src)
		}
		dst[r] = s.slowReplay(r, x, rz, offset)
	}
	return dst
}

// slowReplay is the general per-symbol loop: fault hooks, clock offsets,
// and exact jitter all route here. It is the seed implementation verbatim.
func (s *Session) slowReplay(r int, x []complex128, rz *channel.Realization, offset float64) complex128 {
	d := s.d
	noise2 := d.noise2
	var sum complex128
	for i := range x {
		h := s.effectiveResponse(r, i, offset) * rz.MTSScaleAt(i)
		xi := x[i]
		var extra complex128
		if s.hook != nil {
			h, xi, extra = s.hook.Symbol(r, i, h, xi)
		}
		if d.opts.SubSamples > 0 {
			// Zero-mean chips + synchronized MTS sign flips: the static
			// within-symbol environment integrates to zero, the MTS path
			// adds coherently, and the combined noise keeps the
			// single-sample variance (chip noise is wider-band).
			sum += h*xi + s.src.ComplexNormal(noise2)
		} else {
			env := rz.EnvAt(i) * complex(d.envScale, 0)
			sum += (h+env)*xi + s.src.ComplexNormal(noise2)
		}
		if extra != 0 {
			sum += extra
		}
	}
	return sum
}

// effectiveResponse returns the MTS response seen by data symbol i of output
// r under a schedule/data clock offset (in symbols): an offset with
// fractional part f mixes the two adjacent schedule entries in proportion to
// their time overlap, and jitter perturbs the response per reconfiguration.
func (s *Session) effectiveResponse(r, i int, offset float64) complex128 {
	d := s.d
	if offset == 0 && !(d.opts.ExactJitter && d.opts.JitterStd > 0) {
		// Perfectly synchronized: Floor(0) = 0 and the fractional blend
		// vanishes, so the response is the directly indexed schedule entry
		// (plus jitter). Bit-identical to the general arithmetic below at
		// offset 0.
		h := d.Realized.At(r, i)
		if d.opts.JitterStd > 0 {
			h = h*complex(d.jitterAtt, 0) + s.src.ComplexNormalSD(d.jitterSD)
		}
		return h
	}
	base := math.Floor(offset)
	frac := offset - base
	i0 := wrapIdx(i-int(base), d.u)
	if d.opts.ExactJitter && d.opts.JitterStd > 0 {
		// Atom-by-atom jitter on the actual scheduled configuration(s) —
		// composed per layer when a cascade is deployed.
		h := d.exactJitterResponse(r, i0, s.src)
		if frac >= 1e-9 {
			i1 := wrapIdx(i-int(base)-1, d.u)
			h1 := d.exactJitterResponse(r, i1, s.src)
			h = h*complex(1-frac, 0) + h1*complex(frac, 0)
		}
		return h
	}
	h0 := d.Realized.At(r, i0)
	var h complex128
	if frac < 1e-9 {
		h = h0
	} else {
		h1 := d.Realized.At(r, wrapIdx(i-int(base)-1, d.u))
		h = h0*complex(1-frac, 0) + h1*complex(frac, 0)
	}
	if d.opts.JitterStd > 0 {
		h = h*complex(d.jitterAtt, 0) + s.src.ComplexNormalSD(d.jitterSD)
	}
	return h
}

// seedHook is a fault hook drawing only from its own source: per
// transmission it redraws a fault rate, then erases symbols or halves the
// term and adds interference, so a wrong h or a misplaced hook call
// changes the accumulator.
type seedHook struct {
	src  *rng.Source
	rate float64
}

func (h *seedHook) BeginTransmission(int) { h.rate = 0.3 * h.src.Float64() }

func (h *seedHook) Symbol(_, _ int, hh, x complex128) (complex128, complex128, complex128) {
	switch u := h.src.Float64(); {
	case u < h.rate/2:
		return hh, 0, 0
	case u < h.rate:
		return hh * complex(0.5, 0), x, h.src.ComplexNormalSD(0.05)
	}
	return hh, x, 0
}

// TestReplayMatchesSeedLoop pins the shipped replay loops (fastReplay and
// the general replay, with the offset resolved once per transmission) to
// the seed loop bit for bit: integer, fractional, negative and beyond-U
// clock offsets, fractions on both sides of the blend threshold, and the
// shipped CDFA sampler, across every replay variant.
func TestReplayMatchesSeedLoop(t *testing.T) {
	_, test, _ := trained(t)
	u := len(test.X[0])
	fu := float64(u)
	type sampler struct {
		name string
		fn   func(*rng.Source) float64
	}
	var samplers []sampler
	for _, off := range []float64{0, 1e-12, 1e-9 - 1e-12, 1e-9, 0.25, 1, 2.5, fu - 0.5, fu, fu + 0.3, 3*fu + 0.75, -0.4, -1, -fu - 0.7} {
		off := off
		samplers = append(samplers, sampler{fmt.Sprintf("offset %g", off), func(*rng.Source) float64 { return off }})
	}
	samplers = append(samplers, sampler{"coarse", clocksync.CoarseSampler(clocksync.ScaledDetector(u), 1e6)})

	variants := []struct {
		name    string
		mod     func(*Options)
		hook    bool
		samples int
	}{
		{"default", nil, false, 12},
		{"subSamples0", func(o *Options) { o.SubSamples = 0 }, false, 12},
		{"noJitter", func(o *Options) { o.JitterStd = 0 }, false, 12},
		{"subSamples0NoJitter", func(o *Options) { o.SubSamples = 0; o.JitterStd = 0 }, false, 12},
		{"staticComp", staticComp, false, 12},
		{"exactJitter", func(o *Options) { o.ExactJitter = true }, false, 2},
		{"hook", nil, true, 12},
		{"hookSubSamples0", func(o *Options) { o.SubSamples = 0 }, true, 12},
		{"cascade2", func(o *Options) { o.Stack = testStack(t, 2) }, false, 12},
	}
	for _, v := range variants {
		base := deployVariant(t, 36, v.mod).Deployment()
		for _, sm := range samplers {
			d := base.WithSyncSampler(sm.fn)
			got, want := d.SessionFromSeed(37), d.SessionFromSeed(37)
			if v.hook {
				got.SetFaultHook(&seedHook{src: rng.New(38)})
				want.SetFaultHook(&seedHook{src: rng.New(38)})
			}
			for k, x := range test.X[:v.samples] {
				g, w := got.Accumulate(x), want.seedAccumulate(x)
				for r := range g {
					if math.Float64bits(real(g[r])) != math.Float64bits(real(w[r])) ||
						math.Float64bits(imag(g[r])) != math.Float64bits(imag(w[r])) {
						t.Fatalf("%s, %s: sample %d class %d: replay %v != seed loop %v", v.name, sm.name, k, r, g[r], w[r])
					}
				}
			}
		}
	}
}
