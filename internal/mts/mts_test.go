package mts

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func ideal16() *Surface {
	s, err := NewSurface(16, 16, 2, 5.25, nil)
	if err != nil {
		panic(err)
	}
	return s
}

func TestNewSurfaceValidation(t *testing.T) {
	if _, err := NewSurface(0, 16, 2, 5.25, nil); err == nil {
		t.Error("expected error for zero rows")
	}
	if _, err := NewSurface(16, 16, 0, 5.25, nil); err == nil {
		t.Error("expected error for zero bits")
	}
	if _, err := NewSurface(16, 16, 9, 5.25, nil); err == nil {
		t.Error("expected error for >8 bits")
	}
	if _, err := NewSurface(16, 16, 2, 0, nil); err == nil {
		t.Error("expected error for zero frequency")
	}
}

func TestStates2Bit(t *testing.T) {
	s := ideal16()
	want := []float64{0, math.Pi / 2, math.Pi, 3 * math.Pi / 2}
	states := s.States()
	if len(states) != 4 {
		t.Fatalf("2-bit surface has %d states", len(states))
	}
	for i, st := range states {
		if math.Abs(st-want[i]) > 1e-12 {
			t.Errorf("state %d = %v, want %v", i, st, want[i])
		}
	}
}

func TestSpacingDefaultsToHalfWavelength(t *testing.T) {
	s := ideal16()
	if got, want := s.Spacing(), s.Wavelength()/2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spacing %v, want λ/2 = %v", got, want)
	}
	s.SpacingM = 0.01
	if s.Spacing() != 0.01 {
		t.Fatal("explicit spacing ignored")
	}
}

func TestPathPhasesInRange(t *testing.T) {
	s := ideal16()
	pp := s.PathPhases(DefaultGeometry())
	if len(pp) != 256 {
		t.Fatalf("got %d path phases", len(pp))
	}
	for m, p := range pp {
		if p < 0 || p >= 2*math.Pi {
			t.Fatalf("phase %d = %v out of [0,2π)", m, p)
		}
	}
}

func TestPathPhasesVaryAcrossAtoms(t *testing.T) {
	s := ideal16()
	pp := s.PathPhases(DefaultGeometry())
	distinct := map[float64]struct{}{}
	for _, p := range pp {
		distinct[math.Round(p*1e9)] = struct{}{}
	}
	if len(distinct) < 64 {
		t.Fatalf("only %d distinct path phases; geometry model too degenerate", len(distinct))
	}
}

func TestResponseMagnitudeBounds(t *testing.T) {
	s := ideal16()
	pp := s.PathPhases(DefaultGeometry())
	src := rng.New(1)
	cfg := make(Config, s.Atoms())
	for i := 0; i < 50; i++ {
		for m := range cfg {
			cfg[m] = uint8(src.IntN(4))
		}
		if r := cmplx.Abs(s.Response(cfg, pp)); r > float64(s.Atoms())+1e-9 {
			t.Fatalf("response magnitude %v exceeds atom count", r)
		}
	}
}

func TestMaxResponseNearAtomCount(t *testing.T) {
	// With 2-bit states the best phase alignment is within ±π/4 per atom, so
	// the max array factor is at least M·cos(π/4) ≈ 0.90·M (expected value
	// M·sinc(π/4) ≈ 0.9·M).
	s := ideal16()
	pp := s.PathPhases(DefaultGeometry())
	got := s.MaxResponse(pp)
	if got < 0.88*256 || got > 256 {
		t.Fatalf("MaxResponse = %v, want within [0.88·256, 256]", got)
	}
}

func TestSolveTargetAccuracy(t *testing.T) {
	s := ideal16()
	pp := s.PathPhases(DefaultGeometry())
	maxR := s.MaxResponse(pp)
	src := rng.New(2)
	var worst float64
	for i := 0; i < 40; i++ {
		// Targets well inside the achievable disk, arbitrary phase.
		mag := (0.05 + 0.6*src.Float64()) * maxR
		target := complex(mag*math.Cos(src.Phase()), mag*math.Sin(src.Phase()))
		_, got := s.SolveTarget(target, pp)
		relErr := cmplx.Abs(got-target) / maxR
		if relErr > worst {
			worst = relErr
		}
	}
	// 256 2-bit atoms approximate interior targets to a small fraction of
	// the dynamic range (Fig 6's dense coverage).
	if worst > 0.01 {
		t.Fatalf("worst relative solve error = %v, want < 1%%", worst)
	}
}

func TestSolveTargetImprovesWithAtoms(t *testing.T) {
	// Fig 6 / Fig 7: more atoms -> denser complex-plane coverage -> lower
	// approximation error.
	src := rng.New(3)
	var errs []float64
	for _, grid := range []int{4, 8, 16} {
		s, err := NewSurface(grid, grid, 2, 5.25, nil)
		if err != nil {
			t.Fatal(err)
		}
		pp := s.PathPhases(DefaultGeometry())
		maxR := s.MaxResponse(pp)
		var total float64
		probe := src.Split()
		for i := 0; i < 30; i++ {
			mag := 0.5 * probe.Float64() * maxR
			target := complex(mag*math.Cos(probe.Phase()), mag*math.Sin(probe.Phase()))
			_, got := s.SolveTarget(target, pp)
			total += cmplx.Abs(got-target) / maxR
		}
		errs = append(errs, total/30)
	}
	if !(errs[0] > errs[1] && errs[1] > errs[2]) {
		t.Fatalf("solve error should fall with atom count, got %v", errs)
	}
}

func TestSolveTargetCompensated(t *testing.T) {
	s := ideal16()
	pp := s.PathPhases(DefaultGeometry())
	des := complex(40.0, -25.0)
	env := complex(12.0, 5.0)
	cfg, _ := s.SolveTargetCompensated(des, env, pp)
	total := s.Response(cfg, pp) + env
	if cmplx.Abs(total-des) > 0.02*s.MaxResponse(pp) {
		t.Fatalf("compensated channel %v, want %v", total, des)
	}
}

func TestRealizedResponseJitter(t *testing.T) {
	s := ideal16()
	pp := s.PathPhases(DefaultGeometry())
	cfg, ideal := s.SolveTarget(complex(60, 30), pp)
	src := rng.New(4)
	if got := s.RealizedResponse(cfg, pp, 0, src); got != s.Response(cfg, pp) {
		t.Fatal("zero jitter must reproduce the ideal response")
	}
	// Jittered responses deviate but stay near the ideal for small σ.
	var dev float64
	const n = 50
	for i := 0; i < n; i++ {
		dev += cmplx.Abs(s.RealizedResponse(cfg, pp, 0.1, src) - ideal)
	}
	dev /= n
	if dev == 0 {
		t.Fatal("jitter had no effect")
	}
	if dev > 0.15*cmplx.Abs(ideal)+5 {
		t.Fatalf("0.1 rad jitter deviates by %v from |%v|", dev, cmplx.Abs(ideal))
	}
}

func TestElementGainFoV(t *testing.T) {
	if g := ElementGain(0); math.Abs(g-1) > 1e-12 {
		t.Fatalf("boresight gain %v, want 1", g)
	}
	if ElementGain(90) != 0 || ElementGain(120) != 0 {
		t.Fatal("gain beyond 90° must be zero")
	}
	// Monotone decreasing in |angle|.
	prev := math.Inf(1)
	for a := 0.0; a <= 89; a += 1 {
		g := ElementGain(a)
		if g > prev {
			t.Fatalf("gain not monotone at %v°", a)
		}
		prev = g
	}
	// Fig 25: sharp drop past the 60° FoV edge.
	in := ElementGain(60)
	out := ElementGain(80)
	if out > 0.55*in {
		t.Fatalf("gain at 80° (%v) should be far below gain at 60° (%v)", out, in)
	}
}

func TestElementGainSymmetric(t *testing.T) {
	err := quick.Check(func(raw float64) bool {
		a := math.Mod(math.Abs(raw), 90)
		return math.Abs(ElementGain(a)-ElementGain(-a)) < 1e-12
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestBeamScanFindsRxAngle(t *testing.T) {
	s := ideal16()
	for _, trueAngle := range []float64{-40, -10, 0, 25, 55} {
		g := DefaultGeometry()
		g.RxAngleDeg = trueAngle
		got := s.BeamScan(g, 1)
		if math.Abs(got-trueAngle) > 3 {
			t.Errorf("beam scan estimated %v°, true %v°", got, trueAngle)
		}
	}
}

// TestBeamScanMatchesSerialScan: BeamScan scores its candidate angles in
// parallel and must pick the angle a serial scan picks, ties included, at
// a step whose repeated addition is inexact too.
func TestBeamScanMatchesSerialScan(t *testing.T) {
	s := Prototype(rng.New(5))
	for _, trueAngle := range []float64{-40, 0, 25} {
		g := DefaultGeometry()
		g.RxAngleDeg = trueAngle
		for _, step := range []float64{1, 0.7} {
			truth := s.PathPhases(g)
			best, want := -1.0, 0.0
			for a := -80.0; a <= 80.0; a += step {
				cand := g
				cand.RxAngleDeg = a
				if p := cmplx.Abs(s.Response(s.alignConfig(0, s.PathPhases(cand)), truth)); p > best {
					best, want = p, a
				}
			}
			if got := s.BeamScan(g, step); got != want {
				t.Errorf("Rx at %v°, step %v°: beam scan picked %v°, the serial scan %v°", trueAngle, step, got, want)
			}
		}
	}
}

func TestWDDIncreasesWithAtomsAndSaturates(t *testing.T) {
	opt := DefaultWDDOptions()
	var vals []float64
	for _, grid := range []int{4, 8, 16, 23, 32} {
		s, err := NewSurface(grid, grid, 2, 5.25, nil)
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, s.WDD(opt, nil))
	}
	if !(vals[0] < vals[1] && vals[1] < vals[2]) {
		t.Fatalf("WDD should rise with atoms: %v", vals)
	}
	// Fig 30: sharp rise then saturation at the 256-atom knee — the surfaces
	// past 16×16 gain far less than the step up to 16×16 did.
	gainTo256 := vals[2] / vals[1]
	gainPast256 := vals[4] / vals[2]
	if gainPast256 > 1.35 || gainTo256 < 2 {
		t.Fatalf("WDD should saturate near 256 atoms: %v", vals)
	}
	for _, v := range vals {
		if v < 0 || v > 1.0+1e-9 {
			t.Fatalf("WDD out of [0,1]: %v", vals)
		}
	}
}

func TestWDDMonteCarloPathAgreesForCoarseGrid(t *testing.T) {
	// A 3-bit surface exercises the Monte-Carlo fallback; its WDD at equal
	// atom count must be at least that of the 2-bit surface (denser states).
	opt := WDDOptions{Epsilon: 0.01, Samples: 20000}
	s2, _ := NewSurface(8, 8, 2, 5.25, nil)
	s3, _ := NewSurface(8, 8, 3, 5.25, nil)
	w2 := s2.WDD(opt, nil)
	w3 := s3.WDD(opt, rng.New(3))
	if w3 <= 0 || w3 > 1 {
		t.Fatalf("3-bit WDD out of range: %v", w3)
	}
	if w3 < 0.5*w2 {
		t.Fatalf("3-bit WDD (%v) implausibly below 2-bit (%v)", w3, w2)
	}
}

func TestPrototypeController(t *testing.T) {
	c := PrototypeController()
	rate := c.MaxSwitchRate(256)
	if math.Abs(rate-2.56e6) > 1e3 {
		t.Fatalf("prototype switch rate = %v, want 2.56 MHz", rate)
	}
	// §4: 1 Msym/s with 2 in-symbol switches fits exactly.
	if err := c.ValidateSchedule(256, 1e6, 2); err != nil {
		t.Fatalf("prototype schedule rejected: %v", err)
	}
	if err := c.ValidateSchedule(256, 1e6, 4); err == nil {
		t.Fatal("4 switches/symbol should exceed the prototype controller")
	}
	if err := c.ValidateSchedule(256, 1e6, 0); err == nil {
		t.Fatal("zero switches per symbol must be rejected")
	}
}

func TestControllerEnergyLinear(t *testing.T) {
	c := PrototypeController()
	if got := c.ControlEnergy(100); math.Abs(got-100*c.SwitchEnergyJ) > 1e-18 {
		t.Fatalf("ControlEnergy(100) = %v", got)
	}
}

func TestConfigClone(t *testing.T) {
	c := Config{1, 2, 3}
	d := c.Clone()
	d[0] = 9
	if c[0] != 1 {
		t.Fatal("Config.Clone must not share storage")
	}
}

func TestFabricationOffsetsSeeded(t *testing.T) {
	a := Prototype(rng.New(11))
	b := Prototype(rng.New(11))
	for i := range a.fab {
		if a.fab[i] != b.fab[i] {
			t.Fatal("fabrication offsets must be reproducible from the seed")
		}
	}
	var nonzero bool
	for _, f := range a.fab {
		if f != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Fatal("prototype surface should have fabrication spread")
	}
}

func TestSolveTargetProperties(t *testing.T) {
	// Property-based check over random interior targets: the solver always
	// returns a full-length configuration with valid states, and its
	// response lands within a small fraction of the dynamic range.
	s := ideal16()
	pp := s.PathPhases(DefaultGeometry())
	maxR := s.MaxResponse(pp)
	src := rng.New(40)
	err := quick.Check(func(seed uint64) bool {
		probe := rng.New(seed)
		mag := 0.7 * probe.Float64() * maxR
		th := probe.Phase()
		target := complex(mag*math.Cos(th), mag*math.Sin(th))
		cfg, got := s.SolveTarget(target, pp)
		if len(cfg) != s.Atoms() {
			return false
		}
		for _, st := range cfg {
			if int(st) >= len(s.States()) {
				return false
			}
		}
		if cmplx.Abs(got) > float64(s.Atoms())+1e-9 {
			return false
		}
		return cmplx.Abs(got-target) < 0.02*maxR
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
	_ = src
}
