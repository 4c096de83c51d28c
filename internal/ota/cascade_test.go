package ota

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/cplx"
	"repro/internal/mts"
	"repro/internal/rng"
)

// testWeights returns a reproducible classes×u complex weight matrix.
func testWeights(classes, u int, seed uint64) *cplx.Mat {
	src := rng.New(seed)
	w := cplx.NewMat(classes, u)
	for i := range w.Data {
		w.Data[i] = complex(src.Normal(0, 1), src.Normal(0, 1))
	}
	return w
}

// testStack builds k−1 extra relay layers with small ideal surfaces at
// slightly different hop geometries.
func testStack(t *testing.T, k int) []CascadeLayer {
	t.Helper()
	var stack []CascadeLayer
	for l := 1; l < k; l++ {
		s, err := mts.NewSurface(6, 6, 2, 5.25, nil)
		if err != nil {
			t.Fatal(err)
		}
		g := mts.DefaultGeometry()
		g.RxAngleDeg += float64(4 * l)
		g.TxDistM = 2
		stack = append(stack, CascadeLayer{Surface: s, Geometry: g})
	}
	return stack
}

func cascadeTestOptions(t *testing.T, k int) Options {
	t.Helper()
	surface, err := mts.NewSurface(8, 8, 2, 5.25, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	opts := NewOptions(rng.New(5))
	opts.Surface = surface
	opts.Stack = testStack(t, k)
	return opts
}

func matsBitIdentical(a, b *cplx.Mat) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(real(a.Data[i])) != math.Float64bits(real(b.Data[i])) ||
			math.Float64bits(imag(a.Data[i])) != math.Float64bits(imag(b.Data[i])) {
			return false
		}
	}
	return true
}

// TestCascadeK1BitIdentityDeployment is the deployment half of the
// cascadegate contract: running the CASCADE builder at depth 1 (empty
// stack) must reproduce the seed single-surface deployment byte for byte —
// gamma, schedule, realized responses, and the accumulators of sessions
// with equal seeds. Both constructors share every step but their solve, so
// this proves the two solves coincide.
func TestCascadeK1BitIdentityDeployment(t *testing.T) {
	w := testWeights(4, 12, 9)
	opts := cascadeTestOptions(t, 1) // no extra layers
	ref, err := NewDeployment(w, opts, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	// The cascade path at depth 1: the shared derivation with the
	// cascade's per-target solve, its lone layer at unit drive.
	casc, err := deploy(w, opts, rng.New(77), nil, func(d *Deployment, ideal []*mts.Surface) solveFunc {
		d.power = unitPower(1)
		return cascadeTables(d, ideal)
	})
	if err != nil {
		t.Fatal(err)
	}
	if casc.Layers() != 1 {
		t.Fatalf("empty-stack cascade reports %d layers", casc.Layers())
	}
	if math.Float64bits(ref.Gamma) != math.Float64bits(casc.Gamma) {
		t.Fatalf("gamma differs: %v vs %v", ref.Gamma, casc.Gamma)
	}
	if ref.EstRxAngleDeg != casc.EstRxAngleDeg {
		t.Fatalf("estimated angle differs: %v vs %v", ref.EstRxAngleDeg, casc.EstRxAngleDeg)
	}
	for r := range ref.Schedule {
		for c := range ref.Schedule[r] {
			a, b := ref.Schedule[r][c], casc.Schedule[r][c]
			for m := range a {
				if a[m] != b[m] {
					t.Fatalf("schedule (%d,%d) differs at atom %d", r, c, m)
				}
			}
		}
	}
	if !matsBitIdentical(ref.Realized, casc.Realized) {
		t.Fatal("realized responses differ")
	}
	x := make([]complex128, ref.InputLen())
	xsrc := rng.New(123)
	for i := range x {
		x[i] = complex(xsrc.Normal(0, 1), xsrc.Normal(0, 1))
	}
	accRef := ref.SessionFromSeed(42).Accumulate(x)
	accCasc := casc.SessionFromSeed(42).Accumulate(x)
	for r := range accRef {
		if math.Float64bits(real(accRef[r])) != math.Float64bits(real(accCasc[r])) ||
			math.Float64bits(imag(accRef[r])) != math.Float64bits(imag(accCasc[r])) {
			t.Fatalf("class %d accumulator differs: %v vs %v", r, accRef[r], accCasc[r])
		}
	}
}

// A 2-layer deployment must solve, keep the composed realized responses
// near the scaled targets, and serve finite accumulators — including under
// exact per-layer jitter replay.
func TestCascadeDeployAndInfer(t *testing.T) {
	w := testWeights(3, 10, 21)
	opts := cascadeTestOptions(t, 2)
	d, err := NewDeployment(w, opts, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	if d.Layers() != 2 {
		t.Fatalf("Layers() = %d, want 2", d.Layers())
	}
	if len(d.LayerSchedule(1)) != d.Classes() {
		t.Fatalf("layer-1 schedule has %d outputs", len(d.LayerSchedule(1)))
	}
	// Quantization quality: the composed responses should track γ·w.
	if q := d.QuantizationError(w); q > 0.5 {
		t.Fatalf("cascade quantization error %v implausibly large", q)
	}
	x := make([]complex128, d.InputLen())
	for i := range x {
		x[i] = complex(1, 0)
	}
	for _, exact := range []bool{false, true} {
		dd := d
		if exact {
			o := opts
			o.ExactJitter = true
			dd2, err := NewDeployment(w, o, rng.New(77))
			if err != nil {
				t.Fatal(err)
			}
			dd = dd2
		}
		acc := dd.SessionFromSeed(9).Accumulate(x)
		for r, v := range acc {
			if cmplx.IsNaN(v) || cmplx.IsInf(v) {
				t.Fatalf("exact=%v class %d accumulator %v", exact, r, v)
			}
		}
	}
}

// Re-publishing one layer's own schedule must not move the composed
// realized responses — the WithLayerSchedule identity that anchors the
// cascade heal path.
func TestCascadeWithLayerScheduleIdentity(t *testing.T) {
	w := testWeights(3, 8, 33)
	d, err := NewDeployment(w, cascadeTestOptions(t, 3), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for layer := 0; layer < d.Layers(); layer++ {
		cp, err := d.WithLayerSchedule(layer, d.LayerSchedule(layer))
		if err != nil {
			t.Fatalf("layer %d: %v", layer, err)
		}
		if !matsBitIdentical(d.Realized, cp.Realized) {
			t.Fatalf("layer %d: same-schedule republish moved realized responses", layer)
		}
	}
	if _, err := d.WithLayerSchedule(3, d.LayerSchedule(0)); err == nil {
		t.Fatal("out-of-range layer accepted")
	}
}

// Stuck atoms on any single layer must perturb the composed responses, and
// the perturbation must differ between layers (the (layer, atom) identity
// the fault path reports).
func TestCascadeRealizedWithLayerStuck(t *testing.T) {
	w := testWeights(3, 8, 55)
	d, err := NewDeployment(w, cascadeTestOptions(t, 2), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	stuck := map[int]uint8{0: 1, 5: 3}
	m0, err := d.RealizedWithLayerStuck(0, stuck)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := d.RealizedWithLayerStuck(1, stuck)
	if err != nil {
		t.Fatal(err)
	}
	if matsBitIdentical(m0, d.Realized) {
		t.Fatal("layer-0 stuck atoms left realized responses unchanged")
	}
	if matsBitIdentical(m1, d.Realized) {
		t.Fatal("layer-1 stuck atoms left realized responses unchanged")
	}
	if matsBitIdentical(m0, m1) {
		t.Fatal("stuck responses identical across layers — layer identity lost")
	}
	if _, err := d.RealizedWithLayerStuck(2, stuck); err == nil {
		t.Fatal("out-of-range layer accepted")
	}
}

// FromState(State()) of a cascade deployment must reproduce accumulators
// bit for bit, like the single-surface snapshot contract.
func TestCascadeStateRoundTrip(t *testing.T) {
	w := testWeights(3, 9, 71)
	opts := cascadeTestOptions(t, 3)
	opts.LayerPower = []float64{1, 1.4, 0.8}
	opts.HopNoise = 0.05
	d, err := NewDeployment(w, opts, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	st := d.State()
	if len(st.Layers) != 2 || len(st.LayerSchedules) != 2 {
		t.Fatalf("state carries %d layers, %d schedules", len(st.Layers), len(st.LayerSchedules))
	}
	rd, err := FromState(st)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Layers() != d.Layers() {
		t.Fatalf("restored %d layers, want %d", rd.Layers(), d.Layers())
	}
	x := make([]complex128, d.InputLen())
	xsrc := rng.New(8)
	for i := range x {
		x[i] = complex(xsrc.Normal(0, 1), xsrc.Normal(0, 1))
	}
	a := d.SessionFromSeed(4).Accumulate(x)
	b := rd.SessionFromSeed(4).Accumulate(x)
	for r := range a {
		if math.Float64bits(real(a[r])) != math.Float64bits(real(b[r])) ||
			math.Float64bits(imag(a[r])) != math.Float64bits(imag(b[r])) {
			t.Fatalf("class %d accumulator differs after round trip: %v vs %v", r, a[r], b[r])
		}
	}
}

// Receiver mobility on the primary hop must drift the composed responses;
// Recomputed must leave the original deployment untouched.
func TestCascadeRecompute(t *testing.T) {
	w := testWeights(3, 8, 13)
	d, err := NewDeployment(w, cascadeTestOptions(t, 2), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	before := d.Realized.Clone()
	moved := d.Options().Geometry
	moved.RxAngleDeg += 6
	cp := d.Recomputed(moved)
	if !matsBitIdentical(before, d.Realized) {
		t.Fatal("Recomputed mutated the original deployment")
	}
	if matsBitIdentical(before, cp.Realized) {
		t.Fatal("moving the receiver left composed responses unchanged")
	}
}

// Cascade option validation: arity and positivity of LayerPower, HopNoise
// sign, the Eqn 8 exclusion, and nil layer surfaces must all fail loudly.
func TestCascadeOptionValidation(t *testing.T) {
	w := testWeights(2, 6, 5)
	base := func() Options { return cascadeTestOptions(t, 2) }
	bad := []func(*Options){
		func(o *Options) { o.LayerPower = []float64{1} },
		func(o *Options) { o.LayerPower = []float64{1, -2} },
		func(o *Options) { o.HopNoise = -0.1 },
		func(o *Options) { o.CompensateEnv = true; o.SubSamples = 0 },
		func(o *Options) { o.Stack = []CascadeLayer{{Surface: nil}} },
	}
	for i, mutate := range bad {
		o := base()
		mutate(&o)
		if _, err := NewDeployment(w, o, rng.New(1)); err == nil {
			t.Fatalf("bad option set %d accepted", i)
		}
	}
}

// HopNoise must genuinely cost SNR — and per-layer power must buy it back.
// The noise floor is anchored to the signal RMS (classification is scale
// invariant), so the comparison is noise-to-signal: a starved relay hop
// leaves a worse ratio than uniform drive, which is worse than a boosted
// hop.
func TestCascadeHopNoisePowerTradeoff(t *testing.T) {
	w := testWeights(2, 6, 5)
	noise := func(power []float64) float64 {
		opts := cascadeTestOptions(t, 2)
		opts.HopNoise = 0.2
		opts.LayerPower = power
		d, err := NewDeployment(w, opts, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		return d.noise2 / (d.sigRMS * d.sigRMS)
	}
	starved := noise([]float64{1, 0.5})
	uniform := noise(nil)
	boosted := noise([]float64{1, 2})
	if !(starved > uniform && uniform > boosted) {
		t.Fatalf("noise ordering wrong: starved %v, uniform %v, boosted %v", starved, uniform, boosted)
	}
}
