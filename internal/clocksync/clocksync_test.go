package clocksync

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/dataset"
	"repro/internal/modem"
	"repro/internal/nn"
	"repro/internal/ota"
	"repro/internal/rng"
)

func TestDetectorMatchesFig12(t *testing.T) {
	// Fig 12: 51.7% of coarse-detection errors exceed 3 µs.
	d := DefaultDetector()
	cdf := d.CDF([]float64{3}, 200000, rng.New(1))
	above3 := 1 - cdf[0]
	if above3 < 0.45 || above3 < 0.517-0.06 || above3 > 0.517+0.06 {
		t.Fatalf("P(error > 3µs) = %.3f, paper reports 0.517", above3)
	}
}

func TestDetectorSamplesNonNegative(t *testing.T) {
	d := DefaultDetector()
	src := rng.New(2)
	for i := 0; i < 1000; i++ {
		if e := d.SampleUs(src); e < 0 {
			t.Fatalf("negative sync error %v", e)
		}
	}
}

func TestCDFMonotone(t *testing.T) {
	d := DefaultDetector()
	th := []float64{0.5, 1, 2, 3, 4, 6, 8, 10}
	cdf := d.CDF(th, 50000, rng.New(3))
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Fatalf("CDF not monotone: %v", cdf)
		}
	}
	if cdf[len(cdf)-1] < 0.95 {
		t.Fatalf("CDF(10µs) = %v; error tail implausibly heavy", cdf[len(cdf)-1])
	}
}

func TestMedian(t *testing.T) {
	d := DefaultDetector()
	med := d.MedianUs(rng.New(4), 5001)
	if med < 2.0 || med > 4.0 {
		t.Fatalf("median error %v µs, expected near 3 µs", med)
	}
}

func TestSamplers(t *testing.T) {
	src := rng.New(5)
	if got := FixedSampler(2.5)(src); got != 2.5 {
		t.Fatalf("FixedSampler = %v", got)
	}
	ns := NoSyncSampler(64)
	for i := 0; i < 100; i++ {
		v := ns(src)
		if v < 0 || v >= 65 {
			t.Fatalf("NoSync offset %v out of range", v)
		}
	}
	if got := NoSyncSampler(0)(src); got != 0 {
		t.Fatalf("NoSyncSampler(0) = %v", got)
	}
	cs := CoarseSampler(DefaultDetector(), 1e6)
	for i := 0; i < 100; i++ {
		if v := cs(src); v < 0 {
			t.Fatalf("coarse offset %v negative", v)
		}
	}
}

func TestApplyOffsetIntegerMatchesCyclicShift(t *testing.T) {
	src := rng.New(6)
	x := make([]complex128, 16)
	for i := range x {
		x[i] = src.ComplexNormal(1)
	}
	got := ApplyOffset(x, 5)
	want := nn.CyclicShift(x, -5)
	for i := range x {
		if got[i] != want[i] {
			t.Fatal("integer ApplyOffset must equal CyclicShift")
		}
	}
	if ApplyOffset(nil, 1) != nil {
		t.Fatal("ApplyOffset(nil) should be nil")
	}
}

func TestApplyOffsetFractionalInterpolates(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	got := ApplyOffset(x, 1.5)
	// out[j] = 0.5·x[j+1] + 0.5·x[j+2]
	want := []complex128{2.5, 3.5, 2.5, 1.5}
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("fractional offset = %v, want %v", got, want)
		}
	}
}

// applyOffsetShifts is ApplyOffset's reference formulation: mix two
// CyclicShift copies of the stream.
func applyOffsetShifts(x []complex128, offset float64) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	k := int(math.Floor(offset))
	f := offset - float64(k)
	shifted := nn.CyclicShift(x, -k)
	if f < 1e-9 {
		return shifted
	}
	next := nn.CyclicShift(x, -(k + 1))
	out := make([]complex128, n)
	cf := complex(f, 0)
	for i := range out {
		out[i] = shifted[i]*(1-cf) + next[i]*cf
	}
	return out
}

func TestApplyOffsetMatchesCyclicShiftFormulation(t *testing.T) {
	src := rng.New(11)
	offsets := []float64{0, 1, 2, 5, 63, 64, 65, 130, -1, -3, -64, -65, -129,
		0.25, 1.5, 2.999, 1e-10, 63.75, 64.5, 200.125, -0.5, -1.25, -66.75, 3.0000000001}
	for _, n := range []int{1, 2, 3, 64, 65} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = src.ComplexNormal(1)
		}
		for _, off := range append(offsets, 10*src.Float64()-5, 300*src.Float64()) {
			got, want := ApplyOffset(x, off), applyOffsetShifts(x, off)
			for i := range want {
				if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("n=%d offset=%v: out[%d] = %v, want %v", n, off, i, got[i], want[i])
				}
			}
		}
	}
}

func TestApplyOffsetAllocatesOnlyOutput(t *testing.T) {
	x := make([]complex128, 64)
	for _, off := range []float64{3, 3.5} {
		if a := testing.AllocsPerRun(10, func() { ApplyOffset(x, off) }); a != 1 {
			t.Fatalf("ApplyOffset(%v) allocates %v times, want 1", off, a)
		}
	}
}

func TestSymbolPeriod(t *testing.T) {
	if got := SymbolPeriodUs(1e6); math.Abs(got-1) > 1e-12 {
		t.Fatalf("1 Msym/s period = %v µs", got)
	}
}

// TestCDFAEndToEnd reproduces the Fig 16 ordering: no sync ≈ chance,
// coarse detection partial, CDFA (coarse + injector-trained weights) near
// full accuracy.
func TestCDFAEndToEnd(t *testing.T) {
	ds := dataset.MustLoad("mnist", dataset.Quick, 1)
	enc := nn.Encoder{Scheme: modem.QAM256}
	train := nn.EncodeSet(ds.Train, ds.Classes, enc)
	test := nn.EncodeSet(ds.Test, ds.Classes, enc)
	d := DefaultDetector()

	plain := nn.TrainLNN(train, nn.TrainConfig{Seed: 1, Epochs: 40})
	cdfa := nn.TrainLNN(train, nn.TrainConfig{Seed: 1, Epochs: 40, InputAug: Injector(d, 1e6)})

	eval := func(m *nn.ComplexLNN, sampler func(*rng.Source) float64, seed uint64) float64 {
		src := rng.New(seed)
		opts := ota.NewOptions(src.Split())
		opts.SyncSampler = sampler
		sys, err := ota.Deploy(m.Weights(), opts, src)
		if err != nil {
			t.Fatal(err)
		}
		return nn.Evaluate(sys, test)
	}

	noSync := eval(plain, NoSyncSampler(train.U), 10)
	coarseOnly := eval(plain, CoarseSampler(d, 1e6), 11)
	full := eval(cdfa, CoarseSampler(d, 1e6), 12)

	// Fig 16: 19.23% / 55.71% / 89.28%.
	if noSync > 0.35 {
		t.Errorf("no-sync accuracy %.3f; expected near-chance", noSync)
	}
	if coarseOnly <= noSync+0.1 {
		t.Errorf("coarse detection (%.3f) should clearly beat no sync (%.3f)", coarseOnly, noSync)
	}
	if full <= coarseOnly+0.1 {
		t.Errorf("CDFA (%.3f) should clearly beat coarse-only (%.3f)", full, coarseOnly)
	}
	if full < 0.70 {
		t.Errorf("CDFA accuracy %.3f; expected high recovery", full)
	}
}

// TestCDFAFlatUnderDelaySweep reproduces Fig 13(b)'s shape: the plain model
// collapses as fixed delay grows while the CDFA model stays high through
// ~4 symbols.
func TestCDFAFlatUnderDelaySweep(t *testing.T) {
	ds := dataset.MustLoad("mnist", dataset.Quick, 1)
	enc := nn.Encoder{Scheme: modem.QAM256}
	train := nn.EncodeSet(ds.Train, ds.Classes, enc)
	test := nn.EncodeSet(ds.Test, ds.Classes, enc)
	d := DefaultDetector()
	plain := nn.TrainLNN(train, nn.TrainConfig{Seed: 1, Epochs: 40})
	cdfa := nn.TrainLNN(train, nn.TrainConfig{Seed: 1, Epochs: 40, InputAug: Injector(d, 1e6)})

	evalAt := func(m *nn.ComplexLNN, delay float64, seed uint64) float64 {
		src := rng.New(seed)
		opts := ota.NewOptions(src.Split())
		opts.SyncSampler = FixedSampler(delay)
		sys, err := ota.Deploy(m.Weights(), opts, src)
		if err != nil {
			t.Fatal(err)
		}
		return nn.Evaluate(sys, test)
	}
	plain0 := evalAt(plain, 0, 20)
	plain3 := evalAt(plain, 3, 21)
	cdfa3 := evalAt(cdfa, 3, 22)
	if plain0-plain3 < 0.25 {
		t.Errorf("plain model should collapse at 3-symbol delay: %.3f -> %.3f", plain0, plain3)
	}
	if cdfa3 < plain3+0.2 {
		t.Errorf("CDFA at 3-symbol delay (%.3f) should far exceed plain (%.3f)", cdfa3, plain3)
	}
}
