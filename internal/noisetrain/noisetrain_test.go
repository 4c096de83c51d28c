package noisetrain

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/modem"
	"repro/internal/nn"
	"repro/internal/rng"
)

func encoded(t *testing.T, name string) (*nn.EncodedSet, *nn.EncodedSet) {
	t.Helper()
	ds := dataset.MustLoad(name, dataset.Quick, 1)
	enc := nn.Encoder{Scheme: modem.QAM256}
	return nn.EncodeSet(ds.Train, ds.Classes, enc), nn.EncodeSet(ds.Test, ds.Classes, enc)
}

func TestInputNoiseLevel(t *testing.T) {
	aug := InputNoise(10) // SNR 10 dB → noise power 0.1
	src := rng.New(1)
	x := make([]complex128, 20000)
	out := aug(nil, x, src)
	var p float64
	for _, v := range out {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	p /= float64(len(out))
	if math.Abs(p-0.1) > 0.01 {
		t.Fatalf("injected noise power %v, want 0.1", p)
	}
	// Input must not be modified in place.
	for _, v := range x {
		if v != 0 {
			t.Fatal("InputNoise modified its input")
		}
	}
}

func TestOutputNoiseLevel(t *testing.T) {
	noiser := OutputNoise(2.0)
	src := rng.New(2)
	var p float64
	const n = 20000
	for i := 0; i < n; i++ {
		for _, v := range noiser(1, src) {
			p += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	if math.Abs(p/n-4.0) > 0.2 {
		t.Fatalf("output noise power %v, want 4.0", p/n)
	}
}

func TestMeasureOutputRMSPositive(t *testing.T) {
	train, _ := encoded(t, "afhq")
	m := nn.TrainLNN(train, nn.TrainConfig{Seed: 1, Epochs: 5})
	rms := MeasureOutputRMS(m, train)
	if rms <= 0 {
		t.Fatalf("output RMS = %v", rms)
	}
	if got := MeasureOutputRMS(m, &nn.EncodedSet{Classes: 3}); got != 0 {
		t.Fatalf("empty set RMS = %v, want 0", got)
	}
}

// TestNoiseAwareTrainingHelpsAtLowSNR reproduces Fig 19's claim: under a
// noisy link, noise-aware-trained weights beat plain weights; under a clean
// link they cost little.
func TestNoiseAwareTrainingHelpsAtLowSNR(t *testing.T) {
	train, test := encoded(t, "mnist")
	base := nn.TrainConfig{Seed: 1, Epochs: 40}
	plain := nn.TrainLNN(train, base)
	robust := Train(train, base, DefaultConfig())

	// Evaluate digitally under simulated noisy observation: noise added to
	// inputs and outputs at matched scales, mimicking a low-SNR link.
	evalNoisy := func(m *nn.ComplexLNN, seed uint64) float64 {
		src := rng.New(seed)
		inAug := InputNoise(8)
		scale := MeasureOutputRMS(m, train)
		outNoise := OutputNoise(scale * math.Pow(10, -8.0/20))
		correct := 0
		for i, x := range test.X {
			xn := inAug(nil, x, src)
			logits := m.Logits(xn)
			for r, nz := range outNoise(len(logits), src) {
				re := logits[r] + real(nz)
				im := imag(nz)
				logits[r] = math.Sqrt(re*re + im*im)
			}
			best, arg := math.Inf(-1), 0
			for r, v := range logits {
				if v > best {
					best, arg = v, r
				}
			}
			if arg == test.Labels[i] {
				correct++
			}
		}
		return float64(correct) / float64(len(test.X))
	}
	accPlain := evalNoisy(plain, 10)
	accRobust := evalNoisy(robust, 10)
	if accRobust <= accPlain {
		t.Fatalf("noise-aware training did not help: plain %.3f, robust %.3f", accPlain, accRobust)
	}
	// Clean-link cost should be small.
	clean := nn.Evaluate(robust, test)
	cleanPlain := nn.Evaluate(plain, test)
	if cleanPlain-clean > 0.06 {
		t.Fatalf("noise-aware training cost %.3f clean accuracy", cleanPlain-clean)
	}
}

func TestTrainDisablesNoiseWhenConfigured(t *testing.T) {
	train, test := encoded(t, "afhq")
	base := nn.TrainConfig{Seed: 2, Epochs: 10}
	off := Train(train, base, Config{})
	ref := nn.TrainLNN(train, base)
	// With both injections disabled, Train must match plain training
	// exactly (same seed path).
	for i := range off.W.Val {
		if off.W.Val[i] != ref.W.Val[i] {
			t.Fatal("noise config zero should reduce to plain training")
		}
	}
	_ = test
}
