package nn

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/dataset"
	"repro/internal/modem"
	"repro/internal/rng"
)

func TestEncoderInputLen(t *testing.T) {
	e := Encoder{Scheme: modem.QAM256}
	// 64 features × 8 bits = 512 bits = 64 symbols at 8 bits/symbol.
	if got := e.InputLen(64); got != 64 {
		t.Fatalf("InputLen = %d, want 64", got)
	}
	eb := Encoder{Scheme: modem.BPSK}
	if got := eb.InputLen(64); got != 512 {
		t.Fatalf("BPSK InputLen = %d, want 512", got)
	}
	x := make([]float64, 64)
	if got := len(e.Encode(x)); got != 64 {
		t.Fatalf("Encode len = %d, want 64", got)
	}
}

func TestEncodeSetShapes(t *testing.T) {
	ds := dataset.MustLoad("mnist", dataset.Quick, 1)
	enc := Encoder{Scheme: modem.QAM256}
	es := EncodeSet(ds.Train, ds.Classes, enc)
	if es.U != 64 || es.Classes != 10 || len(es.X) != len(ds.Train) {
		t.Fatalf("EncodeSet = U:%d classes:%d n:%d", es.U, es.Classes, len(es.X))
	}
	empty := EncodeSet(nil, 3, enc)
	if len(empty.X) != 0 || empty.Classes != 3 {
		t.Fatal("empty EncodeSet malformed")
	}
}

func trainedMNIST(t *testing.T) (*ComplexLNN, *EncodedSet, *EncodedSet) {
	t.Helper()
	ds := dataset.MustLoad("mnist", dataset.Quick, 1)
	enc := Encoder{Scheme: modem.QAM256}
	train := EncodeSet(ds.Train, ds.Classes, enc)
	test := EncodeSet(ds.Test, ds.Classes, enc)
	m := TrainLNN(train, TrainConfig{Seed: 1, Epochs: 40})
	return m, train, test
}

func TestTrainLNNReachesPaperBand(t *testing.T) {
	m, _, test := trainedMNIST(t)
	acc := Evaluate(m, test)
	// Paper: MetaAI simulation reaches 92.75% on MNIST; the synthetic
	// stand-in must land in a comparable band.
	if acc < 0.82 {
		t.Fatalf("LNN accuracy %.3f below the expected band", acc)
	}
}

func TestTrainLNNDeterministic(t *testing.T) {
	ds := dataset.MustLoad("widar3", dataset.Quick, 2)
	enc := Encoder{Scheme: modem.QAM256}
	train := EncodeSet(ds.Train, ds.Classes, enc)
	a := TrainLNN(train, TrainConfig{Seed: 7, Epochs: 5})
	b := TrainLNN(train, TrainConfig{Seed: 7, Epochs: 5})
	for i := range a.W.Val {
		if a.W.Val[i] != b.W.Val[i] {
			t.Fatal("training is not deterministic for equal seeds")
		}
	}
}

func TestScaleInvarianceOfPrediction(t *testing.T) {
	// Eqn 4's α_p argument: scaling all weights by any complex constant
	// must not change any prediction.
	m, _, test := trainedMNIST(t)
	scaled := NewComplexLNN(m.Classes, m.U)
	for i, w := range m.W.Val {
		scaled.W.Val[i] = w * (0.37 - 1.2i)
	}
	for _, x := range test.X[:50] {
		if m.Predict(x) != scaled.Predict(x) {
			t.Fatal("prediction changed under global weight scaling")
		}
	}
}

func TestInputAugmenterIsCalled(t *testing.T) {
	ds := dataset.MustLoad("afhq", dataset.Quick, 3)
	enc := Encoder{Scheme: modem.QAM256}
	train := EncodeSet(ds.Train, ds.Classes, enc)
	called := 0
	TrainLNN(train, TrainConfig{
		Seed:   1,
		Epochs: 1,
		InputAug: func(dst, x []complex128, src *rng.Source) []complex128 {
			called++
			return x
		},
	})
	if called != len(train.X) {
		t.Fatalf("augmenter called %d times, want %d", called, len(train.X))
	}
}

func TestOutputNoiserIsCalled(t *testing.T) {
	ds := dataset.MustLoad("afhq", dataset.Quick, 3)
	enc := Encoder{Scheme: modem.QAM256}
	train := EncodeSet(ds.Train, ds.Classes, enc)
	called := 0
	TrainLNN(train, TrainConfig{
		Seed:   1,
		Epochs: 1,
		OutputNoise: func(n int, src *rng.Source) []complex128 {
			called++
			return make([]complex128, n)
		},
	})
	if called != len(train.X) {
		t.Fatalf("noiser called %d times, want %d", called, len(train.X))
	}
}

func TestCyclicShift(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	got := CyclicShift(x, 1)
	want := []complex128{4, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CyclicShift(+1) = %v", got)
		}
	}
	got = CyclicShift(x, -1)
	want = []complex128{2, 3, 4, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CyclicShift(-1) = %v", got)
		}
	}
	got = CyclicShift(x, 5)
	want = []complex128{4, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CyclicShift(5) = %v", got)
		}
	}
	if CyclicShift(nil, 3) != nil {
		t.Fatal("CyclicShift(nil) should be nil")
	}
	// Original untouched.
	if x[0] != 1 {
		t.Fatal("CyclicShift modified its input")
	}
}

func TestCyclicShiftRoundTrip(t *testing.T) {
	src := rng.New(4)
	x := make([]complex128, 9)
	for i := range x {
		x[i] = src.ComplexNormal(1)
	}
	back := CyclicShift(CyclicShift(x, 4), -4)
	for i := range x {
		if back[i] != x[i] {
			t.Fatal("shift round trip failed")
		}
	}
}

func TestDiscreteNNWeightsOnGrid(t *testing.T) {
	ds := dataset.MustLoad("afhq", dataset.Quick, 5)
	enc := Encoder{Scheme: modem.QAM256}
	train := EncodeSet(ds.Train, ds.Classes, enc)
	m := TrainDiscrete(train, 4, TrainConfig{Seed: 1, Epochs: 3})
	w := m.QuantizedWeights()
	for _, v := range w.Data {
		if math.Abs(cmplx.Abs(v)-1) > 1e-9 {
			t.Fatalf("discrete weight modulus %v, want 1", cmplx.Abs(v))
		}
		ph := cmplx.Phase(v)
		if ph < 0 {
			ph += 2 * math.Pi
		}
		steps := ph / (math.Pi / 2)
		if math.Abs(steps-math.Round(steps)) > 1e-6 {
			t.Fatalf("discrete weight phase %v not on the 2-bit grid", ph)
		}
	}
}

func TestOrderingLNNBeatsDiscrete(t *testing.T) {
	// Table 1's central comparison: train-continuous-then-quantize (here:
	// the continuous simulation) must clearly beat discrete-from-scratch.
	ds := dataset.MustLoad("mnist", dataset.Quick, 1)
	enc := Encoder{Scheme: modem.QAM256}
	train := EncodeSet(ds.Train, ds.Classes, enc)
	test := EncodeSet(ds.Test, ds.Classes, enc)
	lnn := TrainLNN(train, TrainConfig{Seed: 1, Epochs: 40})
	disc := TrainDiscrete(train, 4, TrainConfig{Seed: 1, Epochs: 40})
	accL := Evaluate(lnn, test)
	accD := Evaluate(disc, test)
	if accD >= accL {
		t.Fatalf("DiscreteNN (%.3f) should trail the continuous LNN (%.3f)", accD, accL)
	}
	chance := 1.0 / float64(ds.Classes)
	if accD < chance+0.15 {
		t.Fatalf("DiscreteNN accuracy %.3f too close to chance; baseline broken", accD)
	}
}

func TestDeepNNBeatsLNN(t *testing.T) {
	if testing.Short() {
		t.Skip("deep baseline training is slow")
	}
	ds := dataset.MustLoad("fashion", dataset.Quick, 1)
	enc := Encoder{Scheme: modem.QAM256}
	train := EncodeSet(ds.Train, ds.Classes, enc)
	test := EncodeSet(ds.Test, ds.Classes, enc)
	lnn := TrainLNN(train, TrainConfig{Seed: 1, Epochs: 40})
	deep := TrainDeep(ds.Train, ds.Classes, DeepTrainConfig{Seed: 1, Epochs: 15})
	accL := Evaluate(lnn, test)
	accD := EvaluateDeep(deep, ds.Test)
	if accD <= accL-0.02 {
		t.Fatalf("deep baseline (%.3f) should not trail the linear model (%.3f)", accD, accL)
	}
	if accD < 0.7 {
		t.Fatalf("deep baseline accuracy %.3f too low", accD)
	}
}

func TestConfusionMatrixConsistent(t *testing.T) {
	m, _, test := trainedMNIST(t)
	cm := Confusion(m, test)
	var total, diag int
	for i := range cm {
		for j := range cm[i] {
			total += cm[i][j]
			if i == j {
				diag += cm[i][j]
			}
		}
	}
	if total != len(test.X) {
		t.Fatalf("confusion total %d, want %d", total, len(test.X))
	}
	acc := Evaluate(m, test)
	if math.Abs(float64(diag)/float64(total)-acc) > 1e-12 {
		t.Fatal("confusion diagonal disagrees with Evaluate")
	}
}

func TestEvaluateEmptySet(t *testing.T) {
	m := NewComplexLNN(3, 4)
	if got := Evaluate(m, &EncodedSet{Classes: 3}); got != 0 {
		t.Fatalf("Evaluate(empty) = %v", got)
	}
}

func TestTrainLNNPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty training set")
		}
	}()
	TrainLNN(&EncodedSet{Classes: 2}, TrainConfig{})
}

// TestTrainLNNPanicsOnBadSample: an out-of-range label and an output-noise
// vector of the wrong length panic on the caller's goroutine with their
// messages.
func TestTrainLNNPanicsOnBadSample(t *testing.T) {
	x := []complex128{1 + 1i, 2 - 1i, -1 + 3i, 0.5i}
	set := func(label int) *EncodedSet {
		return &EncodedSet{X: [][]complex128{x, x}, Labels: []int{0, label}, Classes: 2, U: len(x)}
	}
	longNoise := func(n int, src *rng.Source) []complex128 { return make([]complex128, n+1) }
	cases := []struct {
		name string
		set  *EncodedSet
		cfg  TrainConfig
		want string
	}{
		{"label", set(2), TrainConfig{Epochs: 1}, "nn: label 2 out of range 2"},
		{"noise", set(1), TrainConfig{Epochs: 1, OutputNoise: longNoise}, "nn: 3 output-noise values for 2 classes"},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("%s: TrainLNN panicked with %v, want %q", tc.name, got, tc.want)
				}
			}()
			TrainLNN(tc.set, tc.cfg)
		}()
	}
}

func TestDeepNNForwardShapes(t *testing.T) {
	src := rng.New(9)
	m := NewDeepNN(48, 6, 4, src) // 48 features pads to 7×7
	if m.Side != 7 {
		t.Fatalf("side = %d, want 7", m.Side)
	}
	x := make([]float64, 48)
	for i := range x {
		x[i] = src.Float64()
	}
	p := m.PredictRaw(x)
	if p < 0 || p >= 6 {
		t.Fatalf("prediction %d out of range", p)
	}
}

func TestDeepNNGradientCheck(t *testing.T) {
	// Finite-difference check of the hand-written CNN backprop on a tiny
	// network.
	src := rng.New(10)
	m := NewDeepNN(16, 3, 2, src)
	x := make([]float64, 16)
	for i := range x {
		x[i] = src.Float64()
	}
	label := 1
	loss := func() float64 {
		a := m.forward(x)
		p := a.logits
		probs := softmaxT(p)
		return -math.Log(probs[label])
	}
	g := m.newGrads()
	a := m.forward(x)
	m.backward(a, label, g)
	check := func(name string, params, grads []float64) {
		const h = 1e-5
		for _, i := range []int{0, len(params) / 2, len(params) - 1} {
			orig := params[i]
			params[i] = orig + h
			lp := loss()
			params[i] = orig - h
			lm := loss()
			params[i] = orig
			want := (lp - lm) / (2 * h)
			if math.Abs(grads[i]-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("%s grad[%d] = %v, numerical %v", name, i, grads[i], want)
			}
		}
	}
	check("w1", m.w1, g.w1)
	check("b1", m.b1, g.b1)
	check("wa", m.wa, g.wa)
	check("wb", m.wb, g.wb)
	check("wf", m.wf, g.wf)
	check("bf", m.bf, g.bf)
}

func softmaxT(xs []float64) []float64 {
	max := xs[0]
	for _, v := range xs {
		if v > max {
			max = v
		}
	}
	out := make([]float64, len(xs))
	var z float64
	for i, v := range xs {
		out[i] = math.Exp(v - max)
		z += out[i]
	}
	for i := range out {
		out[i] /= z
	}
	return out
}
