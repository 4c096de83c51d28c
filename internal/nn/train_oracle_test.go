package nn_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/autodiff"
	"repro/internal/clocksync"
	"repro/internal/dataset"
	"repro/internal/modem"
	"repro/internal/nn"
	"repro/internal/noisetrain"
	"repro/internal/rng"
)

// trainLNNTape is the reference trainer TrainLNN's fused step replaced: the
// same SGD+momentum loop, differentiating each sample through a fresh
// autodiff tape. It is the oracle the fused step must match bit for bit.
func trainLNNTape(train *nn.EncodedSet, cfg nn.TrainConfig) *nn.ComplexLNN {
	cfg = cfg.WithDefaults()
	src := rng.New(cfg.Seed ^ 0x5ee0)
	m := nn.NewComplexLNN(train.Classes, train.U)
	m.InitWeights(src)
	vel := make([]complex128, len(m.W.Val))
	order := make([]int, len(train.X))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		src.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += cfg.Batch {
			end := min(start+cfg.Batch, len(order))
			m.W.ZeroGrad()
			for _, idx := range order[start:end] {
				x := train.X[idx]
				if cfg.InputAug != nil {
					x = cfg.InputAug(nil, x, src)
				}
				tp := autodiff.NewTape()
				y := tp.MatVec(m.W, tp.ConstC(x))
				if cfg.OutputNoise != nil {
					if noise := cfg.OutputNoise(train.Classes, src); noise != nil {
						y = tp.AddConstC(y, noise)
					}
				}
				mag := tp.Abs(y)
				lnode, _ := tp.SoftmaxCE(mag, train.Labels[idx])
				tp.Backward(lnode)
			}
			scale := complex(cfg.LR/float64(end-start), 0)
			mom := complex(cfg.Momentum, 0)
			for i := range m.W.Val {
				vel[i] = mom*vel[i] - scale*m.W.Grad[i]
				m.W.Val[i] += vel[i]
			}
		}
	}
	return m
}

func encodedQuick(t testing.TB, name string, seed uint64) *nn.EncodedSet {
	return encodedQuickAs(t, name, seed, modem.QAM256)
}

func encodedQuickAs(t testing.TB, name string, seed uint64, scheme modem.Scheme) *nn.EncodedSet {
	t.Helper()
	ds := dataset.MustLoad(name, dataset.Quick, seed)
	return nn.EncodeSet(ds.Train, ds.Classes, nn.Encoder{Scheme: scheme})
}

// TestTrainLNNMatchesTapeOracle pins the batched training step to the
// tape's arithmetic: every trained weight must carry the oracle's exact
// bits, with no augmenter, with the served CDFA injector, and with CDFA plus
// output noise — on a full Quick training set and on a truncated one whose
// last batch is partial. Besides the served 256-QAM mnist and fashion sets,
// mnist under 64-QAM has U = 86 symbols (a column tail in both kernels) and
// afhq has 3 classes (an odd row count).
func TestTrainLNNMatchesTapeOracle(t *testing.T) {
	const epochs = 3
	for _, ds := range []struct {
		label, name string
		scheme      modem.Scheme
	}{
		{"mnist", "mnist", modem.QAM256},
		{"fashion", "fashion", modem.QAM256},
		{"mnist-64qam", "mnist", modem.QAM64},
		{"afhq", "afhq", modem.QAM256},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			full := encodedQuickAs(t, ds.name, seed, ds.scheme)
			partial := *full
			partial.X, partial.Labels = full.X[:150], full.Labels[:150]
			cdfa := clocksync.Injector(clocksync.ScaledDetector(full.U), 1e6)
			setups := []struct {
				name string
				cfg  nn.TrainConfig
			}{
				{"plain", nn.TrainConfig{}},
				{"cdfa", nn.TrainConfig{InputAug: cdfa}},
				{"cdfa+noise", nn.TrainConfig{InputAug: cdfa, OutputNoise: noisetrain.OutputNoise(0.3)}},
			}
			for _, set := range []*nn.EncodedSet{full, &partial} {
				for _, su := range setups {
					t.Run(fmt.Sprintf("%s/seed%d/n%d/%s", ds.label, seed, len(set.X), su.name), func(t *testing.T) {
						cfg := su.cfg
						cfg.Seed, cfg.Epochs = seed, epochs
						want := trainLNNTape(set, cfg)
						got := nn.TrainLNN(set, cfg)
						for i, w := range want.W.Val {
							g := got.W.Val[i]
							if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
								math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
								t.Fatalf("weight %d = %v, tape oracle %v", i, g, w)
							}
						}
					})
				}
			}
		}
	}
}

// TestTrainLNNStepZeroAlloc guards the batched step's buffer reuse: a
// training run allocates the same amount at 2 and at 20 epochs, so no
// sample (and no batch or epoch) allocates — without augmenters, and with
// the served CDFA injector, which shifts each input into the trainer's
// batch buffer.
func TestTrainLNNStepZeroAlloc(t *testing.T) {
	train := encodedQuick(t, "mnist", 1)
	train.X, train.Labels = train.X[:100], train.Labels[:100]
	cdfa := clocksync.Injector(clocksync.ScaledDetector(train.U), 1e6)
	for _, tc := range []struct {
		name string
		aug  nn.InputAugmenter
	}{{"plain", nil}, {"cdfa", cdfa}} {
		allocs := func(epochs int) float64 {
			return testing.AllocsPerRun(3, func() {
				nn.TrainLNN(train, nn.TrainConfig{Seed: 1, Epochs: epochs, InputAug: tc.aug})
			})
		}
		if short, long := allocs(2), allocs(20); short != long {
			t.Errorf("%s: TrainLNN allocates %v times at 2 epochs but %v at 20: the step allocates per sample", tc.name, short, long)
		}
	}
}

// TestTrainLNNWaitsForItsDrawGoroutine: TrainLNN makes every draw on its
// caller's goroutine and starts none, so after it returns, or panics, no
// goroutine runs package nn's code and the goroutine count is what it was —
// after a CDFA-augmented run, after a step panics on a wrong-length input,
// and after the augmenter itself panics (the panic reaches TrainLNN's
// caller with its own value). The wrong-length case's augmenter is slow so
// that a goroutine drawing ahead would still be drawing when the step
// panics. The stacks are checked at once. The goroutine count gets up to
// a second to settle: a goroutine still counts between its last channel
// operation and the scheduler freeing it, and on a loaded host that can
// outlast any number of yields.
func TestTrainLNNWaitsForItsDrawGoroutine(t *testing.T) {
	train := encodedQuick(t, "mnist", 1)
	train.X, train.Labels = train.X[:100], train.Labels[:100]
	cdfa := clocksync.Injector(clocksync.ScaledDetector(train.U), 1e6)
	short := *train
	short.X = append([][]complex128{train.X[0][:train.U-1]}, train.X[1:]...)
	slow := func(dst, x []complex128, src *rng.Source) []complex128 {
		for start := time.Now(); time.Since(start) < 100*time.Microsecond; {
		}
		return cdfa(dst, x, src)
	}
	calls := 0
	failing := func(dst, x []complex128, src *rng.Source) []complex128 {
		if calls++; calls == 150 {
			panic("augmenter failed")
		}
		return cdfa(dst, x, src)
	}
	cases := []struct {
		name      string
		set       *nn.EncodedSet
		aug       nn.InputAugmenter
		wantPanic any
	}{
		{"cdfa", train, cdfa, nil},
		{"wrong-length input", &short, slow, fmt.Sprintf("nn: %d-symbol input for a %dx%d network", train.U-1, train.Classes, train.U)},
		{"augmenter panic", train, failing, "augmenter failed"},
	}
	for _, tc := range cases {
		before := runtime.NumGoroutine()
		var got any
		func() {
			defer func() { got = recover() }()
			nn.TrainLNN(tc.set, nn.TrainConfig{Seed: 1, Epochs: 5, InputAug: tc.aug})
		}()
		buf := make([]byte, 1<<20)
		if buf = buf[:runtime.Stack(buf, true)]; bytes.Contains(buf, []byte("repro/internal/nn.")) {
			t.Errorf("%s: a goroutine still runs package nn after TrainLNN:\n%s", tc.name, buf)
		}
		if got != tc.wantPanic {
			t.Errorf("%s: TrainLNN panicked with %v, want %v", tc.name, got, tc.wantPanic)
		}
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); after != before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after != before {
			t.Errorf("%s: %d goroutines after TrainLNN, %d before", tc.name, after, before)
		}
	}
}

// BenchmarkTrainLNNServed is the training a replica's cold start runs: the
// default mnist set, the paper's 60 epochs, the served CDFA injector.
func BenchmarkTrainLNNServed(b *testing.B) {
	train := encodedQuick(b, "mnist", 1)
	cdfa := clocksync.Injector(clocksync.ScaledDetector(train.U), 1e6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.TrainLNN(train, nn.TrainConfig{Seed: 1, InputAug: cdfa})
	}
}
