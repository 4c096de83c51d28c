package nn_test

import (
	"fmt"
	"math"
	"testing"

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
					x = cfg.InputAug(x, src)
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
	t.Helper()
	ds := dataset.MustLoad(name, dataset.Quick, seed)
	return nn.EncodeSet(ds.Train, ds.Classes, nn.Encoder{Scheme: modem.QAM256})
}

// TestTrainLNNMatchesTapeOracle pins the fused training step to the tape's
// arithmetic: every trained weight must carry the oracle's exact bits, with
// no augmenter, with the served CDFA injector, and with CDFA plus output
// noise — on a full Quick training set and on a truncated one whose last
// batch is partial.
func TestTrainLNNMatchesTapeOracle(t *testing.T) {
	const epochs = 3
	for _, name := range []string{"mnist", "fashion"} {
		for seed := uint64(1); seed <= 3; seed++ {
			full := encodedQuick(t, name, seed)
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
					t.Run(fmt.Sprintf("%s/seed%d/n%d/%s", name, seed, len(set.X), su.name), func(t *testing.T) {
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

// TestTrainLNNStepZeroAlloc guards the fused step's buffer reuse: without
// augmenters a training run allocates the same amount at 2 and at 20
// epochs, so no sample (and no batch or epoch) allocates.
func TestTrainLNNStepZeroAlloc(t *testing.T) {
	train := encodedQuick(t, "mnist", 1)
	train.X, train.Labels = train.X[:100], train.Labels[:100]
	allocs := func(epochs int) float64 {
		return testing.AllocsPerRun(3, func() {
			nn.TrainLNN(train, nn.TrainConfig{Seed: 1, Epochs: epochs})
		})
	}
	if short, long := allocs(2), allocs(20); short != long {
		t.Fatalf("TrainLNN allocates %v times at 2 epochs but %v at 20: the step allocates per sample", short, long)
	}
}
