// Package nn implements the networks of the MetaAI paper: the complex-valued
// single-fully-connected-layer linear network the system trains digitally
// and then realizes over the air (§3.1), the DiscreteNN baseline that is
// constrained to hardware-realizable discrete weights from the start
// (Table 1, after Hubara et al.'s binarized networks), and a small residual
// CNN standing in for the paper's ResNet-18 upper bound.
//
// The training recipe follows §4: SGD with momentum 0.95, learning rate
// 8·10⁻³, batch size 64, 60 epochs, complex-valued backpropagation (the
// Wirtinger calculus of package autodiff, hand-derived for the LNN's single
// layer). The trainer exposes the two augmentation hooks the paper's
// robustness schemes are built on: an input augmenter (CDFA's cyclic-shift
// synchronization-error injector, §3.5.1, and the hardware-noise-as-input
// trick of Eqn 14) and an output-noise injector (environmental noise N_e of
// Eqn 13).
package nn

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/autodiff"
	"repro/internal/cplx"
	"repro/internal/dataset"
	"repro/internal/modem"
	"repro/internal/rng"
)

// Encoder converts real-valued sensor samples into the complex symbol
// vectors that the over-the-air network actually sees: features are
// quantized to bytes and modulated (Fig 4's "encode → modulate" stage). The
// modulation scheme therefore fixes the network's input length U.
type Encoder struct {
	Scheme modem.Scheme
}

// Encode maps one sample to its transmitted symbol vector.
func (e Encoder) Encode(x []float64) []complex128 {
	return modem.ModulateBytes(dataset.Quantize8(x), e.Scheme)
}

// InputLen returns the symbol count U for a sample of the given feature
// dimension.
func (e Encoder) InputLen(dim int) int {
	return modem.SymbolCount(dim, e.Scheme)
}

// ComplexLNN is the paper's network: one complex fully connected layer of
// dimensions R×U (Eqn 1), read out through the magnitude of Eqn 3.
type ComplexLNN struct {
	W       *autodiff.CParam
	Classes int
	U       int
}

// NewComplexLNN allocates an untrained network.
func NewComplexLNN(classes, u int) *ComplexLNN {
	return &ComplexLNN{W: autodiff.NewCParam(classes, u), Classes: classes, U: u}
}

// InitWeights draws Glorot-style complex initial weights.
func (m *ComplexLNN) InitWeights(src *rng.Source) {
	std := 1 / math.Sqrt(float64(m.U))
	for i := range m.W.Val {
		m.W.Val[i] = src.ComplexNormal(std * std)
	}
}

// Logits returns the magnitudes |W·x| — the class scores of Eqn 3.
func (m *ComplexLNN) Logits(x []complex128) []float64 {
	y := m.W.Mat().MulVec(cplx.Vec(x))
	return y.Abs()
}

// Predict returns the argmax class for the encoded input.
func (m *ComplexLNN) Predict(x []complex128) int {
	return cplx.Argmax(m.Logits(x))
}

// Weights returns the trained weight matrix H_des (shared storage): the
// desired channel responses that deployment maps onto MTS configurations.
func (m *ComplexLNN) Weights() *cplx.Mat { return m.W.Mat() }

// InputAugmenter perturbs an encoded input during training (e.g. CDFA's
// cyclic shift or Eqn 14's input-side hardware noise). It must not modify x
// in place.
type InputAugmenter func(x []complex128, src *rng.Source) []complex128

// OutputNoiser returns additive complex noise for the n pre-magnitude
// outputs (Eqn 13's N_e term). It may return nil for no noise.
type OutputNoiser func(n int, src *rng.Source) []complex128

// TrainConfig controls LNN training. Zero values default to the paper's §4
// recipe.
type TrainConfig struct {
	LR       float64 // default 8e-3
	Momentum float64 // default 0.95
	Batch    int     // default 64
	Epochs   int     // default 60
	Seed     uint64
	// InputAug, if set, perturbs each training input (fresh copy per use).
	InputAug InputAugmenter
	// OutputNoise, if set, injects pre-magnitude output noise.
	OutputNoise OutputNoiser
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.LR == 0 {
		c.LR = 8e-3
	}
	if c.Momentum == 0 {
		c.Momentum = 0.95
	}
	if c.Batch == 0 {
		c.Batch = 64
	}
	if c.Epochs == 0 {
		c.Epochs = 60
	}
	return c
}

// EncodedSet is a dataset pre-encoded into symbol vectors.
type EncodedSet struct {
	X       [][]complex128
	Labels  []int
	Classes int
	U       int
}

// EncodeSet encodes every sample once up front (training touches each sample
// Epochs times; encoding is pure).
func EncodeSet(samples []dataset.Sample, classes int, enc Encoder) *EncodedSet {
	if len(samples) == 0 {
		return &EncodedSet{Classes: classes}
	}
	es := &EncodedSet{
		X:       make([][]complex128, len(samples)),
		Labels:  make([]int, len(samples)),
		Classes: classes,
	}
	for i, s := range samples {
		es.X[i] = enc.Encode(s.X)
		es.Labels[i] = s.Label
	}
	es.U = len(es.X[0])
	return es
}

// TrainLNN trains a ComplexLNN on the encoded set with SGD+momentum and the
// configured augmentations, returning the trained model. Each sample runs
// one fused forward/backward step (lnnStep) over buffers reused for the
// whole run, so with no augmenters training allocates nothing per sample.
//
// After InitWeights no draw from the run's source reads the weights, so a
// second goroutine (drawEpochs) makes each epoch's draws, in the serial
// loop's order, while this one steps through the epoch before: the
// trained bits are those of drawing inline. TrainLNN returns, or panics,
// only after that goroutine has left drawEpochs.
func TrainLNN(train *EncodedSet, cfg TrainConfig) *ComplexLNN {
	cfg = cfg.withDefaults()
	if len(train.X) == 0 {
		panic("nn: empty training set")
	}
	src := rng.New(cfg.Seed ^ 0x5ee0)
	m := NewComplexLNN(train.Classes, train.U)
	m.InitWeights(src)
	vel := make([]complex128, len(m.W.Val))

	// Two epoch buffers circulate, one drawn while the other is stepped
	// through, and each channel can hold both.
	free, full := make(chan *epochDraws, 2), make(chan *epochDraws, 2)
	free <- newEpochDraws(len(train.X))
	free <- newEpochDraws(len(train.X))
	stop := make(chan struct{})
	var drawPanic any
	go func() {
		defer close(full)
		defer func() { drawPanic = recover() }()
		drawEpochs(train, cfg, src, free, full, stop)
	}()
	defer func() {
		close(stop)
		for range full { // until drawEpochs has returned
		}
	}()

	step := newLNNStep(train.Classes)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		d, ok := <-full
		if !ok {
			panic(drawPanic) // an augmenter panicked
		}
		for start := 0; start < len(d.order); start += cfg.Batch {
			end := min(start+cfg.Batch, len(d.order))
			m.W.ZeroGrad()
			for k := start; k < end; k++ {
				step.accumulate(m.W, d.x[k], d.noise[k], train.Labels[d.order[k]])
			}
			scale := complex(cfg.LR/float64(end-start), 0)
			mom := complex(cfg.Momentum, 0)
			for i := range m.W.Val {
				vel[i] = mom*vel[i] - scale*m.W.Grad[i]
				m.W.Val[i] += vel[i]
			}
		}
		free <- d
	}
	return m
}

// epochDraws is one epoch's random draws: the shuffled sample order and,
// per position in it, the (augmented) input and the output noise.
type epochDraws struct {
	order []int
	x     [][]complex128
	noise [][]complex128
}

func newEpochDraws(n int) *epochDraws {
	return &epochDraws{order: make([]int, n), x: make([][]complex128, n), noise: make([][]complex128, n)}
}

// drawEpochs makes every epoch's draws from src in the order the serial
// training loop made them — the epoch's shuffle, then per sample its input
// augmentation and its output noise — filling a buffer taken from free and
// handing it on through full. It returns after the last epoch, or when it
// finds stop closed between epochs.
func drawEpochs(train *EncodedSet, cfg TrainConfig, src *rng.Source, free <-chan *epochDraws, full chan<- *epochDraws, stop <-chan struct{}) {
	order := make([]int, len(train.X))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var d *epochDraws
		select {
		case d = <-free:
		case <-stop:
			return
		}
		src.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		copy(d.order, order)
		for k, idx := range order {
			d.x[k] = train.X[idx]
			if cfg.InputAug != nil {
				d.x[k] = cfg.InputAug(d.x[k], src)
			}
			d.noise[k] = nil
			if cfg.OutputNoise != nil {
				d.noise[k] = cfg.OutputNoise(train.Classes, src)
			}
		}
		select {
		case full <- d:
		case <-stop:
			return
		}
	}
}

// lnnStep is one hand-derived training step of the LNN loss
// L = CE(softmax(|W·x + N_e|), label), with its per-sample buffers.
type lnnStep struct {
	z     []complex128 // pre-magnitude outputs W·x + N_e
	mag   []float64    // |z|, the class scores
	probs []float64    // softmax(|z|)
}

func newLNNStep(classes int) *lnnStep {
	return &lnnStep{
		z:     make([]complex128, classes),
		mag:   make([]float64, classes),
		probs: make([]float64, classes),
	}
}

// accumulate runs one sample forward and adds its gradient ∂L/∂W̄ into
// w.Grad. noise (nil for none) is the additive output noise N_e. The
// backward pass is the Wirtinger chain rule of package autodiff written
// out: ∂L/∂|z_r| = p_r − [r = label], ∂L/∂z̄_r = that·z_r/(2|z_r|), and
// ∂L/∂W̄[r,c] += ∂L/∂z̄_r·conj(x_c). x is a constant, so no adjoint flows
// into it.
func (st *lnnStep) accumulate(w *autodiff.CParam, x, noise []complex128, label int) {
	if len(x) != w.Cols {
		panic(fmt.Sprintf("nn: %d-symbol input for a %dx%d network", len(x), w.Rows, w.Cols))
	}
	if label < 0 || label >= w.Rows {
		panic(fmt.Sprintf("nn: label %d out of range %d", label, w.Rows))
	}
	w.Mat().MulVecTo(st.z, x)
	if noise != nil {
		if len(noise) != len(st.z) {
			panic(fmt.Sprintf("nn: %d output-noise values for %d classes", len(noise), len(st.z)))
		}
		for r := range st.z {
			st.z[r] += noise[r]
		}
	}
	for r, v := range st.z {
		st.mag[r] = cmplx.Abs(v)
	}
	autodiff.SoftmaxInto(st.probs, st.mag)
	for r, p := range st.probs {
		g := p
		if r == label {
			g -= 1
		}
		if g == 0 || st.mag[r] == 0 {
			continue // |z| = 0 propagates a zero subgradient
		}
		gy := complex(g/(2*st.mag[r]), 0) * st.z[r]
		if gy == 0 {
			continue
		}
		cplx.AddScaledConj(w.Grad[r*w.Cols:(r+1)*w.Cols], gy, x)
	}
}

// Predictor is anything that classifies encoded inputs; both digital models
// and the over-the-air pipeline implement it.
type Predictor interface {
	Predict(x []complex128) int
}

// Evaluate returns the accuracy of a predictor over an encoded set.
func Evaluate(p Predictor, set *EncodedSet) float64 {
	if len(set.X) == 0 {
		return 0
	}
	correct := 0
	for i, x := range set.X {
		if p.Predict(x) == set.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(set.X))
}

// Confusion returns the confusion matrix counts[true][predicted] of a
// predictor over an encoded set.
func Confusion(p Predictor, set *EncodedSet) [][]int {
	m := make([][]int, set.Classes)
	for i := range m {
		m[i] = make([]int, set.Classes)
	}
	for i, x := range set.X {
		pred := p.Predict(x)
		if pred >= 0 && pred < set.Classes {
			m[set.Labels[i]][pred]++
		}
	}
	return m
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// CyclicShift returns x rotated right by k positions (k may be negative or
// exceed len(x)); it is the deformation CDFA's injector applies and the
// effect an uncorrected symbol-level sync error has on the weight/data
// alignment.
func CyclicShift(x []complex128, k int) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	k = ((k % n) + n) % n
	out := make([]complex128, n)
	copy(out, x[n-k:])
	copy(out[k:], x[:n-k])
	return out
}

// String describes the model briefly.
func (m *ComplexLNN) String() string {
	return fmt.Sprintf("ComplexLNN(%d×%d)", m.Classes, m.U)
}
