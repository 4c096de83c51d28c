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
// cyclic shift or Eqn 14's input-side hardware noise). dst is nil or has
// len(x) and does not overlap x. The augmenter returns x itself to leave the
// input as it is, or writes the perturbed input into dst and returns dst,
// allocating its result only when dst is nil. It must not modify x.
type InputAugmenter func(dst, x []complex128, src *rng.Source) []complex128

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
	// InputAug, if set, perturbs each training input; TrainLNN hands it the
	// sample's slot of its batch buffer as dst.
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
// configured augmentations, returning the trained model. The weights change
// only after a mini-batch, so each batch first runs its samples forward
// against them, one after another, and then adds the whole batch's
// gradient (lnnBatch). Its buffers serve the whole run: with no augmenters,
// or with augmenters that write into the slot they are handed, training
// allocates nothing per sample. Every draw is made inline, in the order the
// tape oracle makes it: the epoch's shuffle, then each sample's input
// augmentation and its output noise.
func TrainLNN(train *EncodedSet, cfg TrainConfig) *ComplexLNN {
	cfg = cfg.withDefaults()
	if len(train.X) == 0 {
		panic("nn: empty training set")
	}
	src := rng.New(cfg.Seed ^ 0x5ee0)
	m := NewComplexLNN(train.Classes, train.U)
	m.InitWeights(src)
	vel := make([]complex128, len(m.W.Val))
	order := make([]int, len(train.X))
	for i := range order {
		order[i] = i
	}
	b := newLNNBatch(m.W, min(cfg.Batch, len(order)))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		src.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += cfg.Batch {
			batch := order[start:min(start+cfg.Batch, len(order))]
			for k, idx := range batch {
				b.forward(k, train.X[idx], train.Labels[idx], cfg, src)
			}
			b.backward(len(batch))
			scale := complex(cfg.LR/float64(len(batch)), 0)
			mom := complex(cfg.Momentum, 0)
			for i := range m.W.Val {
				vel[i] = mom*vel[i] - scale*m.W.Grad[i]
				m.W.Val[i] += vel[i]
			}
		}
	}
	return m
}

// lnnBatch is the hand-derived training step of the LNN loss
// L = CE(softmax(|W·x + N_e|), label) over one mini-batch, with its buffers.
// The backward pass is the Wirtinger chain rule of package autodiff written
// out: ∂L/∂|z_r| = p_r − [r = label], ∂L/∂z̄_r = that·z_r/(2|z_r|), and
// ∂L/∂W̄[r,c] = Σ_k ∂L/∂z̄_{k,r}·conj(x_k[c]) over the batch's samples k.
// x is a constant, so no adjoint flows into it.
type lnnBatch struct {
	w     *autodiff.CParam
	size  int          // samples the buffers hold
	x     []complex128 // the inputs: sample k at x[k·U:(k+1)·U]
	gy    []complex128 // ∂L/∂z̄: row r of sample k at gy[r·size+k]
	z     []complex128 // one sample's pre-magnitude outputs W·x + N_e
	mag   []float64    // |z|, the class scores
	probs []float64    // softmax(|z|)
}

func newLNNBatch(w *autodiff.CParam, size int) *lnnBatch {
	return &lnnBatch{
		w:     w,
		size:  size,
		x:     make([]complex128, size*w.Cols),
		gy:    make([]complex128, size*w.Rows),
		z:     make([]complex128, w.Rows),
		mag:   make([]float64, w.Rows),
		probs: make([]float64, w.Rows),
	}
}

// forward puts sample k's input in its slot of b.x, through cfg.InputAug
// when set, draws its output noise N_e when cfg.OutputNoise is set, runs it
// forward and writes its adjoints ∂L/∂z̄_r to b.gy. A row whose gradient is
// zero (p_r − [r = label] = 0, or |z_r| = 0, whose subgradient is zero)
// gets the adjoint 0.
func (b *lnnBatch) forward(k int, x []complex128, label int, cfg TrainConfig, src *rng.Source) {
	w := b.w
	slot := b.x[k*w.Cols : (k+1)*w.Cols : (k+1)*w.Cols]
	if cfg.InputAug != nil && len(x) == w.Cols { // a wrong length panics unaugmented
		x = cfg.InputAug(slot, x, src)
	}
	if len(x) != w.Cols {
		panic(fmt.Sprintf("nn: %d-symbol input for a %dx%d network", len(x), w.Rows, w.Cols))
	}
	if label < 0 || label >= w.Rows {
		panic(fmt.Sprintf("nn: label %d out of range %d", label, w.Rows))
	}
	if len(x) > 0 && &x[0] != &slot[0] {
		copy(slot, x)
	}
	w.Mat().MulVecTo(b.z, slot)
	if cfg.OutputNoise != nil {
		if noise := cfg.OutputNoise(w.Rows, src); noise != nil {
			if len(noise) != len(b.z) {
				panic(fmt.Sprintf("nn: %d output-noise values for %d classes", len(noise), len(b.z)))
			}
			for r := range b.z {
				b.z[r] += noise[r]
			}
		}
	}
	for r, v := range b.z {
		b.mag[r] = cmplx.Abs(v)
	}
	autodiff.SoftmaxInto(b.probs, b.mag)
	for r, p := range b.probs {
		g := p
		if r == label {
			g -= 1
		}
		var gy complex128
		if g != 0 && b.mag[r] != 0 {
			gy = complex(g/(2*b.mag[r]), 0) * b.z[r]
		}
		b.gy[r*b.size+k] = gy
	}
}

// backward sets w.Grad to the gradient of the batch's first n samples with
// one cplx.AddScaledConjBatch call per row, which adds each element's n
// products in sample order: the bits of n per-sample updates that skip the
// zero adjoints, as the tape does. A zero adjoint adds 0·conj(x), which is
// ±0 for a finite x and leaves a sum that starts at +0 unchanged (round to
// nearest gives −0 only for two −0 addends); a non-finite input makes every
// probability NaN, so none of its adjoints is zero.
func (b *lnnBatch) backward(n int) {
	w := b.w
	w.ZeroGrad()
	for r := 0; r < w.Rows; r++ {
		cplx.AddScaledConjBatch(w.Grad[r*w.Cols:(r+1)*w.Cols], b.gy[r*b.size:r*b.size+n], b.x[:n*w.Cols])
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
