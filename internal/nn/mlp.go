package nn

import (
	"math"

	"repro/internal/autodiff"
	"repro/internal/cplx"
	"repro/internal/rng"
)

// ComplexMLP is a deeper complex-valued network: hidden layers of complex
// fully connected weights with modReLU activations, read out through the
// magnitude like the LNN. The paper names non-linear, deeper architectures
// as its primary future-work direction (§7, "Model scalability"); this
// model quantifies — digitally — what the linear constraint costs and what
// an over-the-air nonlinearity would have to deliver.
type ComplexMLP struct {
	Weights []*autodiff.CParam // layer l: dims[l+1] × dims[l]
	Biases  []*autodiff.RParam // modReLU biases per hidden layer
	Dims    []int              // [U, hidden..., R]
}

// NewComplexMLP allocates a network with the given layer dims
// (input, hidden..., output).
func NewComplexMLP(dims []int, src *rng.Source) *ComplexMLP {
	if len(dims) < 2 {
		panic("nn: ComplexMLP needs at least input and output dims")
	}
	m := &ComplexMLP{Dims: append([]int(nil), dims...)}
	for l := 0; l+1 < len(dims); l++ {
		w := autodiff.NewCParam(dims[l+1], dims[l])
		std := 1 / math.Sqrt(float64(dims[l]))
		for i := range w.Val {
			w.Val[i] = src.ComplexNormal(std * std)
		}
		m.Weights = append(m.Weights, w)
		if l+2 < len(dims) { // hidden layers get activations
			b := autodiff.NewRParam(dims[l+1])
			m.Biases = append(m.Biases, b)
		}
	}
	return m
}

// Hidden returns the number of hidden layers.
func (m *ComplexMLP) Hidden() int { return len(m.Biases) }

// forward builds the tape graph for one input.
func (m *ComplexMLP) forward(tp *autodiff.Tape, x []complex128) autodiff.RVec {
	v := tp.ConstC(x)
	for l, w := range m.Weights {
		v = tp.MatVec(w, v)
		if l < len(m.Biases) {
			v = tp.ModReLU(v, m.Biases[l])
		}
	}
	return tp.Abs(v)
}

// Logits evaluates the network (no gradient bookkeeping kept).
func (m *ComplexMLP) Logits(x []complex128) []float64 {
	tp := autodiff.NewTape()
	return m.forward(tp, x).Value()
}

// Predict classifies one encoded input.
func (m *ComplexMLP) Predict(x []complex128) int {
	return cplx.Argmax(m.Logits(x))
}

// TrainMLP trains the network with SGD+momentum using the same recipe
// defaults as the LNN.
func TrainMLP(train *EncodedSet, hidden []int, cfg TrainConfig) *ComplexMLP {
	cfg = cfg.withDefaults()
	if len(train.X) == 0 {
		panic("nn: empty training set")
	}
	dims := append(append([]int{train.U}, hidden...), train.Classes)
	src := rng.New(cfg.Seed ^ 0x317a)
	m := NewComplexMLP(dims, src)
	type mom struct {
		c []complex128
		r []float64
	}
	vels := make([]mom, len(m.Weights))
	for l, w := range m.Weights {
		vels[l].c = make([]complex128, len(w.Val))
		if l < len(m.Biases) {
			vels[l].r = make([]float64, len(m.Biases[l].Val))
		}
	}
	order := make([]int, len(train.X))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		src.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += cfg.Batch {
			end := min(start+cfg.Batch, len(order))
			for l, w := range m.Weights {
				w.ZeroGrad()
				if l < len(m.Biases) {
					m.Biases[l].ZeroGrad()
				}
			}
			for _, idx := range order[start:end] {
				x := train.X[idx]
				if cfg.InputAug != nil {
					x = cfg.InputAug(nil, x, src)
				}
				tp := autodiff.NewTape()
				mag := m.forward(tp, x)
				lnode, _ := tp.SoftmaxCE(mag, train.Labels[idx])
				tp.Backward(lnode)
			}
			scale := cfg.LR / float64(end-start)
			cs := complex(scale, 0)
			cm := complex(cfg.Momentum, 0)
			for l, w := range m.Weights {
				for i := range w.Val {
					vels[l].c[i] = cm*vels[l].c[i] - cs*w.Grad[i]
					w.Val[i] += vels[l].c[i]
				}
				if l < len(m.Biases) {
					b := m.Biases[l]
					for i := range b.Val {
						vels[l].r[i] = cfg.Momentum*vels[l].r[i] - scale*b.Grad[i]
						b.Val[i] += vels[l].r[i]
					}
				}
			}
		}
	}
	return m
}
