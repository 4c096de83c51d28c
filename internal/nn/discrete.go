package nn

import (
	"math"
	"math/cmplx"

	"repro/internal/autodiff"
	"repro/internal/cplx"
	"repro/internal/rng"
)

// DiscreteNN is the Table 1 baseline: a single-layer complex network whose
// weights are constrained to the metasurface's realizable per-atom values —
// unit modulus with 2-bit phase — from the very start of training (the
// binarized-network strategy of Hubara et al., reference [24] of the paper).
// Training keeps continuous latent phases θ and quantizes them to the
// discrete grid in the forward pass, passing gradients straight through the
// quantizer (STE). The paper shows this start-discrete strategy loses 10-20
// accuracy points versus MetaAI's train-continuous-then-approximate
// approach.
type DiscreteNN struct {
	Theta   *autodiff.RParam // latent continuous phases, R×U flattened
	Classes int
	U       int
	Levels  int // phase states (4 for the 2-bit prototype)
}

// NewDiscreteNN allocates an untrained discrete network with the given
// number of phase levels.
func NewDiscreteNN(classes, u, levels int) *DiscreteNN {
	if levels < 2 {
		panic("nn: DiscreteNN needs at least 2 phase levels")
	}
	return &DiscreteNN{
		Theta:   autodiff.NewRParam(classes * u),
		Classes: classes,
		U:       u,
		Levels:  levels,
	}
}

// quantizePhase snaps θ to the nearest of the Levels discrete states.
func (m *DiscreteNN) quantizePhase(theta float64) float64 {
	step := 2 * math.Pi / float64(m.Levels)
	k := math.Round(cplx.WrapPhase(theta) / step)
	return cplx.WrapPhase(k * step)
}

// QuantizedWeights returns the hardware-realizable weight matrix
// e^{jQ(θ)}.
func (m *DiscreteNN) QuantizedWeights() *cplx.Mat {
	w := cplx.NewMat(m.Classes, m.U)
	for i, th := range m.Theta.Val {
		w.Data[i] = cplx.Expi(m.quantizePhase(th))
	}
	return w
}

// Logits returns |W_q·x| under the quantized weights.
func (m *DiscreteNN) Logits(x []complex128) []float64 {
	return m.QuantizedWeights().MulVec(cplx.Vec(x)).Abs()
}

// Predict returns the argmax class.
func (m *DiscreteNN) Predict(x []complex128) int {
	return cplx.Argmax(m.Logits(x))
}

// TrainDiscrete trains the DiscreteNN with SGD+momentum and the
// straight-through estimator: the forward pass uses quantized unit-modulus
// weights w_q = e^{jQ(θ)}, and the backward pass differentiates as if
// w = e^{jθ} evaluated at the quantized point, i.e.
// dL/dθ = 2·Re(conj(g_w)·j·w_q) with g_w = ∂L/∂w̄.
func TrainDiscrete(train *EncodedSet, levels int, cfg TrainConfig) *DiscreteNN {
	if cfg.LR == 0 {
		// Phase-only STE training needs a far larger step than the
		// continuous network: latent phases move by ~LR per unit gradient
		// and must traverse O(π) to change a quantized state.
		cfg.LR = 0.2
	}
	cfg = cfg.withDefaults()
	if len(train.X) == 0 {
		panic("nn: empty training set")
	}
	src := rng.New(cfg.Seed ^ 0xd15c)
	m := NewDiscreteNN(train.Classes, train.U, levels)
	for i := range m.Theta.Val {
		m.Theta.Val[i] = src.Phase()
	}
	vel := make([]float64, len(m.Theta.Val))
	order := make([]int, len(train.X))
	for i := range order {
		order[i] = i
	}
	R, U := train.Classes, train.U
	y := make([]complex128, R)
	wq := make([]complex128, R*U)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		src.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += cfg.Batch {
			end := min(start+cfg.Batch, len(order))
			m.Theta.ZeroGrad()
			for i, th := range m.Theta.Val {
				wq[i] = cplx.Expi(m.quantizePhase(th))
			}
			for _, idx := range order[start:end] {
				x := train.X[idx]
				if cfg.InputAug != nil {
					x = cfg.InputAug(nil, x, src)
				}
				// Forward.
				for r := 0; r < R; r++ {
					row := wq[r*U : (r+1)*U]
					var sum complex128
					for c, w := range row {
						sum += w * x[c]
					}
					y[r] = sum
				}
				mags := make([]float64, R)
				for r, v := range y {
					mags[r] = cmplx.Abs(v)
				}
				probs := autodiff.Softmax(mags)
				// Backward: dL/dmag = p - onehot; Wirtinger chain through
				// |·| and the matvec; STE into θ.
				for r := 0; r < R; r++ {
					d := probs[r]
					if r == train.Labels[idx] {
						d -= 1
					}
					if mags[r] == 0 {
						continue
					}
					gy := complex(d/(2*mags[r]), 0) * y[r] // ∂L/∂ȳ_r
					row := wq[r*U : (r+1)*U]
					for c := 0; c < U; c++ {
						gw := gy * cmplx.Conj(x[c]) // ∂L/∂w̄
						jw := complex(-imag(row[c]), real(row[c]))
						m.Theta.Grad[r*U+c] += 2 * real(cmplx.Conj(gw)*jw)
					}
				}
			}
			scale := cfg.LR / float64(end-start)
			for i := range m.Theta.Val {
				vel[i] = cfg.Momentum*vel[i] - scale*m.Theta.Grad[i]
				m.Theta.Val[i] += vel[i]
			}
		}
	}
	return m
}
