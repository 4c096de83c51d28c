// Package autodiff implements reverse-mode automatic differentiation over
// complex- and real-valued vector nodes, the tool MetaAI's training stage
// needs: the network of §3.1 is complex-valued (RF signals carry amplitude
// and phase) and its loss path contains the non-holomorphic magnitude |·| of
// Eqn 3, so gradients follow Wirtinger calculus.
//
// Convention: for a complex node z the stored adjoint is g_z ≡ ∂L/∂z̄ (the
// conjugate cogradient). For a real scalar loss L, steepest descent is
// z ← z − η·g_z, and ∂L/∂z = conj(g_z). Chain rules used by the ops:
//
//	c = a·b (holomorphic):  g_a += g_c·conj(b),  g_b += g_c·conj(a)
//	r = |c| (real output):  g_c += ḡ_r·c/(2|c|)  (∂r/∂c̄ = c/(2|c|); see Abs)
//	y = x·e^{jφ}, φ real:   dL/dφ = 2·Re(conj(g_y)·j·y)
//
// Parameters live outside the tape in CParam/RParam leaves whose gradients
// accumulate across samples; a fresh lightweight Tape is built per sample.
package autodiff

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/cplx"
)

// CParam is a trainable complex parameter tensor (stored flat, with optional
// matrix dims for MatVec). Grad accumulates ∂L/∂W̄ until ZeroGrad.
type CParam struct {
	Rows, Cols int
	Val        []complex128
	Grad       []complex128
}

// NewCParam allocates a rows×cols complex parameter.
func NewCParam(rows, cols int) *CParam {
	return &CParam{
		Rows: rows, Cols: cols,
		Val:  make([]complex128, rows*cols),
		Grad: make([]complex128, rows*cols),
	}
}

// ZeroGrad clears the accumulated gradient.
func (p *CParam) ZeroGrad() {
	for i := range p.Grad {
		p.Grad[i] = 0
	}
}

// Mat returns the parameter viewed as a cplx.Mat sharing storage.
func (p *CParam) Mat() *cplx.Mat {
	return &cplx.Mat{Rows: p.Rows, Cols: p.Cols, Data: p.Val}
}

// RParam is a trainable real parameter vector (e.g. meta-atom phases in the
// parallelism optimizer and the stacked-PNN baseline).
type RParam struct {
	Val  []float64
	Grad []float64
}

// NewRParam allocates an n-element real parameter.
func NewRParam(n int) *RParam {
	return &RParam{Val: make([]float64, n), Grad: make([]float64, n)}
}

// ZeroGrad clears the accumulated gradient.
func (p *RParam) ZeroGrad() {
	for i := range p.Grad {
		p.Grad[i] = 0
	}
}

// node is one tape entry. Exactly one of cval/rval is set.
type node struct {
	cval []complex128
	rval []float64
	cadj []complex128
	radj []float64
	back func(n *node)
}

// Tape records the forward computation of one sample and replays it
// backward. The zero value is ready to use.
type Tape struct {
	nodes []*node
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// CVec is a handle to a complex vector node.
type CVec struct {
	t *Tape
	n *node
}

// RVec is a handle to a real vector node.
type RVec struct {
	t *Tape
	n *node
}

// Value returns the node's forward complex values (not a copy).
func (v CVec) Value() []complex128 { return v.n.cval }

// Value returns the node's forward real values (not a copy).
func (v RVec) Value() []float64 { return v.n.rval }

func (t *Tape) push(n *node) *node {
	t.nodes = append(t.nodes, n)
	return n
}

// ConstC records a constant complex vector (no gradient flows into it).
// The slice is captured, not copied.
func (t *Tape) ConstC(vals []complex128) CVec {
	n := t.push(&node{cval: vals, cadj: make([]complex128, len(vals))})
	return CVec{t, n}
}

// ParamC records a complex parameter leaf; backward accumulates into p.Grad.
func (t *Tape) ParamC(p *CParam) CVec {
	n := t.push(&node{
		cval: p.Val,
		cadj: make([]complex128, len(p.Val)),
		back: func(n *node) {
			for i, g := range n.cadj {
				p.Grad[i] += g
			}
		},
	})
	return CVec{t, n}
}

// MatVec computes y = W·x where W is an r×c complex parameter and x a
// complex node of length c. Backward: g_W[r,c] += g_y[r]·conj(x[c]) and
// g_x[c] += conj(W[r,c])·g_y[r].
func (t *Tape) MatVec(w *CParam, x CVec) CVec {
	if len(x.n.cval) != w.Cols {
		panic(fmt.Sprintf("autodiff: MatVec dims %dx%d · %d", w.Rows, w.Cols, len(x.n.cval)))
	}
	xv := x.n.cval
	out := make([]complex128, w.Rows)
	for r := 0; r < w.Rows; r++ {
		row := w.Val[r*w.Cols : (r+1)*w.Cols]
		var sum complex128
		for c, wv := range row {
			sum += wv * xv[c]
		}
		out[r] = sum
	}
	xn := x.n
	n := t.push(&node{
		cval: out,
		cadj: make([]complex128, len(out)),
		back: func(n *node) {
			for r, gy := range n.cadj {
				if gy == 0 {
					continue
				}
				row := w.Val[r*w.Cols : (r+1)*w.Cols]
				grow := w.Grad[r*w.Cols : (r+1)*w.Cols]
				for c := range row {
					grow[c] += gy * cmplx.Conj(xv[c])
					xn.cadj[c] += cmplx.Conj(row[c]) * gy
				}
			}
		},
	})
	return CVec{t, n}
}

// MatVecConst computes y = B·x for a constant matrix B (e.g. the fixed
// inter-layer Green's-function couplings β of the stacked-PNN baseline,
// Eqn 15). Gradient flows into x only.
func (t *Tape) MatVecConst(b *cplx.Mat, x CVec) CVec {
	if len(x.n.cval) != b.Cols {
		panic(fmt.Sprintf("autodiff: MatVecConst dims %dx%d · %d", b.Rows, b.Cols, len(x.n.cval)))
	}
	out := b.MulVec(cplx.Vec(x.n.cval))
	xn := x.n
	n := t.push(&node{
		cval: out,
		cadj: make([]complex128, len(out)),
		back: func(n *node) {
			for r, gy := range n.cadj {
				if gy == 0 {
					continue
				}
				row := b.Data[r*b.Cols : (r+1)*b.Cols]
				for c := range row {
					xn.cadj[c] += cmplx.Conj(row[c]) * gy
				}
			}
		},
	})
	return CVec{t, n}
}

// AddC computes element-wise a + b.
func (t *Tape) AddC(a, b CVec) CVec {
	if len(a.n.cval) != len(b.n.cval) {
		panic("autodiff: AddC length mismatch")
	}
	out := make([]complex128, len(a.n.cval))
	for i := range out {
		out[i] = a.n.cval[i] + b.n.cval[i]
	}
	an, bn := a.n, b.n
	n := t.push(&node{
		cval: out,
		cadj: make([]complex128, len(out)),
		back: func(n *node) {
			for i, g := range n.cadj {
				an.cadj[i] += g
				bn.cadj[i] += g
			}
		},
	})
	return CVec{t, n}
}

// AddConstC computes a + c for a constant vector c (e.g. injected noise,
// Eqn 13's N_e term during noise-aware training).
func (t *Tape) AddConstC(a CVec, c []complex128) CVec {
	if len(a.n.cval) != len(c) {
		panic("autodiff: AddConstC length mismatch")
	}
	out := make([]complex128, len(c))
	for i := range out {
		out[i] = a.n.cval[i] + c[i]
	}
	an := a.n
	n := t.push(&node{
		cval: out,
		cadj: make([]complex128, len(out)),
		back: func(n *node) {
			for i, g := range n.cadj {
				an.cadj[i] += g
			}
		},
	})
	return CVec{t, n}
}

// ScaleC computes s·a for a constant complex scalar s.
func (t *Tape) ScaleC(a CVec, s complex128) CVec {
	out := make([]complex128, len(a.n.cval))
	for i := range out {
		out[i] = s * a.n.cval[i]
	}
	an := a.n
	n := t.push(&node{
		cval: out,
		cadj: make([]complex128, len(out)),
		back: func(n *node) {
			cs := cmplx.Conj(s)
			for i, g := range n.cadj {
				an.cadj[i] += cs * g
			}
		},
	})
	return CVec{t, n}
}

// MulElemConst computes element-wise a[i]·c[i] for a constant vector c.
func (t *Tape) MulElemConst(a CVec, c []complex128) CVec {
	if len(a.n.cval) != len(c) {
		panic("autodiff: MulElemConst length mismatch")
	}
	out := make([]complex128, len(c))
	for i := range out {
		out[i] = a.n.cval[i] * c[i]
	}
	an := a.n
	n := t.push(&node{
		cval: out,
		cadj: make([]complex128, len(out)),
		back: func(n *node) {
			for i, g := range n.cadj {
				an.cadj[i] += g * cmplx.Conj(c[i])
			}
		},
	})
	return CVec{t, n}
}

// PhasorMul computes y[i] = x[i]·e^{jφ[i]} where φ is a real parameter — a
// meta-atom applying its programmable phase shift. Backward:
// g_x[i] += g_y[i]·e^{-jφ[i]} and dL/dφ[i] = 2·Re(conj(g_y[i])·j·y[i]).
func (t *Tape) PhasorMul(x CVec, phi *RParam) CVec {
	if len(x.n.cval) != len(phi.Val) {
		panic("autodiff: PhasorMul length mismatch")
	}
	out := make([]complex128, len(phi.Val))
	ph := make([]complex128, len(phi.Val))
	for i, p := range phi.Val {
		ph[i] = cplx.Expi(p)
		out[i] = x.n.cval[i] * ph[i]
	}
	xn := x.n
	n := t.push(&node{
		cval: out,
		cadj: make([]complex128, len(out)),
		back: func(n *node) {
			for i, g := range n.cadj {
				if g == 0 {
					continue
				}
				xn.cadj[i] += g * cmplx.Conj(ph[i])
				// dL/dφ = 2·Re(conj(g)·j·y)
				jy := complex(-imag(n.cval[i]), real(n.cval[i]))
				phi.Grad[i] += 2 * real(cmplx.Conj(g)*jy)
			}
		},
	})
	return CVec{t, n}
}

// SumC reduces a complex vector node to a length-1 node by summation —
// free-space wave superposition, the "addition at the speed of light".
func (t *Tape) SumC(a CVec) CVec {
	var s complex128
	for _, v := range a.n.cval {
		s += v
	}
	an := a.n
	n := t.push(&node{
		cval: []complex128{s},
		cadj: make([]complex128, 1),
		back: func(n *node) {
			g := n.cadj[0]
			for i := range an.cadj {
				an.cadj[i] += g
			}
		},
	})
	return CVec{t, n}
}

// Abs computes the element-wise magnitude r[i] = |z[i]| as a real node —
// the receiver's envelope detection in Eqn 3. Backward (Wirtinger):
// g_z[i] += ḡ_r[i] · z[i]/(2·|z[i]|) … and because L is real and r depends
// on both z and z̄ symmetrically, the full contribution is ḡ_r·z/(2|z|)
// from ∂r/∂z̄ — with ∂L/∂z̄ = (∂L/∂r)(∂r/∂z̄) and ∂r/∂z̄ = z/(2|z|).
// |z| = 0 propagates a zero subgradient.
func (t *Tape) Abs(z CVec) RVec {
	out := make([]float64, len(z.n.cval))
	for i, v := range z.n.cval {
		out[i] = cmplx.Abs(v)
	}
	zn := z.n
	n := t.push(&node{
		rval: out,
		radj: make([]float64, len(out)),
		back: func(n *node) {
			for i, g := range n.radj {
				if g == 0 || out[i] == 0 {
					continue
				}
				zn.cadj[i] += complex(g/(2*out[i]), 0) * zn.cval[i]
			}
		},
	})
	return RVec{t, n}
}

// AbsSq computes r[i] = |z[i]|². Backward: g_z[i] += ḡ_r[i]·z[i].
func (t *Tape) AbsSq(z CVec) RVec {
	out := make([]float64, len(z.n.cval))
	for i, v := range z.n.cval {
		out[i] = real(v)*real(v) + imag(v)*imag(v)
	}
	zn := z.n
	n := t.push(&node{
		rval: out,
		radj: make([]float64, len(out)),
		back: func(n *node) {
			for i, g := range n.radj {
				if g == 0 {
					continue
				}
				zn.cadj[i] += complex(g, 0) * zn.cval[i]
			}
		},
	})
	return RVec{t, n}
}

// ModReLU computes the modReLU activation y = (|z|+b)·z/|z| when |z|+b > 0
// and 0 otherwise, with a trainable real bias b per element — the standard
// magnitude-gated nonlinearity for complex networks, used by the deeper
// architectures the paper names as future work (§7). Wirtinger backward for
// the active branch (m = |z|, b real):
//
//	∂y/∂z = 1 + b/(2m),   ∂y/∂z̄ = −b·z²/(2m³)
//	g_z += g_y·conj(∂y/∂z) + conj(g_y)·∂y/∂z̄
//	dL/db = 2·Re(conj(g_y)·z/m)
func (t *Tape) ModReLU(z CVec, b *RParam) CVec {
	if len(z.n.cval) != len(b.Val) {
		panic("autodiff: ModReLU length mismatch")
	}
	out := make([]complex128, len(z.n.cval))
	active := make([]bool, len(out))
	for i, v := range z.n.cval {
		m := cmplx.Abs(v)
		if m+b.Val[i] > 0 && m > 0 {
			out[i] = v * complex((m+b.Val[i])/m, 0)
			active[i] = true
		}
	}
	zn := z.n
	n := t.push(&node{
		cval: out,
		cadj: make([]complex128, len(out)),
		back: func(n *node) {
			for i, g := range n.cadj {
				if g == 0 || !active[i] {
					continue
				}
				v := zn.cval[i]
				m := cmplx.Abs(v)
				bi := b.Val[i]
				dz := complex(1+bi/(2*m), 0)
				dzb := -complex(bi/(2*m*m*m), 0) * v * v
				zn.cadj[i] += g*dz + cmplx.Conj(g)*dzb
				u := v / complex(m, 0)
				b.Grad[i] += 2 * real(cmplx.Conj(g)*u)
			}
		},
	})
	return CVec{t, n}
}

// ScaleR computes s·a for a real node.
func (t *Tape) ScaleR(a RVec, s float64) RVec {
	out := make([]float64, len(a.n.rval))
	for i := range out {
		out[i] = s * a.n.rval[i]
	}
	an := a.n
	n := t.push(&node{
		rval: out,
		radj: make([]float64, len(out)),
		back: func(n *node) {
			for i, g := range n.radj {
				an.radj[i] += s * g
			}
		},
	})
	return RVec{t, n}
}

// AddConstR computes a + c for a constant real vector.
func (t *Tape) AddConstR(a RVec, c []float64) RVec {
	if len(a.n.rval) != len(c) {
		panic("autodiff: AddConstR length mismatch")
	}
	out := make([]float64, len(c))
	for i := range out {
		out[i] = a.n.rval[i] + c[i]
	}
	an := a.n
	n := t.push(&node{
		rval: out,
		radj: make([]float64, len(out)),
		back: func(n *node) {
			for i, g := range n.radj {
				an.radj[i] += g
			}
		},
	})
	return RVec{t, n}
}

// SoftmaxCE computes the scalar cross-entropy −log softmax(logits)[label],
// the training loss of §3.1 (and of the parallelism losses Eqns 9–10, whose
// log-of-magnitude terms are exactly a cross entropy over |y|). It returns
// the loss node and the forward loss value.
func (t *Tape) SoftmaxCE(logits RVec, label int) (RVec, float64) {
	lv := logits.n.rval
	if label < 0 || label >= len(lv) {
		panic(fmt.Sprintf("autodiff: label %d out of range %d", label, len(lv)))
	}
	probs := SoftmaxInto(make([]float64, len(lv)), lv)
	loss := -math.Log(probs[label])
	ln := logits.n
	n := t.push(&node{
		rval: []float64{loss},
		radj: make([]float64, 1),
		back: func(n *node) {
			g := n.radj[0]
			for i, p := range probs {
				d := p
				if i == label {
					d -= 1
				}
				ln.radj[i] += g * d
			}
		},
	})
	return RVec{t, n}, loss
}

// Backward seeds the given scalar real node with adjoint 1 and propagates
// through the tape in reverse, accumulating parameter gradients.
func (t *Tape) Backward(loss RVec) {
	if len(loss.n.rval) != 1 {
		panic("autodiff: Backward requires a scalar loss node")
	}
	loss.n.radj[0] = 1
	for i := len(t.nodes) - 1; i >= 0; i-- {
		if n := t.nodes[i]; n.back != nil {
			n.back(n)
		}
	}
}

// Softmax returns the softmax of xs (a plain helper for inference-side
// probability reporting; no tape involvement).
func Softmax(xs []float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	return SoftmaxInto(make([]float64, len(xs)), xs)
}

// SoftmaxInto writes the softmax of a non-empty xs into dst (len(dst) ==
// len(xs)) and returns dst — the allocation-free form hand-derived training
// steps reuse. SoftmaxCE and Softmax share its arithmetic.
func SoftmaxInto(dst, xs []float64) []float64 {
	max := xs[0]
	for _, v := range xs[1:] {
		if v > max {
			max = v
		}
	}
	var z float64
	for i, v := range xs {
		dst[i] = math.Exp(v - max)
		z += dst[i]
	}
	for i := range dst {
		dst[i] /= z
	}
	return dst
}
