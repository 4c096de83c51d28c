// Package cplx is the complex linear-algebra substrate shared by the neural
// network, metasurface, and over-the-air computing packages. RF baseband
// signals and metasurface channel responses are inherently complex-valued
// (amplitude + phase), so every weight, symbol, and channel coefficient in
// the system is a complex128.
//
// The package provides dense row-major matrices, vectors, and the handful of
// operations the pipeline is built from: matrix-vector products (the LNN
// forward pass, Eqn 1 of the paper), inner products (the receiver's
// accumulation, Eqn 3), and phase/magnitude utilities used by the
// metasurface configuration solver.
package cplx

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Vec is a dense complex vector.
type Vec []complex128

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Add accumulates w into v element-wise. It panics if lengths differ.
func (v Vec) Add(w Vec) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("cplx: Add length mismatch %d != %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += w[i]
	}
}

// Scale multiplies every element of v by c.
func (v Vec) Scale(c complex128) {
	for i := range v {
		v[i] *= c
	}
}

// Dot returns the unconjugated dot product Σ v[i]·w[i]. This is the receiver
// accumulation of Eqn 3 (channel response times transmitted symbol), not a
// Hermitian inner product.
func (v Vec) Dot(w Vec) complex128 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("cplx: Dot length mismatch %d != %d", len(v), len(w)))
	}
	return DotInto(0, v, w)
}

// DotInto accumulates the unconjugated dot product Σ a[i]·b[i] onto acc over
// flat slices, in index order — the scalar kernel of the hot row sweeps
// (cached-response accumulation, and the Go reference for MulVecTo). Nothing
// is fused: each complex product is rounded before it is added, which is
// what lets MulVecTo's AVX2 kernel and every bit-identity gate reproduce it
// exactly. Iteration order and grouping match Vec.Dot, so results are
// bit-identical. It reads min(len(a), len(b)) elements; callers enforce
// shape.
func DotInto(acc complex128, a, b []complex128) complex128 {
	if len(a) > len(b) {
		a = a[:len(b)]
	}
	for i, av := range a {
		acc += av * b[i]
	}
	return acc
}

// HermDot returns the Hermitian inner product Σ conj(v[i])·w[i].
func (v Vec) HermDot(w Vec) complex128 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("cplx: HermDot length mismatch %d != %d", len(v), len(w)))
	}
	var sum complex128
	for i := range v {
		sum += cmplx.Conj(v[i]) * w[i]
	}
	return sum
}

// Norm returns the Euclidean norm sqrt(Σ |v[i]|²).
func (v Vec) Norm() float64 {
	var s float64
	for _, c := range v {
		s += real(c)*real(c) + imag(c)*imag(c)
	}
	return math.Sqrt(s)
}

// Abs returns the element-wise magnitudes |v[i]| as a real slice.
func (v Vec) Abs() []float64 {
	return AbsInto(make([]float64, len(v)), v)
}

// AbsInto writes the element-wise magnitudes |v[i]| into dst and returns
// dst[:len(v)], growing dst only when its capacity is short — the zero-alloc
// variant of Vec.Abs for steady-state loops that reuse a scratch slice.
// math.Hypot is exactly cmplx.Abs's implementation, so the values are
// bit-identical to Abs's.
func AbsInto(dst []float64, v []complex128) []float64 {
	if cap(dst) < len(v) {
		dst = make([]float64, len(v))
	}
	dst = dst[:len(v)]
	for i, c := range v {
		dst[i] = math.Hypot(real(c), imag(c))
	}
	return dst
}

// MaxAbs returns the largest element magnitude, or 0 for an empty vector.
func (v Vec) MaxAbs() float64 {
	var m float64
	for _, c := range v {
		if a := cmplx.Abs(c); a > m {
			m = a
		}
	}
	return m
}

// Mat is a dense row-major complex matrix.
type Mat struct {
	Rows, Cols int
	Data       []complex128 // len == Rows*Cols, Data[r*Cols+c]
}

// NewMat returns a zero Rows×Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("cplx: negative matrix dimension")
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// At returns the element at row r, column c.
func (m *Mat) At(r, c int) complex128 { return m.Data[r*m.Cols+c] }

// Set assigns the element at row r, column c.
func (m *Mat) Set(r, c int, v complex128) { m.Data[r*m.Cols+c] = v }

// Row returns row r as a Vec sharing the matrix's storage.
func (m *Mat) Row(r int) Vec { return Vec(m.Data[r*m.Cols : (r+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec computes m·x, the LNN forward pass Y = WX of Eqn 1.
func (m *Mat) MulVec(x Vec) Vec {
	out := make(Vec, m.Rows)
	m.MulVecTo(out, x)
	return out
}

// MulVecTo computes m·x into dst (len dst == Rows), avoiding allocation on
// hot paths such as per-sample training. Each element is DotInto(0, row, x)
// bit for bit; on CPUs with AVX2 two rows share one pass.
func (m *Mat) MulVecTo(dst, x Vec) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("cplx: MulVecTo dimension mismatch %dx%d · %d into %d", m.Rows, m.Cols, len(x), len(dst)))
	}
	mulVec(dst, m.Data, x)
}

// mulVecGo is MulVecTo's Go loop: the only kernel off AVX2 and the
// reference the AVX2 kernel is tested against. w is row-major with
// len(x) columns.
func mulVecGo(dst, w, x []complex128) {
	for r := range dst {
		dst[r] = DotInto(0, w[r*len(x):(r+1)*len(x)], x)
	}
}

// AddScaledConj adds a·conj(x[i]) to dst[i] for every i — the gradient row
// update ∂L/∂W̄[r,·] += ∂L/∂z̄_r·conj(x) of LNN training. It panics if the
// lengths differ. On CPUs with AVX2 it runs two elements per instruction,
// bit for bit as the Go loop.
func AddScaledConj(dst []complex128, a complex128, x []complex128) {
	if len(x) != len(dst) {
		panic(fmt.Sprintf("cplx: AddScaledConj length mismatch %d != %d", len(dst), len(x)))
	}
	addScaledConj(dst, a, x)
}

// addScaledConjGo is AddScaledConj's Go loop: the only kernel off AVX2, the
// AVX2 kernel's odd-length tail, and its test reference.
func addScaledConjGo(dst []complex128, a complex128, x []complex128) {
	for i := range dst {
		dst[i] += a * cmplx.Conj(x[i])
	}
}

// Mul returns the matrix product m·n.
func (m *Mat) Mul(n *Mat) *Mat {
	if m.Cols != n.Rows {
		panic(fmt.Sprintf("cplx: Mul dimension mismatch %dx%d · %dx%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	out := NewMat(m.Rows, n.Cols)
	for r := 0; r < m.Rows; r++ {
		for k := 0; k < m.Cols; k++ {
			a := m.Data[r*m.Cols+k]
			if a == 0 {
				continue
			}
			nrow := n.Data[k*n.Cols : (k+1)*n.Cols]
			orow := out.Data[r*n.Cols : (r+1)*n.Cols]
			for c, b := range nrow {
				orow[c] += a * b
			}
		}
	}
	return out
}

// MaxAbs returns the largest element magnitude in the matrix.
func (m *Mat) MaxAbs() float64 { return Vec(m.Data).MaxAbs() }

// FrobeniusNorm returns the Frobenius norm of the matrix.
func (m *Mat) FrobeniusNorm() float64 { return Vec(m.Data).Norm() }

// Expi returns e^{jθ}.
func Expi(theta float64) complex128 {
	s, c := math.Sincos(theta)
	return complex(c, s)
}

// WrapPhase reduces θ to the interval [0, 2π).
func WrapPhase(theta float64) float64 {
	t := math.Mod(theta, 2*math.Pi)
	if t < 0 {
		t += 2 * math.Pi
	}
	return t
}

// PhaseDistance returns the absolute angular distance between two phases in
// [0, π]. The metasurface config solver uses it to pick the discrete state
// closest to a target phase.
func PhaseDistance(a, b float64) float64 {
	return WrappedPhaseDistance(WrapPhase(a), WrapPhase(b))
}

// WrappedPhaseDistance is PhaseDistance for two phases already reduced by
// WrapPhase — the form a solver uses when it wraps each phase once up front.
func WrappedPhaseDistance(a, b float64) float64 {
	d := math.Abs(a - b)
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

// Argmax returns the index of the largest value in xs (first on ties), or -1
// for an empty slice. Classification decisions (Eqn 3's "largest |y_r| wins")
// use it throughout.
func Argmax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best, arg := xs[0], 0
	for i, x := range xs[1:] {
		if x > best {
			best, arg = x, i+1
		}
	}
	return arg
}
