package cplx

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// edgeParts are the float64 parts the kernel tests mix into normal draws:
// signed zeros, subnormals, huge magnitudes, infinities and NaN.
var edgeParts = []float64{
	0, math.Copysign(0, -1),
	5e-324, -5e-324, 1e-310, -2.5e-308,
	1e200, -1e200, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// operandRegime is one way of drawing kernel test operands: normal draws
// scaled by 2^exp, with a share rate of parts taken from edgeParts.
type operandRegime struct {
	name string
	rate float64
	exp  int
}

// regimes covers ordinary operands, a few or many edge parts mixed in, and
// operands small or large enough that products round into the subnormals or
// overflow to ±Inf (where sums of opposite infinities give NaN).
var regimes = []operandRegime{
	{"normal", 0, 0},
	{"sparse-edges", 0.02, 0},
	{"dense-edges", 0.3, 0},
	{"subnormal-products", 0, -530},
	{"overflowing-products", 0, 510},
}

func (g operandRegime) fill(dst []complex128, src *rng.Source) {
	part := func() float64 {
		if src.Bernoulli(g.rate) {
			return edgeParts[src.IntN(len(edgeParts))]
		}
		return math.Ldexp(src.Normal(0, 1), g.exp+src.IntN(41)-20)
	}
	for i := range dst {
		dst[i] = complex(part(), part())
	}
}

// sameBits reports whether a and b have identical bits, counting any two
// NaNs as equal: the hardware and Go may pick different NaN payloads.
func sameBits(a, b complex128) bool {
	same := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return math.IsNaN(x) && math.IsNaN(y)
		}
		return math.Float64bits(x) == math.Float64bits(y)
	}
	return same(real(a), real(b)) && same(imag(a), imag(b))
}

// outcomes tallies the kinds of result parts a test produced, so it can
// check that the edge cases it claims to cover occurred.
type outcomes struct{ subnormal, inf, nan int }

func (o *outcomes) add(v complex128) {
	for _, p := range []float64{real(v), imag(v)} {
		switch {
		case math.IsNaN(p):
			o.nan++
		case math.IsInf(p, 0):
			o.inf++
		case p != 0 && math.Abs(p) < 0x1p-1022:
			o.subnormal++
		}
	}
}

func (o outcomes) check(t *testing.T) {
	t.Helper()
	if o.subnormal == 0 || o.inf == 0 || o.nan == 0 {
		t.Fatalf("edge cases not all reached: %+v", o)
	}
}

func TestMulVecToMatchesGoLoop(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: MulVecTo runs the Go loop")
	}
	src := rng.New(7)
	var seen outcomes
	for _, g := range regimes {
		for rows := 1; rows <= 11; rows++ {
			for cols := 0; cols <= 130; cols++ {
				m := NewMat(rows, cols)
				x := NewVec(cols)
				g.fill(m.Data, src)
				g.fill(x, src)
				got, want := NewVec(rows), NewVec(rows)
				m.MulVecTo(got, x)
				mulVecGo(want, m.Data, x)
				for r := range want {
					if !sameBits(got[r], want[r]) {
						t.Fatalf("%s, %dx%d: row %d = %v, Go loop %v", g.name, rows, cols, r, got[r], want[r])
					}
					seen.add(want[r])
				}
			}
		}
	}
	seen.check(t)
}

func TestAddScaledConjMatchesGoLoop(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: AddScaledConj runs the Go loop")
	}
	src := rng.New(8)
	var seen outcomes
	a := make([]complex128, 1)
	for _, g := range regimes {
		for trial := 0; trial < 4; trial++ {
			for n := 0; n <= 130; n++ {
				x, got, want := NewVec(n), NewVec(n), NewVec(n)
				g.fill(a, src)
				g.fill(x, src)
				g.fill(got, src)
				copy(want, got)
				AddScaledConj(got, a[0], x)
				addScaledConjGo(want, a[0], x)
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("%s, n %d, a %v: dst[%d] = %v, Go loop %v", g.name, n, a[0], i, got[i], want[i])
					}
					seen.add(want[i])
				}
			}
		}
	}
	seen.check(t)
}

func TestKernelsZeroAlloc(t *testing.T) {
	m, x, dst := NewMat(10, 64), NewVec(64), NewVec(10)
	regimes[0].fill(m.Data, rng.New(9))
	regimes[0].fill(x, rng.New(10))
	if n := testing.AllocsPerRun(100, func() { m.MulVecTo(dst, x) }); n != 0 {
		t.Errorf("MulVecTo allocates %v times per call", n)
	}
	grad := NewVec(64)
	if n := testing.AllocsPerRun(100, func() { AddScaledConj(grad, 0.5-0.25i, x) }); n != 0 {
		t.Errorf("AddScaledConj allocates %v times per call", n)
	}
}

func TestAddScaledConjLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on AddScaledConj length mismatch")
		}
	}()
	AddScaledConj(NewVec(4), 1, NewVec(3))
}

// The benchmark shapes are the default MNIST LNN's: 10 classes × 64 symbols.
func BenchmarkMulVecTo(b *testing.B) {
	m, x, dst := NewMat(10, 64), NewVec(64), NewVec(10)
	regimes[0].fill(m.Data, rng.New(1))
	regimes[0].fill(x, rng.New(2))
	b.Run("avx2", func(b *testing.B) {
		if !useAVX2 {
			b.Skip("no AVX2")
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.MulVecTo(dst, x)
		}
	})
	b.Run("go", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mulVecGo(dst, m.Data, x)
		}
	})
}

func BenchmarkAddScaledConj(b *testing.B) {
	x, dst := NewVec(64), NewVec(64)
	regimes[0].fill(x, rng.New(3))
	const a = 1e-3 - 2e-3i
	b.Run("avx2", func(b *testing.B) {
		if !useAVX2 {
			b.Skip("no AVX2")
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			AddScaledConj(dst, a, x)
		}
	})
	b.Run("go", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			addScaledConjGo(dst, a, x)
		}
	})
}
