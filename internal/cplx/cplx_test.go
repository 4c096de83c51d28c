package cplx

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

const eps = 1e-12

func almostEq(a, b complex128) bool { return cmplx.Abs(a-b) < 1e-9 }

func TestVecAddScale(t *testing.T) {
	v := Vec{1 + 2i, 3, -1i}
	w := Vec{1, 1, 1}
	v.Add(w)
	want := Vec{2 + 2i, 4, 1 - 1i}
	for i := range v {
		if !almostEq(v[i], want[i]) {
			t.Fatalf("Add: v[%d] = %v, want %v", i, v[i], want[i])
		}
	}
	v.Scale(2i)
	want2 := Vec{-4 + 4i, 8i, 2 + 2i}
	for i := range v {
		if !almostEq(v[i], want2[i]) {
			t.Fatalf("Scale: v[%d] = %v, want %v", i, v[i], want2[i])
		}
	}
}

func TestDotUnconjugated(t *testing.T) {
	v := Vec{1i, 2}
	w := Vec{1i, 3}
	// Unconjugated: (1i)(1i) + 2*3 = -1 + 6 = 5.
	if got := v.Dot(w); !almostEq(got, 5) {
		t.Fatalf("Dot = %v, want 5", got)
	}
	// Hermitian: conj(1i)(1i) + 2*3 = 1 + 6 = 7.
	if got := v.HermDot(w); !almostEq(got, 7) {
		t.Fatalf("HermDot = %v, want 7", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Vec{1}.Dot(Vec{1, 2})
}

func TestNormAndMaxAbs(t *testing.T) {
	v := Vec{3, 4i}
	if got := v.Norm(); math.Abs(got-5) > eps {
		t.Fatalf("Norm = %v, want 5", got)
	}
	if got := v.MaxAbs(); math.Abs(got-4) > eps {
		t.Fatalf("MaxAbs = %v, want 4", got)
	}
	if got := (Vec{}).MaxAbs(); got != 0 {
		t.Fatalf("empty MaxAbs = %v, want 0", got)
	}
}

func TestMatMulVec(t *testing.T) {
	m := NewMat(2, 3)
	// [1 2 3; 4 5 6] · [1, 1i, -1] = [1+2i-3, 4+5i-6] = [-2+2i, -2+5i]
	for i, v := range []complex128{1, 2, 3, 4, 5, 6} {
		m.Data[i] = v
	}
	x := Vec{1, 1i, -1}
	y := m.MulVec(x)
	want := Vec{-2 + 2i, -2 + 5i}
	for i := range y {
		if !almostEq(y[i], want[i]) {
			t.Fatalf("MulVec[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	dst := NewVec(2)
	m.MulVecTo(dst, x)
	for i := range dst {
		if !almostEq(dst[i], want[i]) {
			t.Fatalf("MulVecTo[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestMatMulAssociativity(t *testing.T) {
	src := rng.New(1)
	randMat := func(r, c int) *Mat {
		m := NewMat(r, c)
		for i := range m.Data {
			m.Data[i] = src.ComplexNormal(1)
		}
		return m
	}
	a, b := randMat(4, 5), randMat(5, 3)
	x := make(Vec, 3)
	for i := range x {
		x[i] = src.ComplexNormal(1)
	}
	// (A·B)·x == A·(B·x)
	left := a.Mul(b).MulVec(x)
	right := a.MulVec(b.MulVec(x))
	for i := range left {
		if cmplx.Abs(left[i]-right[i]) > 1e-9 {
			t.Fatalf("associativity violated at %d: %v vs %v", i, left[i], right[i])
		}
	}
}

func TestMatRowSharesStorage(t *testing.T) {
	m := NewMat(2, 2)
	m.Row(1)[0] = 7i
	if m.At(1, 0) != 7i {
		t.Fatal("Row must alias matrix storage")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewMat(1, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
	v := Vec{1, 2}
	cv := v.Clone()
	cv[0] = 9
	if v[0] != 1 {
		t.Fatal("Vec Clone must not share storage")
	}
}

func TestExpi(t *testing.T) {
	for _, th := range []float64{0, math.Pi / 2, math.Pi, 3 * math.Pi / 2, 1.234} {
		want := cmplx.Exp(complex(0, th))
		if got := Expi(th); cmplx.Abs(got-want) > eps {
			t.Fatalf("Expi(%v) = %v, want %v", th, got, want)
		}
	}
}

func TestWrapPhaseProperty(t *testing.T) {
	err := quick.Check(func(raw float64) bool {
		th := math.Mod(raw, 1000) // keep finite and modest
		w := WrapPhase(th)
		if w < 0 || w >= 2*math.Pi {
			return false
		}
		return cmplx.Abs(Expi(th)-Expi(w)) < 1e-6
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// wrapPhaseMod is WrapPhase without its fast paths: the reference they
// must reproduce bit for bit.
func wrapPhaseMod(theta float64) float64 {
	t := math.Mod(theta, 2*math.Pi)
	if t < 0 {
		t += 2 * math.Pi
	}
	return t
}

// TestWrapPhaseMatchesMod pins WrapPhase's fast paths for [0, 2π) and
// [2π, 4π) to the Mod formula at their edges and their neighbours, at
// values the fast paths leave to it, and over uniform draws in [−2π, 10π).
func TestWrapPhaseMatchesMod(t *testing.T) {
	same := func(th float64) bool {
		got, want := WrapPhase(th), wrapPhaseMod(th)
		return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
	}
	var cases []float64
	for _, edge := range []float64{0, math.Copysign(0, -1), 2 * math.Pi, 4 * math.Pi, -2 * math.Pi, 6 * math.Pi} {
		cases = append(cases, edge, math.Nextafter(edge, math.Inf(-1)), math.Nextafter(edge, math.Inf(1)))
	}
	cases = append(cases, math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300, math.Pi, -math.Pi)
	for _, th := range cases {
		if !same(th) {
			t.Fatalf("WrapPhase(%v) = %v, Mod formula %v", th, WrapPhase(th), wrapPhaseMod(th))
		}
	}
	src := rng.New(15)
	for i := 0; i < 2_000_000; i++ {
		th := -2*math.Pi + 12*math.Pi*src.Float64()
		if !same(th) {
			t.Fatalf("WrapPhase(%v) = %v, Mod formula %v", th, WrapPhase(th), wrapPhaseMod(th))
		}
	}
}

func TestPhaseDistance(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 0, 0},
		{0, math.Pi, math.Pi},
		{0.1, 2*math.Pi - 0.1, 0.2},
		{math.Pi / 2, math.Pi, math.Pi / 2},
	}
	for _, c := range cases {
		if got := PhaseDistance(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("PhaseDistance(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestPhaseDistanceSymmetric(t *testing.T) {
	err := quick.Check(func(a, b float64) bool {
		a, b = math.Mod(a, 100), math.Mod(b, 100)
		d1, d2 := PhaseDistance(a, b), PhaseDistance(b, a)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0 && d1 <= math.Pi+1e-9
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestArgmax(t *testing.T) {
	if got := Argmax(nil); got != -1 {
		t.Fatalf("Argmax(nil) = %d, want -1", got)
	}
	if got := Argmax([]float64{1, 3, 2}); got != 1 {
		t.Fatalf("Argmax = %d, want 1", got)
	}
	if got := Argmax([]float64{5, 5, 5}); got != 0 {
		t.Fatalf("Argmax ties = %d, want first index 0", got)
	}
}

func TestVecAbs(t *testing.T) {
	v := Vec{3 + 4i, -5}
	abs := v.Abs()
	if math.Abs(abs[0]-5) > eps || math.Abs(abs[1]-5) > eps {
		t.Fatalf("Abs = %v", abs)
	}
}

func TestMulDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Mul dimension mismatch")
		}
	}()
	NewMat(2, 3).Mul(NewMat(2, 3))
}

func TestMulVecLinearityProperty(t *testing.T) {
	src := rng.New(50)
	m := NewMat(5, 7)
	for i := range m.Data {
		m.Data[i] = src.ComplexNormal(1)
	}
	err := quick.Check(func(seed uint64) bool {
		probe := rng.New(seed)
		x := make(Vec, 7)
		y := make(Vec, 7)
		for i := range x {
			x[i] = probe.ComplexNormal(1)
			y[i] = probe.ComplexNormal(1)
		}
		alpha := probe.ComplexNormal(1)
		sum := make(Vec, 7)
		for i := range sum {
			sum[i] = alpha*x[i] + y[i]
		}
		left := m.MulVec(sum)
		mx, my := m.MulVec(x), m.MulVec(y)
		for i := range left {
			if cmplx.Abs(left[i]-(alpha*mx[i]+my[i])) > 1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}
