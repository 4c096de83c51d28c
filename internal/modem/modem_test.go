package modem

import (
	"bytes"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestBitsPerSymbol(t *testing.T) {
	want := map[Scheme]int{BPSK: 1, QPSK: 2, QAM16: 4, QAM64: 6, QAM256: 8}
	for s, bps := range want {
		if got := s.BitsPerSymbol(); got != bps {
			t.Errorf("%v BitsPerSymbol = %d, want %d", s, got, bps)
		}
	}
}

func TestConstellationUnitPower(t *testing.T) {
	for _, s := range Schemes() {
		con := s.Constellation()
		if len(con) != 1<<s.BitsPerSymbol() {
			t.Fatalf("%v constellation size %d", s, len(con))
		}
		var p float64
		for _, c := range con {
			p += real(c)*real(c) + imag(c)*imag(c)
		}
		p /= float64(len(con))
		if math.Abs(p-1) > 1e-12 {
			t.Errorf("%v average power = %v, want 1", s, p)
		}
	}
}

func TestConstellationPointsDistinct(t *testing.T) {
	for _, s := range Schemes() {
		con := s.Constellation()
		for i := range con {
			for j := i + 1; j < len(con); j++ {
				if cmplx.Abs(con[i]-con[j]) < 1e-9 {
					t.Fatalf("%v points %d and %d coincide", s, i, j)
				}
			}
		}
	}
}

func TestConstellationZeroMean(t *testing.T) {
	// The multipath cancellation argument (§3.2) requires zero-mean symbol
	// alphabets; all our constellations are symmetric about the origin.
	for _, s := range Schemes() {
		var sum complex128
		for _, c := range s.Constellation() {
			sum += c
		}
		if cmplx.Abs(sum) > 1e-9 {
			t.Errorf("%v constellation mean %v, want 0", s, sum)
		}
	}
}

func TestGrayNeighbors16QAM(t *testing.T) {
	// Gray coding: nearest-neighbor constellation points should differ in
	// exactly one bit for interior points on each axis.
	con := QAM16.Constellation()
	minDist := math.Inf(1)
	for i := range con {
		for j := i + 1; j < len(con); j++ {
			if d := cmplx.Abs(con[i] - con[j]); d < minDist {
				minDist = d
			}
		}
	}
	for i := range con {
		for j := i + 1; j < len(con); j++ {
			if cmplx.Abs(con[i]-con[j]) < minDist*1.001 {
				diff := i ^ j
				if diff&(diff-1) != 0 {
					t.Fatalf("labels %04b and %04b are nearest neighbors but differ in >1 bit", i, j)
				}
			}
		}
	}
}

func TestBitsRoundTrip(t *testing.T) {
	data := []byte{0x00, 0xff, 0xa5, 0x3c}
	if got := BitsToBytes(BytesToBits(data)); !bytes.Equal(got, data) {
		t.Fatalf("bit round trip = %x, want %x", got, data)
	}
}

func TestModulateDemodulateRoundTrip(t *testing.T) {
	src := rng.New(1)
	for _, s := range Schemes() {
		data := make([]byte, 96)
		for i := range data {
			data[i] = byte(src.IntN(256))
		}
		syms := ModulateBytes(data, s)
		if len(syms) != SymbolCount(len(data), s) {
			t.Fatalf("%v symbol count %d, want %d", s, len(syms), SymbolCount(len(data), s))
		}
		back := DemodulateBytes(syms, s)
		if !bytes.Equal(back[:len(data)], data) {
			t.Fatalf("%v clean round trip failed", s)
		}
	}
}

// TestModulateBytesMatchesBitPath pins ModulateBytes to ModulateBits over
// the unpacked bits, bit for bit, for every scheme: each byte value alone,
// then random strings of 0 to 9 bytes.
func TestModulateBytesMatchesBitPath(t *testing.T) {
	src := rng.New(3)
	check := func(s Scheme, data []byte) {
		t.Helper()
		got, want := ModulateBytes(data, s), ModulateBits(BytesToBits(data), s)
		if len(got) != len(want) {
			t.Fatalf("%v % x: %d symbols, bit path %d", s, data, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
				math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
				t.Fatalf("%v % x: symbol %d = %v, bit path %v", s, data, i, got[i], want[i])
			}
		}
	}
	for _, s := range Schemes() {
		for b := 0; b < 256; b++ {
			check(s, []byte{byte(b)})
		}
		for trial := 0; trial < 200; trial++ {
			data := make([]byte, src.IntN(10))
			for i := range data {
				data[i] = byte(src.IntN(256))
			}
			check(s, data)
		}
	}
}

func TestRoundTripUnderMildNoise(t *testing.T) {
	src := rng.New(2)
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(src.IntN(256))
	}
	// QPSK at ~20 dB SNR should decode error-free with overwhelming
	// probability at this sample size.
	syms := ModulateBytes(data, QPSK)
	for i := range syms {
		syms[i] += src.ComplexNormal(0.01)
	}
	if got := DemodulateBytes(syms, QPSK); !bytes.Equal(got[:len(data)], data) {
		t.Fatal("QPSK failed at 20 dB SNR")
	}
}

func TestModulatePartialSymbolPadding(t *testing.T) {
	bits := []uint8{1, 0, 1} // 3 bits into 16-QAM: one symbol, zero padded
	syms := ModulateBits(bits, QAM16)
	if len(syms) != 1 {
		t.Fatalf("got %d symbols, want 1", len(syms))
	}
	back := DemodulateBits(syms, QAM16)
	want := []uint8{1, 0, 1, 0}
	for i := range want {
		if back[i] != want[i] {
			t.Fatalf("padded demod = %v, want %v", back, want)
		}
	}
}

func TestFFTKnownValues(t *testing.T) {
	x := []complex128{1, 0, 0, 0}
	X := FFT(x)
	for i, v := range X {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("FFT(delta)[%d] = %v, want 1", i, v)
		}
	}
	// FFT of constant = delta at DC.
	c := []complex128{1, 1, 1, 1}
	C := FFT(c)
	if cmplx.Abs(C[0]-4) > 1e-12 {
		t.Fatalf("FFT(const)[0] = %v, want 4", C[0])
	}
	for i := 1; i < 4; i++ {
		if cmplx.Abs(C[i]) > 1e-12 {
			t.Fatalf("FFT(const)[%d] = %v, want 0", i, C[i])
		}
	}
}

func TestFFTInverseProperty(t *testing.T) {
	src := rng.New(3)
	for _, n := range []int{1, 2, 8, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = src.ComplexNormal(1)
		}
		y := IFFT(FFT(x))
		for i := range x {
			if cmplx.Abs(x[i]-y[i]) > 1e-9 {
				t.Fatalf("n=%d: IFFT(FFT(x))[%d] = %v, want %v", n, i, y[i], x[i])
			}
		}
	}
}

func TestFFTParseval(t *testing.T) {
	src := rng.New(4)
	x := make([]complex128, 128)
	for i := range x {
		x[i] = src.ComplexNormal(1)
	}
	X := FFT(x)
	var et, ef float64
	for i := range x {
		et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		ef += real(X[i])*real(X[i]) + imag(X[i])*imag(X[i])
	}
	if math.Abs(ef-float64(len(x))*et) > 1e-6*ef {
		t.Fatalf("Parseval violated: freq %v vs N*time %v", ef, float64(len(x))*et)
	}
}

func TestFFTNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two FFT")
		}
	}()
	FFT(make([]complex128, 3))
}

func TestFFTLinearityProperty(t *testing.T) {
	src := rng.New(5)
	err := quick.Check(func(seed uint8) bool {
		n := 16
		a := make([]complex128, n)
		b := make([]complex128, n)
		for i := range a {
			a[i] = src.ComplexNormal(1)
			b[i] = src.ComplexNormal(1)
		}
		alpha := src.ComplexNormal(1)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = alpha*a[i] + b[i]
		}
		fa, fb, fs := FFT(a), FFT(b), FFT(sum)
		for i := range fs {
			if cmplx.Abs(fs[i]-(alpha*fa[i]+fb[i])) > 1e-8 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}

func TestOFDMRoundTrip(t *testing.T) {
	o, err := NewOFDM(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(6)
	freq := make([]complex128, 16)
	for i := range freq {
		freq[i] = src.ComplexNormal(1)
	}
	td := o.Modulate(freq)
	if len(td) != o.BlockLen() {
		t.Fatalf("block len %d, want %d", len(td), o.BlockLen())
	}
	back := o.Demodulate(td)
	for i := range freq {
		if cmplx.Abs(freq[i]-back[i]) > 1e-9 {
			t.Fatalf("OFDM round trip [%d] = %v, want %v", i, back[i], freq[i])
		}
	}
}

func TestOFDMCyclicPrefixIsCyclic(t *testing.T) {
	o, _ := NewOFDM(8, 3)
	freq := make([]complex128, 8)
	freq[1] = 1
	td := o.Modulate(freq)
	for i := 0; i < o.CP; i++ {
		if cmplx.Abs(td[i]-td[i+o.N]) > 1e-12 {
			t.Fatalf("CP sample %d does not match tail", i)
		}
	}
}

func TestOFDMDelayedWithinCPIsPhaseRotation(t *testing.T) {
	// The defining CP property: a channel delay shorter than the CP shows up
	// only as a per-subcarrier phase rotation, keeping multipath inside the
	// integration window (§3.2).
	o, _ := NewOFDM(16, 4)
	src := rng.New(7)
	freq := make([]complex128, 16)
	for i := range freq {
		freq[i] = src.ComplexNormal(1)
	}
	td := o.Modulate(freq)
	// Build a 2-sample-delayed copy of the (infinitely repeating) block.
	delay := 2
	shifted := make([]complex128, len(td))
	for i := range shifted {
		src := i - delay
		if src < 0 {
			// Preceding samples come from the tail of the same cyclic block.
			src += o.N
		}
		shifted[i] = td[src]
	}
	got := o.Demodulate(shifted)
	for k := range got {
		rot := cmplx.Exp(complex(0, -2*math.Pi*float64(k)*float64(delay)/float64(o.N)))
		if cmplx.Abs(got[k]-freq[k]*rot) > 1e-9 {
			t.Fatalf("subcarrier %d: delayed demod %v, want %v", k, got[k], freq[k]*rot)
		}
	}
}

func TestNewOFDMValidation(t *testing.T) {
	if _, err := NewOFDM(12, 2); err == nil {
		t.Error("expected error for non-power-of-two N")
	}
	if _, err := NewOFDM(8, 9); err == nil {
		t.Error("expected error for CP > N")
	}
	if _, err := NewOFDM(8, -1); err == nil {
		t.Error("expected error for negative CP")
	}
	if _, err := NewOFDM(0, 0); err == nil {
		t.Error("expected error for N=0")
	}
}

func TestZeroMeanChips(t *testing.T) {
	chips := ZeroMeanChips(3+4i, 8)
	var sum complex128
	for _, c := range chips {
		sum += c
	}
	if cmplx.Abs(sum) > 1e-12 {
		t.Fatalf("chips sum = %v, want 0", sum)
	}
	signs := ChipSigns(8)
	for i, c := range chips {
		if cmplx.Abs(c-complex(signs[i], 0)*(3+4i)) > 1e-12 {
			t.Fatalf("chip %d inconsistent with sign pattern", i)
		}
	}
}

func TestZeroMeanChipsCancelStaticChannel(t *testing.T) {
	// A static channel h integrated against the chips of any symbol is zero,
	// while an MTS flipping with the chip signs accumulates p·h_mts·sym.
	h := 0.7 - 0.2i
	hmts := 0.3 + 0.9i
	sym := 1 - 1i
	p := 4
	chips := ZeroMeanChips(sym, p)
	signs := ChipSigns(p)
	var env, mts complex128
	for i, c := range chips {
		env += h * c
		mts += hmts * complex(signs[i], 0) * c
	}
	if cmplx.Abs(env) > 1e-12 {
		t.Fatalf("static channel leaked %v through zero-mean chips", env)
	}
	want := hmts * sym * complex(float64(p), 0)
	if cmplx.Abs(mts-want) > 1e-12 {
		t.Fatalf("MTS path integral = %v, want %v", mts, want)
	}
}

func TestZeroMeanChipsOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for odd chip count")
		}
	}()
	ZeroMeanChips(1, 3)
}

func TestSymbolCount(t *testing.T) {
	// 64 bytes = 512 bits: 256-QAM -> 64 symbols (the paper's default MNIST
	// encoding yields U = pixels when one pixel byte maps to one symbol).
	if got := SymbolCount(64, QAM256); got != 64 {
		t.Errorf("SymbolCount(64, 256-QAM) = %d, want 64", got)
	}
	if got := SymbolCount(64, BPSK); got != 512 {
		t.Errorf("SymbolCount(64, BPSK) = %d, want 512", got)
	}
	if got := SymbolCount(1, QAM64); got != 2 {
		t.Errorf("SymbolCount(1, 64-QAM) = %d, want 2", got)
	}
}
