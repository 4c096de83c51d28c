// Package modem is the digital-modulation substrate of the MetaAI pipeline.
//
// MetaAI's transmitters are ordinary commodity radios: a sensor sample is
// encoded into bits, the bits are grouped and mapped onto complex
// constellation symbols (BPSK through 256-QAM, Gray-coded), and the symbols
// are transmitted sequentially (§2.2 and Fig 4 of the paper). The package
// also provides the OFDM machinery (radix-2 FFT, cyclic prefix) used by the
// subcarrier-based parallelism scheme (§3.3), and the zero-mean sub-chip
// symbol waveforms that the multipath-cancellation scheme of §3.2 relies on:
// digital symbols are DC-balanced over their period, so a static
// environmental channel integrates to zero while the metasurface — which
// switches within the symbol period — does not.
package modem

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// Scheme identifies a linear digital modulation scheme.
type Scheme int

// Supported schemes, in increasing spectral efficiency. These are the five
// schemes evaluated in Fig 23 of the paper.
const (
	BPSK Scheme = iota
	QPSK
	QAM16
	QAM64
	QAM256
)

var schemeNames = map[Scheme]string{
	BPSK:   "BPSK",
	QPSK:   "QPSK",
	QAM16:  "16-QAM",
	QAM64:  "64-QAM",
	QAM256: "256-QAM",
}

// String returns the conventional name of the scheme.
func (s Scheme) String() string {
	if n, ok := schemeNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Schemes lists every supported scheme in increasing order.
func Schemes() []Scheme { return []Scheme{BPSK, QPSK, QAM16, QAM64, QAM256} }

// BitsPerSymbol returns the number of bits carried by one symbol.
func (s Scheme) BitsPerSymbol() int {
	switch s {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	case QAM256:
		return 8
	default:
		panic(fmt.Sprintf("modem: unknown scheme %d", int(s)))
	}
}

// Constellation returns the scheme's constellation points, indexed by the
// Gray-coded bit label (MSB first), normalized to unit average power.
// The returned slice is shared; callers must not modify it.
func (s Scheme) Constellation() []complex128 {
	return constellations[s]
}

var constellations = func() map[Scheme][]complex128 {
	m := make(map[Scheme][]complex128)
	for _, s := range []Scheme{BPSK, QPSK, QAM16, QAM64, QAM256} {
		m[s] = buildConstellation(s)
	}
	return m
}()

// grayToBinary inverts the Gray code g.
func grayToBinary(g uint) uint {
	b := g
	for g >>= 1; g != 0; g >>= 1 {
		b ^= g
	}
	return b
}

// pamLevel maps a k-bit Gray label to an amplitude level in
// {-(2^k-1), ..., -1, +1, ..., +(2^k-1)} such that adjacent levels differ in
// exactly one bit.
func pamLevel(label uint, k int) float64 {
	b := grayToBinary(label)
	return float64(2*int(b) - (1<<k - 1))
}

func buildConstellation(s Scheme) []complex128 {
	b := s.BitsPerSymbol()
	n := 1 << b
	pts := make([]complex128, n)
	switch s {
	case BPSK:
		pts[0] = -1
		pts[1] = 1
		return pts
	default:
		// Square QAM: high half of the bits Gray-map the I axis, low half
		// the Q axis.
		k := b / 2
		var power float64
		for label := 0; label < n; label++ {
			i := pamLevel(uint(label)>>k, k)
			q := pamLevel(uint(label)&((1<<k)-1), k)
			pts[label] = complex(i, q)
			power += i*i + q*q
		}
		norm := math.Sqrt(power / float64(n))
		for i := range pts {
			pts[i] /= complex(norm, 0)
		}
		return pts
	}
}

// BytesToBits unpacks data into individual bits, MSB first.
func BytesToBits(data []byte) []uint8 {
	out := make([]uint8, 0, len(data)*8)
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			out = append(out, (b>>uint(i))&1)
		}
	}
	return out
}

// BitsToBytes packs bits (MSB first) into bytes, zero-padding the final
// partial byte.
func BitsToBytes(b []uint8) []byte {
	out := make([]byte, (len(b)+7)/8)
	for i, bit := range b {
		if bit != 0 {
			out[i/8] |= 1 << uint(7-i%8)
		}
	}
	return out
}

// ModulateBits maps a bit stream onto constellation symbols. Bits beyond the
// last full symbol group are zero-padded.
func ModulateBits(b []uint8, s Scheme) []complex128 {
	bps := s.BitsPerSymbol()
	con := s.Constellation()
	nsym := (len(b) + bps - 1) / bps
	out := make([]complex128, nsym)
	for i := 0; i < nsym; i++ {
		var label uint
		for j := 0; j < bps; j++ {
			label <<= 1
			idx := i*bps + j
			if idx < len(b) && b[idx] != 0 {
				label |= 1
			}
		}
		out[i] = con[label]
	}
	return out
}

// ModulateBytes is ModulateBits over the unpacked bits of data. Under an
// 8-bit scheme each byte is one symbol's MSB-first label, so it indexes the
// constellation directly.
func ModulateBytes(data []byte, s Scheme) []complex128 {
	if s.BitsPerSymbol() != 8 {
		return ModulateBits(BytesToBits(data), s)
	}
	con := s.Constellation()
	out := make([]complex128, len(data))
	for i, b := range data {
		out[i] = con[b]
	}
	return out
}

// DemodulateBits maps received symbols back to bits by minimum-distance
// decision over the constellation.
func DemodulateBits(syms []complex128, s Scheme) []uint8 {
	bps := s.BitsPerSymbol()
	con := s.Constellation()
	out := make([]uint8, 0, len(syms)*bps)
	for _, y := range syms {
		best, arg := math.Inf(1), 0
		for label, p := range con {
			if d := cmplx.Abs(y - p); d < best {
				best, arg = d, label
			}
		}
		for j := bps - 1; j >= 0; j-- {
			out = append(out, uint8(uint(arg)>>uint(j))&1)
		}
	}
	return out
}

// DemodulateBytes is DemodulateBits packed into bytes.
func DemodulateBytes(syms []complex128, s Scheme) []byte {
	return BitsToBytes(DemodulateBits(syms, s))
}

// SymbolCount returns the number of symbols needed to carry nBytes of data
// under the scheme. This is the input length U of the over-the-air LNN: the
// modulation scheme fixes the network's input dimensionality (§3.1).
func SymbolCount(nBytes int, s Scheme) int {
	bps := s.BitsPerSymbol()
	return (nBytes*8 + bps - 1) / bps
}

// FFT computes the in-place-free radix-2 decimation-in-time FFT of x.
// len(x) must be a power of two.
func FFT(x []complex128) []complex128 { return fft(x, false) }

// IFFT computes the inverse FFT (normalized by 1/N).
func IFFT(x []complex128) []complex128 {
	out := fft(x, true)
	n := complex(float64(len(x)), 0)
	for i := range out {
		out[i] /= n
	}
	return out
}

func fft(x []complex128, inverse bool) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("modem: FFT length %d is not a power of two", n))
	}
	out := make([]complex128, n)
	shift := uint(bits.LeadingZeros(uint(n)) + 1)
	for i, v := range x {
		out[bits.Reverse(uint(i))>>shift] = v
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := sign * 2 * math.Pi / float64(size)
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				sin, cos := math.Sincos(step * float64(k))
				w := complex(cos, sin)
				a := out[start+k]
				b := out[start+k+half] * w
				out[start+k] = a + b
				out[start+k+half] = a - b
			}
		}
	}
	return out
}

// OFDM modulates/demodulates blocks of per-subcarrier symbols with a cyclic
// prefix. The subcarrier-based parallelism scheme (§3.3) transmits the same
// input stream on K subcarriers while the metasurface imposes a shared phase
// pattern whose per-subcarrier responses differ, realizing K output neurons
// at once.
type OFDM struct {
	// N is the number of subcarriers; must be a power of two.
	N int
	// CP is the cyclic-prefix length in samples. The paper uses a standard
	// CP to keep all environmental multipath inside the integration window.
	CP int
}

// NewOFDM returns an OFDM modulator with n subcarriers and cp prefix
// samples. It returns an error if n is not a positive power of two or cp is
// out of [0, n].
func NewOFDM(n, cp int) (*OFDM, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("modem: OFDM subcarrier count %d is not a power of two", n)
	}
	if cp < 0 || cp > n {
		return nil, fmt.Errorf("modem: OFDM cyclic prefix %d out of [0, %d]", cp, n)
	}
	return &OFDM{N: n, CP: cp}, nil
}

// BlockLen returns the number of time-domain samples per OFDM block.
func (o *OFDM) BlockLen() int { return o.N + o.CP }

// Modulate converts one block of per-subcarrier frequency-domain symbols
// (len == N) into CP+N time-domain samples.
func (o *OFDM) Modulate(freq []complex128) []complex128 {
	if len(freq) != o.N {
		panic(fmt.Sprintf("modem: OFDM Modulate wants %d symbols, got %d", o.N, len(freq)))
	}
	td := IFFT(freq)
	out := make([]complex128, o.CP+o.N)
	copy(out, td[o.N-o.CP:])
	copy(out[o.CP:], td)
	return out
}

// Demodulate strips the cyclic prefix from one block of CP+N time-domain
// samples and returns the per-subcarrier symbols.
func (o *OFDM) Demodulate(td []complex128) []complex128 {
	if len(td) != o.CP+o.N {
		panic(fmt.Sprintf("modem: OFDM Demodulate wants %d samples, got %d", o.CP+o.N, len(td)))
	}
	return FFT(td[o.CP:])
}

// ZeroMeanChips expands one constellation symbol into p sub-chips that sum
// to zero (alternating ±), modeling the DC-balanced symbol waveform of
// Fig 8(a). p must be even and positive. A static channel h contributes
// h·Σchips = 0 to the receiver's within-symbol integral, while a metasurface
// that flips its configuration in sync with the chip signs contributes
// coherently — this is the multipath cancellation mechanism of §3.2.
func ZeroMeanChips(sym complex128, p int) []complex128 {
	if p <= 0 || p%2 != 0 {
		panic(fmt.Sprintf("modem: sub-chip count %d must be positive and even", p))
	}
	out := make([]complex128, p)
	for i := range out {
		if i%2 == 0 {
			out[i] = sym
		} else {
			out[i] = -sym
		}
	}
	return out
}

// ChipSigns returns the ± pattern used by ZeroMeanChips, which the
// metasurface controller mirrors when switching within a symbol period.
func ChipSigns(p int) []float64 {
	if p <= 0 || p%2 != 0 {
		panic(fmt.Sprintf("modem: sub-chip count %d must be positive and even", p))
	}
	out := make([]float64, p)
	for i := range out {
		if i%2 == 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}
