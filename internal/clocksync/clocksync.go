// Package clocksync implements the paper's two-phase CDFA synchronization
// strategy (§3.5.1). The transmitter and the metasurface share no clock, so
// the weight schedule starts with an offset relative to the data stream —
// Fig 13(b) shows a 4 µs error collapsing accuracy to 25.6%.
//
// Coarse-Grained Detection: a low-power envelope detector on the MTS senses
// the incident signal's energy and triggers schedule playback; the residual
// trigger error follows a Gamma distribution (Fig 12, 51.7th percentile
// above 3 µs).
//
// Fine-Grained Adjustment: instead of hardware correction, the *training*
// pipeline injects artificial synchronization errors — cyclic shifts whose
// sizes are drawn from the same Gamma family — so the learned weights are
// robust to the residual error the detector leaves behind.
package clocksync

import (
	"math"

	"repro/internal/nn"
	"repro/internal/rng"
)

// CoarseDetector models the envelope-detector trigger of §3.5.1. Its
// residual error (µs) is Gamma distributed; the defaults reproduce Fig 12,
// where 51.7% of errors exceed 3 µs.
type CoarseDetector struct {
	Shape float64 // Gamma shape σ
	Scale float64 // Gamma scale β, µs
}

// DefaultDetector returns the Fig 12 error model: Gamma(2.0, 1.75) has its
// median near 2.9 µs and a tail into the 8–10 µs range.
func DefaultDetector() CoarseDetector {
	return CoarseDetector{Shape: 2.0, Scale: 1.75}
}

// PaperStreamSymbols is the length of the paper's MNIST symbol stream
// (28×28 bytes at one byte per 256-QAM symbol), the reference against which
// detector severity is scaled.
const PaperStreamSymbols = 784

// ScaledDetector returns the Fig 12 detector with its error magnitude
// scaled to a stream of u symbols, preserving the paper's
// error-to-stream-length ratio. The destructiveness of a clock offset — and
// the capacity CDFA's injector costs — depends on the offset relative to
// the stream length; the paper's 784-symbol streams tolerate multi-µs
// errors at ~3% accuracy cost, and this scaling reproduces that cost for
// shorter streams.
func ScaledDetector(streamSymbols int) CoarseDetector {
	d := DefaultDetector()
	if streamSymbols > 0 {
		d.Scale *= float64(streamSymbols) / PaperStreamSymbols
	}
	return d
}

// SampleUs draws one residual synchronization error in microseconds.
func (d CoarseDetector) SampleUs(src *rng.Source) float64 {
	return src.Gamma(d.Shape, d.Scale)
}

// MedianUs estimates the detector's median error by sampling.
func (d CoarseDetector) MedianUs(src *rng.Source, n int) float64 {
	if n <= 0 {
		n = 1001
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.SampleUs(src)
	}
	// Selection via simple sort-free nth element is overkill here.
	insertionSort(xs)
	return xs[n/2]
}

func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// CDF returns the empirical CDF of the detector error evaluated at the
// given thresholds (µs), using n samples — the data behind Fig 12.
func (d CoarseDetector) CDF(thresholds []float64, n int, src *rng.Source) []float64 {
	counts := make([]int, len(thresholds))
	for i := 0; i < n; i++ {
		e := d.SampleUs(src)
		for j, th := range thresholds {
			if e <= th {
				counts[j]++
			}
		}
	}
	out := make([]float64, len(thresholds))
	for j, c := range counts {
		out[j] = float64(c) / float64(n)
	}
	return out
}

// SymbolPeriodUs converts a symbol rate to the symbol period in µs.
func SymbolPeriodUs(symbolRateHz float64) float64 {
	return 1e6 / symbolRateHz
}

// CoarseSampler returns an ota-compatible offset sampler: residual detector
// error converted from µs to symbols.
func CoarseSampler(d CoarseDetector, symbolRateHz float64) func(src *rng.Source) float64 {
	period := SymbolPeriodUs(symbolRateHz)
	return func(src *rng.Source) float64 {
		return d.SampleUs(src) / period
	}
}

// NoSyncSampler models having no synchronization at all: the schedule
// starts at a uniformly random position within the transmission — the
// "without sync scheme" baseline of Fig 16 (19.23% accuracy, blind
// guessing).
func NoSyncSampler(streamSymbols int) func(src *rng.Source) float64 {
	return func(src *rng.Source) float64 {
		if streamSymbols <= 0 {
			return 0
		}
		return float64(src.IntN(streamSymbols)) + src.Float64()
	}
}

// FixedSampler returns a constant offset (in symbols) — the controlled
// sweep of Fig 13(b).
func FixedSampler(offsetSymbols float64) func(src *rng.Source) float64 {
	return func(*rng.Source) float64 { return offsetSymbols }
}

// Injector returns the fine-grained-adjustment training augmenter: it
// cyclically shifts each training input by a Gamma-distributed number of
// symbol positions (with fractional mixing between adjacent symbols),
// mimicking the misalignment the runtime will experience. The shift
// direction matches the physical effect: a schedule that starts k symbols
// late computes Σ_i H[i−k]·x[i] = Σ_j H[j]·x[j+k], i.e. the network sees
// the input advanced by k.
//
// As is standard augmentation practice, a fraction of inputs pass through
// unshifted so the weights keep their zero-offset accuracy while acquiring
// offset tolerance — Fig 13(b)'s CDFA curve is flat from 0 µs onward.
func Injector(d CoarseDetector, symbolRateHz float64) nn.InputAugmenter {
	const cleanProb = 0.35
	period := SymbolPeriodUs(symbolRateHz)
	return func(x []complex128, src *rng.Source) []complex128 {
		if src.Bernoulli(cleanProb) {
			return x
		}
		offset := d.SampleUs(src) / period
		return ApplyOffset(x, offset)
	}
}

// UniformInjector injects offsets drawn uniformly from [0, maxUs] — the
// distribution-mismatch ablation: the paper argues Gamma-matched injection
// (Fig 12) beats naive choices.
func UniformInjector(maxUs, symbolRateHz float64) nn.InputAugmenter {
	period := SymbolPeriodUs(symbolRateHz)
	return func(x []complex128, src *rng.Source) []complex128 {
		offset := src.Float64() * maxUs / period
		return ApplyOffset(x, offset)
	}
}

// ApplyOffset advances x by a (possibly fractional) number of symbols,
// cyclically: out[j] = (1−f)·x[j+k] + f·x[j+k+1] where k = ⌊offset⌋ and
// f its fractional part. It mirrors exactly how the ota engine mixes
// adjacent schedule entries under a clock offset.
func ApplyOffset(x []complex128, offset float64) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	k := int(math.Floor(offset))
	f := offset - float64(k)
	if f < 1e-9 {
		return nn.CyclicShift(x, -k)
	}
	out := make([]complex128, n)
	cf := complex(f, 0)
	j := ((k % n) + n) % n // out[i] mixes x[(i+k) mod n] and its successor
	for i := range out {
		next := j + 1
		if next == n {
			next = 0
		}
		out[i] = x[j]*(1-cf) + x[next]*cf
		j = next
	}
	return out
}
