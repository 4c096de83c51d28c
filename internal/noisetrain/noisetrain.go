// Package noisetrain implements the system-noise alleviation scheme of
// §3.5.2: training-time injection of the two noise sources of Eqn 13 —
// hardware noise N_d (meta-atom device discrepancies) and environmental
// noise N_e — so the deployed weights tolerate them.
//
// The paper's reorganization (Eqn 14) observes that hardware noise applied
// to the *weights* is equivalent to noise applied to the *input signal*
// (N̂_d = x/H·N_d), because weights change during training but the input
// does not. The package therefore trains with (a) an input-side complex
// noise whose level mimics the hardware SNR and (b) an output-side complex
// noise N_e; both levels are calibrated against the data's actual signal
// scales in a two-stage procedure (plain pre-training measures the output
// magnitude scale, then the final model trains with matched noise).
package noisetrain

import (
	"math"

	"repro/internal/nn"
	"repro/internal/rng"
)

// Config sets the injected noise levels as SNRs relative to the measured
// signal scales.
type Config struct {
	// InputSNRdB is the signal-to-hardware-noise ratio mimicking N̂_d of
	// Eqn 14 (applied per input symbol). ≤0 disables.
	InputSNRdB float64
	// OutputSNRdB is the accumulator-to-environment-noise ratio mimicking
	// N_e of Eqn 13 (applied per output before the magnitude). ≤0 disables.
	OutputSNRdB float64
}

// DefaultConfig trains against roughly the noise the prototype hardware and
// a mid-range link exhibit.
func DefaultConfig() Config {
	return Config{InputSNRdB: 18, OutputSNRdB: 16}
}

// InputNoise returns an augmenter adding circularly-symmetric complex noise
// at the given SNR relative to unit-power symbols.
func InputNoise(snrDB float64) nn.InputAugmenter {
	sigma2 := math.Pow(10, -snrDB/10)
	return func(dst, x []complex128, src *rng.Source) []complex128 {
		if dst == nil {
			dst = make([]complex128, len(x))
		}
		for i, v := range x {
			dst[i] = v + src.ComplexNormal(sigma2)
		}
		return dst
	}
}

// OutputNoise returns a noiser adding complex noise of the given standard
// deviation to every pre-magnitude output.
func OutputNoise(std float64) nn.OutputNoiser {
	sigma2 := std * std
	return func(n int, src *rng.Source) []complex128 {
		out := make([]complex128, n)
		for i := range out {
			out[i] = src.ComplexNormal(sigma2)
		}
		return out
	}
}

// MeasureOutputRMS returns the RMS magnitude of a model's pre-softmax
// outputs over a set — the signal scale N_e is calibrated against.
func MeasureOutputRMS(m *nn.ComplexLNN, set *nn.EncodedSet) float64 {
	if len(set.X) == 0 {
		return 0
	}
	var sum float64
	var n int
	for _, x := range set.X {
		for _, v := range m.Logits(x) {
			sum += v * v
			n++
		}
	}
	return math.Sqrt(sum / float64(n))
}

// Train runs the two-stage noise-aware training: a plain pre-training pass
// establishes the output signal scale, then the final model trains with
// input noise at InputSNRdB and output noise at OutputSNRdB relative to that
// scale. cfg.Epochs etc. follow base.
func Train(train *nn.EncodedSet, base nn.TrainConfig, noise Config) *nn.ComplexLNN {
	pre := base
	pre.InputAug = nil
	pre.OutputNoise = nil
	plain := nn.TrainLNN(train, pre)
	scale := MeasureOutputRMS(plain, train)

	final := base
	if noise.InputSNRdB > 0 {
		final.InputAug = InputNoise(noise.InputSNRdB)
	}
	if noise.OutputSNRdB > 0 && scale > 0 {
		std := scale * math.Pow(10, -noise.OutputSNRdB/20)
		final.OutputNoise = OutputNoise(std)
	}
	return nn.TrainLNN(train, final)
}
