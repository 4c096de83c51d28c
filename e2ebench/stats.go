package main

import (
	"errors"
	"math"
	"math/rand/v2"
	"sort"
)

// percentile returns the q-quantile (q in [0, 1]) of an ascending slice by
// the nearest-rank rule: the smallest sample with at least ceil(q·n)
// samples at or below it. It returns NaN for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// dist summarizes one latency sample: its size, median and p99, and how
// many samples lie above the p99 (a tail percentile wants ten or more).
type dist struct {
	N        int
	P50, P99 float64
	Beyond99 int
}

// summarize summarizes xs (left in its order).
func summarize(xs []float64) dist {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	d := dist{N: len(xs), P50: percentile(xs, 0.50), P99: percentile(xs, 0.99)}
	for i := len(xs) - 1; i >= 0 && xs[i] > d.P99; i-- {
		d.Beyond99++
	}
	return d
}

// median returns the nearest-rank median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// newRand returns the benchmark's seeded generator for one purpose; the
// stream constant keeps the schedules of different purposes independent.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// poisson draws one Poisson(lambda) count by Knuth's product method, which
// is exact and fast for the small per-tick means the generator uses.
func poisson(r *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	limit := math.Exp(-lambda)
	k, p := 0, r.Float64()
	for p > limit {
		k++
		p *= r.Float64()
	}
	return k
}

// poissonSchedule returns the number of requests due at each of ticks
// equal ticks of tickSec seconds for a Poisson arrival process at rate
// requests per second. It is a pure function of its arguments, so the
// whole open-loop schedule is fixed by the seed before a run starts.
func poissonSchedule(seed uint64, rate, tickSec float64, ticks int) []int {
	r := newRand(seed, 0x5c4ed)
	out := make([]int, ticks)
	for i := range out {
		out[i] = poisson(r, rate*tickSec)
	}
	return out
}

// errSearchBudget reports a capacity search that ran out of trials before
// bracketing the limit to the requested tolerance; the best lower bound
// found so far is still returned.
var errSearchBudget = errors.New("rate search: trial budget exhausted")

// searchMaxRate finds the highest rate at which trial passes: it doubles
// from start until a trial fails, then bisects the bracket until its width
// is at most tol of the passing end. first is the outcome already known at
// start (the nominal phase), so no trial is spent re-measuring it. At most
// maxTrials further rates are tried. It returns the highest passing rate
// (0 if nothing passed).
func searchMaxRate(start float64, first bool, tol float64, maxTrials int, trial func(rate float64) (bool, error)) (float64, error) {
	lo, hi := 0.0, 0.0 // highest pass, lowest fail (0 = unknown)
	if first {
		lo = start
	} else {
		hi = start
	}
	for n := 0; n < maxTrials; n++ {
		var next float64
		switch {
		case hi == 0:
			next = 2 * lo
		case lo > 0 && (hi-lo) <= tol*lo:
			return lo, nil
		case lo == 0 && hi <= start/64:
			return 0, nil
		default:
			next = (lo + hi) / 2
		}
		pass, err := trial(next)
		if err != nil {
			return lo, err
		}
		if pass {
			lo = next
		} else {
			hi = next
		}
	}
	if hi > 0 && lo > 0 && (hi-lo) <= tol*lo {
		return lo, nil
	}
	return lo, errSearchBudget
}
