package main

import (
	"errors"
	"math"
	"slices"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.99, 99}, {0.995, 100}, {1, 100},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty p50 = %v, want NaN", got)
	}
}

func TestSummarizeCountsAndOrder(t *testing.T) {
	xs := seq(1000)
	slices.Reverse(xs)
	orig := slices.Clone(xs)
	d := summarize(xs)
	if d.N != 1000 || d.P50 != 500 || d.P99 != 990 || d.Beyond99 != 10 {
		t.Errorf("summarize(1..1000) = %+v, want N 1000, p50 500, p99 990, 10 beyond", d)
	}
	if !slices.Equal(xs, orig) {
		t.Error("summarize reordered its input")
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(7, 400, 0.001, 100000)
	b := poissonSchedule(7, 400, 0.001, 100000)
	c := poissonSchedule(8, 400, 0.001, 100000)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	total := 0
	for _, n := range a {
		total += n
	}
	// 100 s at 400 req/s: mean 40000, standard deviation 200.
	if math.Abs(float64(total)-40000) > 1000 {
		t.Errorf("schedule holds %d requests, want 40000 ± 1000", total)
	}
}

// curve is a synthetic capacity: every trial at or below limit passes.
func curve(limit float64, trials *[]float64) func(float64) (bool, error) {
	return func(rate float64) (bool, error) {
		*trials = append(*trials, rate)
		return rate <= limit, nil
	}
}

func TestSearchMaxRateBracketsTheLimit(t *testing.T) {
	for _, limit := range []float64{450, 777, 3700, 5000} {
		var trials []float64
		got, err := searchMaxRate(400, true, 0.1, 12, curve(limit, &trials))
		if err != nil {
			t.Fatalf("limit %v: %v", limit, err)
		}
		if got > limit || got < limit/1.1 {
			t.Errorf("limit %v: found %v, want within 10%% below it", limit, got)
		}
		if slices.Contains(trials, 400) {
			t.Errorf("limit %v: re-measured the nominal rate (trials %v)", limit, trials)
		}
	}
}

func TestSearchMaxRateBelowNominal(t *testing.T) {
	var trials []float64
	got, err := searchMaxRate(400, false, 0.1, 12, curve(130, &trials))
	if err != nil {
		t.Fatal(err)
	}
	if got > 130 || got < 130/1.1 {
		t.Errorf("found %v, want within 10%% below 130", got)
	}
}

func TestSearchMaxRateReportsAnExhaustedBudget(t *testing.T) {
	var trials []float64
	got, err := searchMaxRate(400, true, 0.1, 3, curve(3700, &trials))
	if !errors.Is(err, errSearchBudget) {
		t.Fatalf("err = %v, want errSearchBudget", err)
	}
	if len(trials) != 3 || got != 3200 {
		t.Errorf("got %v after trials %v, want 3200 after 800, 1600, 3200", got, trials)
	}
}
