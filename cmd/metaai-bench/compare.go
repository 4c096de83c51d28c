package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/obs"
)

// benchReport is runServeBench's JSON artifact, reloaded so two snapshots
// can be diffed. obs.Bucket round-trips its "+Inf" overflow bound, which
// lets Quantile re-derive percentiles from the persisted buckets.
type benchReport struct {
	Bench        string  `json:"bench"`
	Inferences   int     `json:"inferences"`
	Seed         uint64  `json:"seed"`
	BatchSize    int     `json:"batch_size"`
	WallSeconds  float64 `json:"wall_seconds"`
	MicrosPerInf float64 `json:"micros_per_inference"`
	// MicrosPerInfBatch gates the batched zero-alloc serve path
	// (AccumulateBatch sweeps); zero in artifacts written before batching
	// existed, which check() treats as "no old baseline" rather than a
	// regression.
	MicrosPerInfBatch float64 `json:"micros_per_inference_batch"`
	// MicrosPerInfCas gates the 2-layer cascade hot path; zero in artifacts
	// written before cascades existed, which check() treats as "no old
	// baseline" rather than a regression.
	MicrosPerInfCas float64       `json:"micros_per_inference_cascade2"`
	Metrics         *obs.Snapshot `json:"metrics"`
}

func loadBenchReport(path string) (*benchReport, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchReport
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Metrics == nil {
		return nil, fmt.Errorf("%s: no metrics section", path)
	}
	return &r, nil
}

// compareReports diffs every latency series the two snapshots share — each
// histogram's p99 plus the report-level µs-per-inference — and returns an
// error naming every regression beyond the gate. A series regresses only
// when BOTH conditions hold:
//
//   - relative: new p99 exceeds old p99 by more than threshold (0.10 = 10%)
//   - absolute: the increase also exceeds floorMicros
//
// The absolute floor keeps the gate honest at microsecond scale, where a
// scheduler hiccup can double a 3µs p99 without meaning anything; a real
// regression moves the needle in both relative and absolute terms.
// Improvements and series present on only one side never fail the gate.
func compareReports(oldR, newR *benchReport, threshold, floorMicros float64) error {
	type row struct {
		name      string
		oldUs     float64
		newUs     float64
		regressed bool
	}
	var rows []row
	check := func(name string, oldUs, newUs float64) {
		r := row{name: name, oldUs: oldUs, newUs: newUs}
		if oldUs > 0 {
			rel := (newUs - oldUs) / oldUs
			r.regressed = rel > threshold && newUs-oldUs > floorMicros
		}
		rows = append(rows, r)
	}
	check("micros_per_inference", oldR.MicrosPerInf, newR.MicrosPerInf)
	check("micros_per_inference_batch", oldR.MicrosPerInfBatch, newR.MicrosPerInfBatch)
	check("micros_per_inference_cascade2", oldR.MicrosPerInfCas, newR.MicrosPerInfCas)
	for _, name := range sortedNames(oldR.Metrics.Histograms) {
		oldH := oldR.Metrics.Histograms[name]
		newH, ok := newR.Metrics.Histograms[name]
		if !ok || oldH.Count == 0 || newH.Count == 0 {
			continue
		}
		check(name+" p99", oldH.Quantile(0.99)*1e6, newH.Quantile(0.99)*1e6)
	}

	var failed []string
	for _, r := range rows {
		verdict := "ok"
		if r.regressed {
			verdict = "REGRESSED"
			failed = append(failed, r.name)
		}
		delta := 0.0
		if r.oldUs > 0 {
			delta = 100 * (r.newUs - r.oldUs) / r.oldUs
		}
		fmt.Printf("compare: %-36s old %10.2fµs  new %10.2fµs  %+7.1f%%  %s\n",
			r.name, r.oldUs, r.newUs, delta, verdict)
	}
	if len(failed) > 0 {
		return fmt.Errorf("p99 regression beyond %.0f%% (+%.0fµs floor) in: %v",
			threshold*100, floorMicros, failed)
	}
	return nil
}

// runCompare loads two servebench artifacts and exits non-zero (via the
// returned error) on any gated p99 regression of new relative to old.
func runCompare(oldPath, newPath string, threshold, floorMicros float64) error {
	oldR, err := loadBenchReport(oldPath)
	if err != nil {
		return err
	}
	newR, err := loadBenchReport(newPath)
	if err != nil {
		return err
	}
	return compareReports(oldR, newR, threshold, floorMicros)
}

func sortedNames(m map[string]obs.HistogramSnapshot) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
