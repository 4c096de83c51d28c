package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestServeBenchDeterministicFingerprint is the CI observability-determinism
// gate: two servebench runs under the same seed must produce bit-identical
// metric fingerprints (counters, gauge bits, histogram observation counts).
// Wall-clock sums and bucket placements are legitimately nondeterministic
// and are excluded by Fingerprint by construction.
func TestServeBenchDeterministicFingerprint(t *testing.T) {
	defer obs.SetEnabled(false)
	a, err := serveBenchRun(50, 3)
	if err != nil {
		t.Fatal(err)
	}
	fpA := a.snap.Fingerprint()
	b, err := serveBenchRun(50, 3)
	if err != nil {
		t.Fatal(err)
	}
	fpB := b.snap.Fingerprint()
	if len(fpA) == 0 {
		t.Fatal("empty fingerprint: instrumentation recorded nothing")
	}
	if !reflect.DeepEqual(fpA, fpB) {
		t.Fatalf("seeded runs diverged:\nrun A: %v\nrun B: %v", fpA, fpB)
	}
	// 50 through the single surface + 50 through the batched tier + 50
	// through the 2-layer cascade.
	if fpA["counter:ota.inferences"] != 150 {
		t.Fatalf("ota.inferences = %d, want 150", fpA["counter:ota.inferences"])
	}
	if fpA["histcount:ota.infer.seconds"] != 150 {
		t.Fatalf("ota.infer.seconds count = %d, want 150", fpA["histcount:ota.infer.seconds"])
	}
	if fpA["counter:mts.solve.calls"] == 0 {
		t.Fatal("mts.solve.calls = 0: deployment solve was not instrumented")
	}
	if fpA["counter:ota.cascade.deploys"] != 1 {
		t.Fatalf("ota.cascade.deploys = %d, want 1", fpA["counter:ota.cascade.deploys"])
	}
}

// TestServeBenchWritesReport exercises the emit path end to end: the JSON
// artifact must parse and carry the non-zero metric sections the README
// points people at.
func TestServeBenchWritesReport(t *testing.T) {
	defer obs.SetEnabled(false)
	out := filepath.Join(t.TempDir(), "BENCH_serve.json")
	if err := runServeBench(20, out, 1); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Bench      string  `json:"bench"`
		Inferences int     `json:"inferences"`
		BatchSize  int     `json:"batch_size"`
		CascadeUs  float64 `json:"micros_per_inference_cascade2"`
		Metrics    struct {
			Counters   map[string]int64           `json:"counters"`
			Histograms map[string]json.RawMessage `json:"histograms"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(blob, &report); err != nil {
		t.Fatalf("artifact does not parse: %v", err)
	}
	if report.Bench != "serve" || report.Inferences != 20 {
		t.Fatalf("report header = (%q, %d), want (serve, 20)", report.Bench, report.Inferences)
	}
	if report.CascadeUs <= 0 {
		t.Fatal("artifact carries no cascade hot-path latency")
	}
	if report.BatchSize != serveBatchSize {
		t.Fatalf("batch_size = %d, want %d", report.BatchSize, serveBatchSize)
	}
	if report.Metrics.Counters["ota.inferences"] != 60 {
		t.Fatalf("ota.inferences = %d, want 60 (20 single + 20 batched + 20 cascade)", report.Metrics.Counters["ota.inferences"])
	}
	if _, ok := report.Metrics.Histograms["ota.infer.seconds"]; !ok {
		t.Fatal("snapshot missing ota.infer.seconds histogram")
	}
}
