package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/cplx"
	"repro/internal/obs"
)

// serveBatchSize is the sweep width of the batched-inference tier — the
// serve worker's drain ceiling at `-batch 8`.
const serveBatchSize = 8

// serveBenchOut bundles one servebench run: the metric snapshot and the
// three inference-loop wall times.
type serveBenchOut struct {
	snap                   *obs.Snapshot
	single, batch, cascade time.Duration
}

// serveBenchRun enables observability, builds the shipped deployment —
// core.DefaultConfig("mnist") with its CDFA clock-sync sampler, seeded
// with seed (seed 1 is exactly what a metaai-serve replica serves at
// default flags) — and replays n encoded test samples through one session,
// then the same n in AccumulateBatch sweeps of serveBatchSize over reused
// accumulators and magnitude scratch, then the sequential workload through
// the same model deployed as a 2-layer cascade. The whole run is a pure
// function of (n, seed) except for wall-clock durations, so the snapshot's
// Fingerprint (counters, gauges, histogram counts) is deterministic — the
// CI gate asserts exactly that. Measured fleet and overload numbers come
// from the e2ebench harness, which drives the shipped binaries over
// loopback sockets.
func serveBenchRun(n int, seed uint64) (serveBenchOut, error) {
	obs.SetEnabled(true)
	obs.Default().Reset()
	cfg := core.DefaultConfig("mnist")
	cfg.Seed = seed
	p, err := core.New(cfg)
	if err != nil {
		return serveBenchOut{}, err
	}
	xs := p.Test.X
	sess := p.Deployment().SessionFromSeed(seed)
	start := time.Now()
	for i := 0; i < n; i++ {
		sess.Logits(xs[i%len(xs)])
	}
	elapsed := time.Since(start)

	// Batched tier: n inferences in AccumulateBatch sweeps — one worker
	// wakeup's drain under load.
	sessB := p.Deployment().SessionFromSeed(seed ^ 0xba7c)
	sweep := make([][]complex128, serveBatchSize)
	accs := make([]cplx.Vec, serveBatchSize)
	var mags []float64
	startB := time.Now()
	for done := 0; done < n; done += serveBatchSize {
		k := min(serveBatchSize, n-done)
		for b := 0; b < k; b++ {
			sweep[b] = xs[(done+b)%len(xs)]
		}
		for _, acc := range sessB.AccumulateBatch(sweep[:k], accs) {
			mags = cplx.AbsInto(mags, acc)
		}
	}
	elapsedB := time.Since(startB)

	// Cascade tier: the same trained model behind a 2-layer stack.
	cfgC := cfg
	cfgC.Layers = 2
	pc, err := core.NewFromModel(p.Train, p.Test, p.Model, cfgC)
	if err != nil {
		return serveBenchOut{}, err
	}
	sessC := pc.Deployment().SessionFromSeed(seed ^ 0xca5c)
	startC := time.Now()
	for i := 0; i < n; i++ {
		sessC.Logits(xs[i%len(xs)])
	}
	elapsedC := time.Since(startC)

	snap := obs.Default().Snapshot()
	return serveBenchOut{snap: &snap, single: elapsed, batch: elapsedB, cascade: elapsedC}, nil
}

// runServeBench executes serveBenchRun and writes the snapshot plus run
// metadata to out as indented JSON. Emit-only: nothing here enforces a
// latency threshold — the artifact exists so regressions show up in diffs,
// not so CI flakes on a loaded machine.
func runServeBench(n int, out string, seed uint64) error {
	if n < 1 {
		n = 1
	}
	r, err := serveBenchRun(n, seed)
	if err != nil {
		return err
	}
	report := benchReport{
		Bench:             "serve",
		Inferences:        n,
		Seed:              seed,
		BatchSize:         serveBatchSize,
		WallSeconds:       r.single.Seconds(),
		MicrosPerInf:      float64(r.single.Microseconds()) / float64(n),
		MicrosPerInfBatch: float64(r.batch.Microseconds()) / float64(n),
		MicrosPerInfCas:   float64(r.cascade.Microseconds()) / float64(n),
		Metrics:           r.snap,
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("servebench: %d inferences in %.3fs (%.1f µs each; batch-%d %.1f µs each; 2-layer cascade %.1f µs each), snapshot written to %s\n",
		n, r.single.Seconds(), report.MicrosPerInf, serveBatchSize, report.MicrosPerInfBatch, report.MicrosPerInfCas, out)
	return nil
}
