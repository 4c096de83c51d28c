package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/cplx"
	"repro/internal/obs"
	"repro/internal/ota"
	"repro/internal/rng"
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

// serveBenchRun deploys a small random-weight over-the-air system, enables
// observability, and replays n inferences through one session — then the
// same n through the batched zero-alloc path (AccumulateBatch sweeps of
// serveBatchSize, magnitudes via AbsInto scratch, mirroring the serve
// worker's steady state), then the sequential workload through a 2-layer
// stacked cascade. The whole run is a pure function of (n, seed) except for
// wall-clock durations, so the snapshot's Fingerprint (counters, gauges,
// histogram counts) is deterministic — the CI gate asserts exactly that.
// Measured fleet and overload numbers come from the e2ebench harness, which
// drives the shipped binaries over loopback sockets.
func serveBenchRun(n int, seed uint64) (serveBenchOut, error) {
	obs.SetEnabled(true)
	obs.Default().Reset()
	src := rng.New(seed)
	w := cplx.NewMat(4, 16)
	wsrc := rng.New(seed ^ 0x7)
	for i := range w.Data {
		w.Data[i] = cplx.Expi(wsrc.Phase()) * complex(0.5+wsrc.Float64(), 0)
	}
	d, err := ota.NewDeployment(w, ota.NewOptions(src.Split()), src)
	if err != nil {
		return serveBenchOut{}, err
	}
	sess := d.NewSession(src.Split())
	x := make([]complex128, d.InputLen())
	for i := range x {
		x[i] = cplx.Expi(src.Phase())
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		sess.Logits(x)
	}
	elapsed := time.Since(start)

	// Batched hot path: n inferences in AccumulateBatch sweeps over reused
	// accumulators and magnitude scratch — what a serve worker does per
	// wakeup under load — on a static-channel epoch (compensated
	// quasi-static environment, no jitter, no sync sampler), where the
	// deployment's cached flat response rows turn the inner loop into a
	// fused multiply-add.
	srcB := rng.New(seed ^ 0xba7c)
	optsB := ota.NewOptions(srcB.Split())
	optsB.SubSamples = 0
	optsB.JitterStd = 0
	optsB.CompensateEnv = true
	db, err := ota.NewDeployment(w, optsB, srcB)
	if err != nil {
		return serveBenchOut{}, err
	}
	sessB := db.NewSession(srcB.Split())
	xs := make([][]complex128, serveBatchSize)
	accs := make([]cplx.Vec, serveBatchSize)
	for i := range xs {
		xs[i] = x
		accs[i] = make(cplx.Vec, db.Classes())
	}
	var mags []float64
	startB := time.Now()
	for done := 0; done < n; done += serveBatchSize {
		sweep := xs
		if rem := n - done; rem < serveBatchSize {
			sweep = xs[:rem]
		}
		out := sessB.AccumulateBatch(sweep, accs)
		for _, acc := range out {
			mags = cplx.AbsInto(mags, acc)
		}
	}
	elapsedB := time.Since(startB)

	// Cascade hot path: the same weights behind a 2-layer stack.
	srcC := rng.New(seed ^ 0xca5c)
	optsC := ota.NewOptions(srcC.Split())
	optsC.Stack = ota.DefaultStack(1, srcC.Split())
	optsC.HopNoise = ota.DefaultHopNoise
	dc, err := ota.NewDeployment(w, optsC, srcC)
	if err != nil {
		return serveBenchOut{}, err
	}
	sessC := dc.NewSession(srcC.Split())
	startC := time.Now()
	for i := 0; i < n; i++ {
		sessC.Logits(x)
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
