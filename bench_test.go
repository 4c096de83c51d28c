// Benchmarks regenerating every table and figure of the paper (one
// benchmark per artifact, per DESIGN.md's experiment index) plus the
// ablation benches for the design choices DESIGN.md calls out.
//
// Each iteration regenerates the artifact end to end — dataset synthesis,
// training, metasurface schedule solving, and over-the-air evaluation — so
// ns/op measures the full reproduction cost. Run a single pass with:
//
//	go test -bench=. -benchtime=1x -benchmem
package metaai_test

import (
	"runtime"
	"sync"
	"testing"

	metaai "repro"

	"repro/internal/cplx"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/ota"
	"repro/internal/rng"
)

// benchExperiment runs one experiment per iteration at Quick scale with a
// reduced evaluation cap so the full suite stays tractable.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewCtx(dataset.Quick, 1)
		ctx.EvalCap = 120
		res, err := experiments.Run(id, ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFig6WeightDistribution(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkFig7AtomsSweep(b *testing.B)         { benchExperiment(b, "fig7") }
func BenchmarkTable1Overall(b *testing.B)          { benchExperiment(b, "table1") }
func BenchmarkFig12SyncErrorCDF(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkFig13CDFA(b *testing.B)              { benchExperiment(b, "fig13") }
func BenchmarkFig16SyncScheme(b *testing.B)        { benchExperiment(b, "fig16") }
func BenchmarkFig17Multipath(b *testing.B)         { benchExperiment(b, "fig17") }
func BenchmarkFig18Parallelism(b *testing.B)       { benchExperiment(b, "fig18") }
func BenchmarkFig19Noise(b *testing.B)             { benchExperiment(b, "fig19") }
func BenchmarkFig20MultiSensor(b *testing.B)       { benchExperiment(b, "fig20") }
func BenchmarkFig21NLoS(b *testing.B)              { benchExperiment(b, "fig21") }
func BenchmarkFig22Bands(b *testing.B)             { benchExperiment(b, "fig22") }
func BenchmarkFig23Modulation(b *testing.B)        { benchExperiment(b, "fig23") }
func BenchmarkFig24TxDistance(b *testing.B)        { benchExperiment(b, "fig24") }
func BenchmarkFig25TxAngle(b *testing.B)           { benchExperiment(b, "fig25") }
func BenchmarkFig26Interference(b *testing.B)      { benchExperiment(b, "fig26") }
func BenchmarkFig27CrossRoom(b *testing.B)         { benchExperiment(b, "fig27") }
func BenchmarkFig28FaceCase(b *testing.B)          { benchExperiment(b, "fig28") }
func BenchmarkFig29PNNLayers(b *testing.B)         { benchExperiment(b, "fig29") }
func BenchmarkFig30WDD(b *testing.B)               { benchExperiment(b, "fig30") }
func BenchmarkFig31ParallelSweep(b *testing.B)     { benchExperiment(b, "fig31") }
func BenchmarkTable2EnergyMNIST(b *testing.B)      { benchExperiment(b, "table2") }
func BenchmarkTable3EnergyAFHQ(b *testing.B)       { benchExperiment(b, "table3") }

// benchPipe deploys one MNIST pipeline, shared across the evaluator benches
// so serial and parallel runs measure the same deployment.
var benchPipe = struct {
	once sync.Once
	pipe *metaai.Pipeline
	err  error
}{}

func evalPipeline(b *testing.B) *metaai.Pipeline {
	b.Helper()
	benchPipe.once.Do(func() {
		benchPipe.pipe, benchPipe.err = metaai.Run(metaai.DefaultConfig("mnist"))
	})
	if benchPipe.err != nil {
		b.Fatal(benchPipe.err)
	}
	return benchPipe.pipe
}

// BenchmarkColdStart measures what every replica pays before it serves:
// the default MNIST pipeline end to end — dataset synthesis, CDFA-augmented
// LNN training, and the R·U-target schedule solve. Run it with -benchmem;
// allocs/op tracks the training step's per-sample scaffolding.
func BenchmarkColdStart(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := metaai.Run(metaai.DefaultConfig("mnist")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateSerial / BenchmarkEvaluateParallel measure one full
// over-the-air evaluation of the test set through the bound session versus
// GOMAXPROCS per-worker sessions of the same deployment. On a multi-core
// host the parallel variant should scale near-linearly; on one core the
// pair still documents the sharding overhead.
func BenchmarkEvaluateSerial(b *testing.B) {
	pipe := evalPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if acc := pipe.AirAccuracy(); acc == 0 {
			b.Fatal("degenerate accuracy")
		}
	}
}

func BenchmarkEvaluateParallel(b *testing.B) {
	pipe := evalPipeline(b)
	workers := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if acc := pipe.AirAccuracyParallel(workers); acc == 0 {
			b.Fatal("degenerate accuracy")
		}
	}
}

// cascadeBenchWeights is a fixed 8-class, 32-symbol weight matrix shared by
// the cascade benches.
func cascadeBenchWeights() *cplx.Mat {
	w := cplx.NewMat(8, 32)
	src := rng.New(0xbe9c)
	for i := range w.Data {
		w.Data[i] = complex(src.Normal(0, 1), src.Normal(0, 1))
	}
	return w
}

func cascadeBenchOptions(k int, src *rng.Source) ota.Options {
	opts := ota.NewOptions(src.Split())
	if k > 1 {
		opts.Stack = ota.DefaultStack(k-1, src.Split())
		opts.HopNoise = ota.DefaultHopNoise
	}
	return opts
}

// benchCascadeSolve measures the joint layer-wise schedule solve for a
// K-layer stacked deployment (K=1 is the classic single-surface solve — the
// baseline the cascade refactor must not regress).
func benchCascadeSolve(b *testing.B, k int) {
	w := cascadeBenchWeights()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := rng.New(1)
		d, err := ota.NewDeployment(w, cascadeBenchOptions(k, src), src)
		if err != nil {
			b.Fatal(err)
		}
		if d.Layers() != k {
			b.Fatalf("deployed %d layers, want %d", d.Layers(), k)
		}
	}
}

func BenchmarkCascadeSolveK1(b *testing.B) { benchCascadeSolve(b, 1) }
func BenchmarkCascadeSolveK2(b *testing.B) { benchCascadeSolve(b, 2) }
func BenchmarkCascadeSolveK3(b *testing.B) { benchCascadeSolve(b, 3) }

// benchCascadeInfer measures one over-the-air inference (all per-class
// accumulations) through a deployed K-layer cascade.
func benchCascadeInfer(b *testing.B, k int) {
	src := rng.New(1)
	d, err := ota.NewDeployment(cascadeBenchWeights(), cascadeBenchOptions(k, src), src)
	if err != nil {
		b.Fatal(err)
	}
	sess := d.SessionFromSeed(7)
	x := make([]complex128, d.InputLen())
	in := rng.New(9)
	for i := range x {
		x[i] = cplx.Expi(in.Phase())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if logits := sess.Logits(x); len(logits) != 8 {
			b.Fatal("degenerate logits")
		}
	}
}

func BenchmarkCascadeInferK1(b *testing.B) { benchCascadeInfer(b, 1) }
func BenchmarkCascadeInferK2(b *testing.B) { benchCascadeInfer(b, 2) }
func BenchmarkCascadeInferK3(b *testing.B) { benchCascadeInfer(b, 3) }

// Ablation benches (DESIGN.md "design choices called out for ablation").
func BenchmarkAblationQuantizeStrategy(b *testing.B)     { benchExperiment(b, "abl-quantize") }
func BenchmarkAblationSolverRefinement(b *testing.B)     { benchExperiment(b, "abl-solver") }
func BenchmarkAblationSubSamples(b *testing.B)           { benchExperiment(b, "abl-subsamples") }
func BenchmarkAblationInjectorDistribution(b *testing.B) { benchExperiment(b, "abl-injector") }
