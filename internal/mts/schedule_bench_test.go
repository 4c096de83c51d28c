package mts_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mts"
)

// BenchmarkSolveSchedule measures the deploy half of a replica cold start:
// the default MNIST pipeline's R·U = 640 solver targets through one Solver
// table over the estimated path phases.
func BenchmarkSolveSchedule(b *testing.B) {
	p, err := core.New(core.DefaultConfig("mnist"))
	if err != nil {
		b.Fatal(err)
	}
	d := p.Deployment()
	s := d.Options().Surface
	ideal, err := mts.NewSurface(s.Rows, s.Cols, s.Bits, s.FreqGHz, nil)
	if err != nil {
		b.Fatal(err)
	}
	w := p.Model.Weights()
	targets := make([]complex128, len(w.Data))
	for i, v := range w.Data {
		targets[i] = v * complex(d.Gamma, 0)
	}
	pp := d.EstPathPhases()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv := ideal.NewSolver(pp)
		for _, t := range targets {
			sv.Solve(t)
		}
	}
}
