package mts

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/cplx"
	"repro/internal/rng"
)

// alignConfigRef and solveTargetMaskedRef are the per-target solver the
// Solver table replaced, kept verbatim minus its metrics: every phasor and
// wrapped phase recomputed for each target. With no pins it is the plain
// SolveTarget loop. It is the oracle the table must match bit for bit.
func alignConfigRef(s *Surface, targetPhase float64, pathPhases []float64) Config {
	cfg := make(Config, len(pathPhases))
	for m, pp := range pathPhases {
		best, arg := math.Inf(1), 0
		for i, st := range s.states {
			if d := cplx.PhaseDistance(pp+st, targetPhase); d < best {
				best, arg = d, i
			}
		}
		cfg[m] = uint8(arg)
	}
	return cfg
}

func solveTargetMaskedRef(s *Surface, target complex128, pathPhases []float64, pinned map[int]uint8) (Config, complex128) {
	cfg := alignConfigRef(s, cmplx.Phase(target), pathPhases)
	for m, st := range pinned {
		cfg[m] = st
	}
	ph := make([]complex128, len(cfg))
	var sum complex128
	for m := range cfg {
		ph[m] = cplx.Expi(pathPhases[m] + s.states[cfg[m]])
		sum += ph[m]
	}
	const passes = 3
	for p := 0; p < passes; p++ {
		improved := false
		for m := range cfg {
			if _, stuck := pinned[m]; stuck {
				continue
			}
			base := sum - ph[m]
			bestErr := cmplx.Abs(base + ph[m] - target)
			bestState := cfg[m]
			bestPh := ph[m]
			for i := range s.states {
				if uint8(i) == cfg[m] {
					continue
				}
				cand := cplx.Expi(pathPhases[m] + s.states[i])
				if e := cmplx.Abs(base + cand - target); e < bestErr {
					bestErr, bestState, bestPh = e, uint8(i), cand
				}
			}
			if bestState != cfg[m] {
				cfg[m] = bestState
				sum = base + bestPh
				ph[m] = bestPh
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return cfg, sum
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

func sameConfig(a, b Config) bool {
	if len(a) != len(b) {
		return false
	}
	for m := range a {
		if a[m] != b[m] {
			return false
		}
	}
	return true
}

// TestSolverMatchesPerTargetLoop drives one table per (surface, geometry)
// with random targets and random pin sets — empty, sparse, dense and
// near-total — and demands the per-target loop's exact configuration and
// response bits.
func TestSolverMatchesPerTargetLoop(t *testing.T) {
	src := rng.New(21)
	surfaces := []*Surface{Prototype(src.Split())}
	for _, bits := range []int{1, 3} {
		s, err := NewSurface(8, 12, bits, 5.25, src.Split())
		if err != nil {
			t.Fatal(err)
		}
		surfaces = append(surfaces, s)
	}
	for _, s := range surfaces {
		bits := s.Bits
		g := DefaultGeometry()
		g.RxAngleDeg = 80*src.Float64() - 40
		pp := s.PathPhases(g)
		sv := s.NewSolver(pp)
		maxR := s.MaxResponse(pp)
		for trial := 0; trial < 60; trial++ {
			target := cplx.Expi(src.Phase()) * complex(1.1*maxR*src.Float64(), 0)
			if trial == 0 {
				target = 0
			}
			pinned := map[int]uint8{}
			for want := []int{0, 1, 10, 60, s.Atoms() - 3, s.Atoms()}[trial%6]; len(pinned) < want; {
				pinned[src.IntN(s.Atoms())] = uint8(src.IntN(len(s.States())))
			}
			wantCfg, wantH := solveTargetMaskedRef(s, target, pp, pinned)
			gotCfg, gotH := sv.SolveMasked(target, pinned)
			if !sameConfig(gotCfg, wantCfg) || !sameBits(gotH, wantH) {
				t.Fatalf("bits=%d trial %d (%d pinned): table solve (%v) differs from the per-target loop (%v)",
					bits, trial, len(pinned), gotH, wantH)
			}
			if len(pinned) == 0 {
				if cfg, h := s.SolveTarget(target, pp); !sameConfig(cfg, wantCfg) || !sameBits(h, wantH) {
					t.Fatalf("bits=%d trial %d: SolveTarget differs from the per-target loop", bits, trial)
				}
			}
			if h, want := sv.Response(gotCfg), s.Response(gotCfg, pp); !sameBits(h, want) {
				t.Fatalf("bits=%d trial %d: table response %v != Surface.Response %v", bits, trial, h, want)
			}
			if got, want := sv.align(cmplx.Phase(target)), alignConfigRef(s, cmplx.Phase(target), pp); !sameConfig(got, want) {
				t.Fatalf("bits=%d trial %d: table alignment differs", bits, trial)
			}
		}
		if got, want := s.alignConfig(0.7, pp), alignConfigRef(s, 0.7, pp); !sameConfig(got, want) {
			t.Fatalf("bits=%d: alignConfig differs from the PhaseDistance loop", bits)
		}
	}
}

// TestSolveAllMatchesPerTargetLoop: SolveAll fans the solves out across
// GOMAXPROCS goroutines and returns, in target order, the configurations
// the per-target loop finds.
func TestSolveAllMatchesPerTargetLoop(t *testing.T) {
	src := rng.New(22)
	s := Prototype(src.Split())
	pp := s.PathPhases(DefaultGeometry())
	maxR := s.MaxResponse(pp)
	targets := make([]complex128, 97)
	for i := range targets {
		targets[i] = cplx.Expi(src.Phase()) * complex(1.1*maxR*src.Float64(), 0)
	}
	for i, cfg := range s.NewSolver(pp).SolveAll(targets) {
		if want, _ := solveTargetMaskedRef(s, targets[i], pp, nil); !sameConfig(cfg, want) {
			t.Fatalf("target %d: SolveAll differs from the per-target loop", i)
		}
	}
}
