package mts

import (
	"fmt"
	"math/cmplx"

	"repro/internal/cplx"
	"repro/internal/obs"
)

// Solver is the Eqn 7 solver bound to one (surface, path phases) pair. It
// tabulates every atom's 2^Bits candidate phasors e^{j(φ^p_m+φ_i)} and
// their wrapped phases once, so the R·U solves of a deployment — and every
// response evaluated against the same paths — look them up instead of
// recomputing them per target. Results are bit-identical to computing each
// phasor on the spot, as Surface.Response does. A Solver is read-only once
// built and safe for concurrent use.
type Solver struct {
	states  int          // phase states per atom
	phasor  []complex128 // [m·states+i] = e^{j(pathPhases[m]+state_i)}
	wrapped []float64    // [m·states+i] = WrapPhase(pathPhases[m]+state_i)
}

// NewSolver tabulates the surface's candidate phasors at the given path
// phases (one per atom).
func (s *Surface) NewSolver(pathPhases []float64) *Solver {
	if len(pathPhases) != s.Atoms() {
		panic(fmt.Sprintf("mts: NewSolver wants %d path phases, got %d", s.Atoms(), len(pathPhases)))
	}
	n := len(s.states)
	sv := &Solver{
		states:  n,
		phasor:  make([]complex128, len(pathPhases)*n),
		wrapped: make([]float64, len(pathPhases)*n),
	}
	for m, pp := range pathPhases {
		for i, st := range s.states {
			sv.phasor[m*n+i] = cplx.Expi(pp + st)
			sv.wrapped[m*n+i] = cplx.WrapPhase(pp + st)
		}
	}
	return sv
}

// row returns atom m's candidate phasors, indexed by state.
func (sv *Solver) row(m int) []complex128 { return sv.phasor[m*sv.states : (m+1)*sv.states] }

// atoms returns the atom count the table was built for.
func (sv *Solver) atoms() int { return len(sv.phasor) / sv.states }

// Response evaluates the ideal array factor of cfg at the bound path
// phases: Surface.Response(cfg, pathPhases) from the table.
func (sv *Solver) Response(cfg Config) complex128 {
	if len(cfg) != sv.atoms() {
		panic(fmt.Sprintf("mts: Response wants %d atoms, got cfg=%d", sv.atoms(), len(cfg)))
	}
	var sum complex128
	for m, st := range cfg {
		sum += sv.row(m)[st]
	}
	return sum
}

// Solve is SolveTarget at the bound path phases.
func (sv *Solver) Solve(target complex128) (Config, complex128) {
	solveCalls.Inc()
	t := obs.StartTimer()
	defer t.ObserveInto(solveSeconds)
	return sv.descend(target, nil)
}

// SolveMasked is SolveTargetMasked at the bound path phases. An empty pin
// set is exactly Solve, metrics included.
func (sv *Solver) SolveMasked(target complex128, pinned map[int]uint8) (Config, complex128) {
	if len(pinned) == 0 {
		return sv.Solve(target)
	}
	solveMaskedCalls.Inc()
	t := obs.StartTimer()
	defer t.ObserveInto(solveMaskedSecs)
	return sv.descend(target, pinned)
}

// descend is the single-target Eqn 7 solve behind Solve and SolveMasked:
// greedy phase alignment toward the target, the pinned atoms forced to
// their latched states, then up to three coordinate-descent passes in
// which each free atom tries every state and keeps the one that brings the
// incremental sum closest to the target.
func (sv *Solver) descend(target complex128, pinned map[int]uint8) (Config, complex128) {
	var nPasses, nFlips int64
	defer func() { solvePasses.Add(nPasses); solveFlips.Add(nFlips) }()
	cfg := sv.align(cmplx.Phase(target))
	var stuck []bool
	if len(pinned) > 0 {
		stuck = make([]bool, len(cfg))
		for m, st := range pinned {
			cfg[m] = st
			stuck[m] = true
		}
	}
	var sum complex128
	for m, st := range cfg {
		sum += sv.row(m)[st]
	}
	const passes = 3
	for p := 0; p < passes; p++ {
		nPasses++
		improved := false
		for m, cur := range cfg {
			if stuck != nil && stuck[m] {
				continue
			}
			row := sv.row(m)
			base := sum - row[cur]
			bestErr := cmplx.Abs(base + row[cur] - target)
			best := cur
			for i, cand := range row {
				if uint8(i) == cur {
					continue
				}
				if e := cmplx.Abs(base + cand - target); e < bestErr {
					bestErr, best = e, uint8(i)
				}
			}
			if best != cur {
				cfg[m] = best
				sum = base + row[best]
				improved = true
				nFlips++
			}
		}
		if !improved {
			break
		}
	}
	return cfg, sum
}

// align is alignConfig from the table: per atom, the state whose total
// phase lies closest to targetPhase.
func (sv *Solver) align(targetPhase float64) Config {
	wt := cplx.WrapPhase(targetPhase)
	cfg := make(Config, sv.atoms())
	for m := range cfg {
		cfg[m] = nearestState(sv.wrapped[m*sv.states:(m+1)*sv.states], wt)
	}
	return cfg
}
