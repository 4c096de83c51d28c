package mts

import "math/cmplx"

// SolveTargetMasked solves Eqn 7 with a subset of atoms pinned to fixed
// states — the degraded-mode re-solve for a surface with known stuck atoms
// (a diagnosed PIN-diode or shift-register failure leaves an atom latched in
// one phase state). Pinned atoms contribute their forced state's phasor;
// the free atoms are greedily aligned and then refined by coordinate
// descent around that fixed contribution, exactly as SolveTarget refines a
// fully healthy surface. The returned configuration carries the pinned
// states, so evaluating it through Response models what the faulty hardware
// actually plays.
//
// With an empty pin set the solve degrades to SolveTarget bit for bit.
func (s *Surface) SolveTargetMasked(target complex128, pathPhases []float64, pinned map[int]uint8) (Config, complex128) {
	return s.NewSolver(pathPhases).SolveMasked(target, pinned)
}

// MaskedSolveError returns the mean relative residual of re-solving the
// given targets with the pinned atoms, normalized by the largest target
// magnitude — a quick capacity check of how much approximation quality a
// given stuck-atom population costs.
func (s *Surface) MaskedSolveError(targets []complex128, pathPhases []float64, pinned map[int]uint8) float64 {
	if len(targets) == 0 {
		return 0
	}
	var maxT float64
	for _, t := range targets {
		if a := cmplx.Abs(t); a > maxT {
			maxT = a
		}
	}
	if maxT == 0 {
		return 0
	}
	sv := s.NewSolver(pathPhases)
	var sum float64
	for _, t := range targets {
		_, got := sv.SolveMasked(t, pinned)
		sum += cmplx.Abs(got - t)
	}
	return sum / (float64(len(targets)) * maxT)
}
