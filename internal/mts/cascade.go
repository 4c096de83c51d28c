package mts

import (
	"fmt"
	"math/cmplx"

	"repro/internal/obs"
)

// CascadeSolver solves the stacked-surface generalization of Eqn 7: K
// surfaces in series whose composed response
//
//	H = Π_k S_k · H_k(cfg_k)
//
// must approximate one end-to-end complex target, where S_k is layer k's
// composition scale (drive amplitude over achievable maximum — the per-layer
// power-control knob) and H_k the layer's array factor at its own path
// phases. The solver runs coordinate descent OVER LAYERS: holding every
// other layer's response fixed, layer ℓ's single-surface subproblem
//
//	H_ℓ ≈ target / (S_ℓ · Π_{k≠ℓ} S_k H_k)
//
// is exactly Eqn 7 again, so each step reuses the layer's Solver — masked
// when the layer carries pinned (stuck) atoms. Extra layers are initialized
// phase-aligned (their maximum-magnitude state), the configuration every
// relay hop would idle in, which makes the first layer-0 solve see the full
// cascade gain.
//
// A 1-layer cascade delegates to SolveTargetMasked directly and is
// bit-identical to the single-surface solver.
type CascadeSolver struct {
	// Surfaces holds the solver-side (ideal, fabrication-free) surface per
	// layer, primary first.
	Surfaces []*Surface
	// Paths holds each layer's solver-frame path phases.
	Paths [][]float64
	// Scales holds each layer's composition scale S_k. The primary's scale
	// carries its drive amplitude; extra layers fold in p_k / maxR_k.
	Scales []complex128
	// Pinned optionally pins stuck atoms per layer (nil entries mean none) —
	// the degraded-mode cascade re-solve.
	Pinned []map[int]uint8
	// Passes is the number of coordinate-descent sweeps over the layers
	// (default 2; the per-layer subsolves do their own atom-level descent).
	Passes int
}

// Layers returns the cascade depth K.
func (cs *CascadeSolver) Layers() int { return len(cs.Surfaces) }

func (cs *CascadeSolver) pinnedAt(k int) map[int]uint8 {
	if k < len(cs.Pinned) {
		return cs.Pinned[k]
	}
	return nil
}

// Solve finds one configuration per layer whose composed response best
// approximates target, returning the configurations (primary first) and the
// achieved composed response in the solver frame.
func (cs *CascadeSolver) Solve(target complex128) ([]Config, complex128) {
	k := cs.Layers()
	if k == 0 {
		panic("mts: CascadeSolver with no layers")
	}
	if len(cs.Paths) != k || len(cs.Scales) != k {
		panic(fmt.Sprintf("mts: CascadeSolver has %d surfaces, %d paths, %d scales", k, len(cs.Paths), len(cs.Scales)))
	}
	if k == 1 {
		// Single surface: the cascade IS Eqn 7. Delegate so the result — and
		// the solver metrics — are bit-identical to the seed path.
		cfg, got := cs.Surfaces[0].SolveTargetMasked(target/cs.Scales[0], cs.Paths[0], cs.pinnedAt(0))
		return []Config{cfg}, cs.Scales[0] * got
	}
	cascadeSolveCalls.Inc()
	t := obs.StartTimer()
	defer t.ObserveInto(cascadeSolveSecs)

	// Every pass re-solves the same layer paths: tabulate each layer once.
	solvers := make([]*Solver, k)
	for l := range solvers {
		solvers[l] = cs.Surfaces[l].NewSolver(cs.Paths[l])
	}
	cfgs := make([]Config, k)
	resp := make([]complex128, k) // scaled per-layer responses S_k·H_k
	// Initialize every non-primary layer phase-aligned at its pinned states.
	for l := 1; l < k; l++ {
		cfg := solvers[l].align(0)
		for m, st := range cs.pinnedAt(l) {
			cfg[m] = st
		}
		cfgs[l] = cfg
		resp[l] = cs.Scales[l] * solvers[l].Response(cfg)
	}
	passes := cs.Passes
	if passes <= 0 {
		passes = 2
	}
	counters := cascadeLayerCounters(k)
	for p := 0; p < passes; p++ {
		for l := 0; l < k; l++ {
			denom := cs.Scales[l]
			for j := 0; j < k; j++ {
				if j != l {
					denom *= resp[j]
				}
			}
			if denom == 0 || cmplx.IsNaN(denom) || cmplx.IsInf(denom) {
				continue // a degenerate layer response; keep the current config
			}
			cfg, got := solvers[l].SolveMasked(target/denom, cs.pinnedAt(l))
			cfgs[l] = cfg
			resp[l] = cs.Scales[l] * got
			counters[l].Inc()
		}
	}
	composed := complex(1, 0)
	for l := 0; l < k; l++ {
		composed *= resp[l]
	}
	return cfgs, composed
}

// CascadeResponse evaluates the composed response Π_k scales_k·H_k(cfgs_k)
// of a layer-configuration tuple against per-layer path phases — the
// realized end-to-end channel when paths carry the TRUE phases (fabrication
// offsets, actual geometry) each physical layer plays under.
func CascadeResponse(surfaces []*Surface, cfgs []Config, paths [][]float64, scales []complex128) complex128 {
	h := complex(1, 0)
	for k, s := range surfaces {
		h *= scales[k] * s.Response(cfgs[k], paths[k])
	}
	return h
}
