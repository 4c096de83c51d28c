package ota

import (
	"math"
	"testing"

	"repro/internal/clocksync"
	"repro/internal/cplx"
	"repro/internal/mts"
	"repro/internal/rng"
)

func cloneSchedule(schedule [][]mts.Config) [][]mts.Config {
	out := make([][]mts.Config, len(schedule))
	for r, row := range schedule {
		out[r] = make([]mts.Config, len(row))
		for c, cfg := range row {
			out[r][c] = append(mts.Config(nil), cfg...)
		}
	}
	return out
}

func stateTestWeights(classes, u int, seed uint64) *cplx.Mat {
	src := rng.New(seed)
	w := cplx.NewMat(classes, u)
	for i := range w.Data {
		w.Data[i] = complex(src.Normal(0, 1), src.Normal(0, 1))
	}
	return w
}

// accumBits runs n inferences on a fresh seeded session and returns the raw
// accumulator float bits — the strictest equality a deployment can offer.
func accumBits(t *testing.T, d *Deployment, seed uint64, n int) []uint64 {
	t.Helper()
	sess := d.SessionFromSeed(seed)
	in := rng.New(seed ^ 0x9e3779b97f4a7c15)
	var bits []uint64
	for k := 0; k < n; k++ {
		x := make([]complex128, d.InputLen())
		for i := range x {
			x[i] = complex(in.Normal(0, 1), in.Normal(0, 1))
		}
		for _, v := range sess.Accumulate(x) {
			bits = append(bits, math.Float64bits(real(v)), math.Float64bits(imag(v)))
		}
	}
	return bits
}

func assertBitIdentical(t *testing.T, d, r *Deployment, seed uint64) {
	t.Helper()
	want := accumBits(t, d, seed, 4)
	got := accumBits(t, r, seed, 4)
	if len(want) != len(got) {
		t.Fatalf("accumulator streams differ in length: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("accumulator bits diverge at %d: %016x vs %016x", i, want[i], got[i])
		}
	}
}

// TestStateRoundtripBitIdentity is the contract the checkpoint layer builds
// on: FromState(d.State()) must drive sessions to byte-identical
// accumulators, across the default deployment, a sync-sampled one, and the
// Eqn 8 compensation path.
func TestStateRoundtripBitIdentity(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		src := rng.New(41)
		d, err := NewDeployment(stateTestWeights(4, 16, 7), NewOptions(src.Split()), src)
		if err != nil {
			t.Fatal(err)
		}
		r, err := FromState(d.State())
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, d, r, 99)
	})

	t.Run("syncSampler", func(t *testing.T) {
		src := rng.New(43)
		opts := NewOptions(src.Split())
		det := clocksync.CoarseDetector{Shape: 2, Scale: 0.4}
		opts.SyncSampler = clocksync.CoarseSampler(det, opts.SymbolRateHz)
		d, err := NewDeployment(stateTestWeights(4, 16, 9), opts, src)
		if err != nil {
			t.Fatal(err)
		}
		r, err := FromState(d.State())
		if err != nil {
			t.Fatal(err)
		}
		// The snapshot cannot carry the sampler function; recovery rebuilds
		// it from the detector parameters and re-attaches it.
		r = r.WithSyncSampler(clocksync.CoarseSampler(det, opts.SymbolRateHz))
		assertBitIdentical(t, d, r, 101)
	})

	t.Run("compensateEnv", func(t *testing.T) {
		src := rng.New(47)
		opts := NewOptions(src.Split())
		opts.SubSamples = 0
		opts.CompensateEnv = true
		d, err := NewDeployment(stateTestWeights(4, 16, 11), opts, src)
		if err != nil {
			t.Fatal(err)
		}
		if !d.compensate {
			t.Fatal("deployment did not enable compensation")
		}
		r, err := FromState(d.State())
		if err != nil {
			t.Fatal(err)
		}
		if !r.compensate || r.envBase != d.envBase || r.calMTSPhase != d.calMTSPhase || r.envScale != d.envScale {
			t.Fatal("compensation calibration not restored")
		}
		assertBitIdentical(t, d, r, 103)
	})
}

// TestStateRestoreMatchesInternals pins every derived field of a restore,
// across the option sets that change how a deployment is derived — if any
// of these drift, the bit-identity test would catch it eventually, but this
// points at the exact field.
func TestStateRestoreMatchesInternals(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"default", func(*Options) {}},
		{"subSamples0", func(o *Options) { o.SubSamples = 0 }},
		{"compensateEnv", func(o *Options) { o.SubSamples = 0; o.CompensateEnv = true }},
		{"exactJitter", func(o *Options) { o.ExactJitter = true }},
		{"noBeamScan", func(o *Options) { o.BeamScanStepDeg = 0 }},
		{"noJitter", func(o *Options) { o.JitterStd = 0 }},
		{"cascade3", func(o *Options) {
			*o = cascadeTestOptions(t, 3)
			o.LayerPower = []float64{1, 1.4, 0.8}
			o.HopNoise = 0.05
		}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := rng.New(53 + uint64(i))
			opts := NewOptions(src.Split())
			tc.mutate(&opts)
			d, err := NewDeployment(stateTestWeights(3, 12, 13), opts, src)
			if err != nil {
				t.Fatal(err)
			}
			r, err := FromState(d.State())
			if err != nil {
				t.Fatal(err)
			}
			cmp := func(name string, a, b float64) {
				t.Helper()
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("%s: %v restored as %v", name, a, b)
				}
			}
			cmpC := func(name string, a, b complex128) {
				t.Helper()
				cmp(name+" (re)", real(a), real(b))
				cmp(name+" (im)", imag(a), imag(b))
			}
			cmpS := func(name string, a, b []float64) {
				t.Helper()
				if len(a) != len(b) {
					t.Fatalf("%s: %d values restored as %d", name, len(a), len(b))
				}
				for k := range a {
					cmp(name, a[k], b[k])
				}
			}
			cmp("Gamma", d.Gamma, r.Gamma)
			cmp("EstRxAngleDeg", d.EstRxAngleDeg, r.EstRxAngleDeg)
			cmp("sigRMS", d.sigRMS, r.sigRMS)
			cmp("gainFactor", d.gainFactor, r.gainFactor)
			cmp("noise2", d.noise2, r.noise2)
			cmp("noiseSD", d.noiseSD, r.noiseSD)
			cmp("jitterAtt", d.jitterAtt, r.jitterAtt)
			cmp("jitterVar", d.jitterVar, r.jitterVar)
			cmp("jitterSD", d.jitterSD, r.jitterSD)
			cmp("envScale", d.envScale, r.envScale)
			cmpC("envBase", d.envBase, r.envBase)
			cmpC("calMTSPhase", d.calMTSPhase, r.calMTSPhase)
			if d.compensate != r.compensate {
				t.Errorf("compensate: %v restored as %v", d.compensate, r.compensate)
			}
			cmp("noiseBoost", d.noiseBoost, r.noiseBoost)
			cmpS("power", d.power, r.power)
			if len(d.layerScale) != len(r.layerScale) {
				t.Fatalf("layerScale: %d layers restored as %d", len(d.layerScale), len(r.layerScale))
			}
			for k := range d.layerScale {
				cmpC("layerScale", d.layerScale[k], r.layerScale[k])
			}
			cmpS("estPP", d.estPP, r.estPP)
			cmpS("truePP", d.truePP, r.truePP)
			if len(d.layerEstPP) != len(r.layerEstPP) || len(d.layerTruePP) != len(r.layerTruePP) {
				t.Fatal("layer path-phase counts differ")
			}
			for k := range d.layerEstPP {
				cmpS("layerEstPP", d.layerEstPP[k], r.layerEstPP[k])
				cmpS("layerTruePP", d.layerTruePP[k], r.layerTruePP[k])
			}
			assertBitIdentical(t, d, r, 107+uint64(i))
		})
	}
}

// TestStateValidateRejects enumerates the corruption classes the decode path
// must catch before a state reaches the serving path.
func TestStateValidateRejects(t *testing.T) {
	src := rng.New(59)
	d, err := NewDeployment(stateTestWeights(3, 8, 17), NewOptions(src.Split()), src)
	if err != nil {
		t.Fatal(err)
	}
	base := func() *DeploymentState {
		st := d.State()
		cp := *st
		return &cp
	}
	cases := map[string]func(*DeploymentState){
		"zeroGrid":    func(st *DeploymentState) { st.Surface.Rows = 0 },
		"badBits":     func(st *DeploymentState) { st.Surface.Bits = 9 },
		"fabMismatch": func(st *DeploymentState) { st.Surface.Fab = st.Surface.Fab[:1] },
		"nilRealized": func(st *DeploymentState) { st.Realized = nil },
		"shortData":   func(st *DeploymentState) { m := *st.Realized; m.Data = m.Data[:1]; st.Realized = &m },
		"rowMismatch": func(st *DeploymentState) { st.Schedule = st.Schedule[:1] },
		"colMismatch": func(st *DeploymentState) {
			sc := append([][]mts.Config(nil), st.Schedule...)
			sc[0] = sc[0][:1]
			st.Schedule = sc
		},
		"shortConfig":  func(st *DeploymentState) { sc := cloneSchedule(st.Schedule); sc[1][2] = sc[1][2][:3]; st.Schedule = sc },
		"stateTooHigh": func(st *DeploymentState) { sc := cloneSchedule(st.Schedule); sc[0][0][0] = 255; st.Schedule = sc },
	}
	for name, corrupt := range cases {
		st := base()
		corrupt(st)
		if err := st.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a corrupt state", name)
		}
		if _, err := FromState(st); err == nil {
			t.Errorf("%s: FromState accepted a corrupt state", name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("pristine state rejected: %v", err)
	}
}
