package ota

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/clocksync"
	"repro/internal/cplx"
	"repro/internal/rng"
)

// deployVariant deploys the memoized model with the given option tweak from
// a fixed seed and returns a session on it. Calling it twice with the same
// seed and tweak yields independent systems carrying bit-identical schedules
// and equal random streams.
func deployVariant(t testing.TB, seed uint64, mod func(*Options)) *Session {
	t.Helper()
	m, _, _ := trained(t)
	src := rng.New(seed)
	opts := NewOptions(src.Split())
	if mod != nil {
		mod(&opts)
	}
	d, err := NewDeployment(m.Weights(), opts, src)
	if err != nil {
		t.Fatal(err)
	}
	return d.NewSession(src)
}

// staticComp switches options to the Eqn 8 compensation scheme in a static
// laboratory environment with no jitter: the MTS-path scale is the
// calibrated phase on every symbol.
func staticComp(o *Options) {
	o.SubSamples = 0
	o.JitterStd = 0
	o.CompensateEnv = true
	o.Channel.Env = channel.Laboratory
	o.Channel.Antenna = channel.Omni
	o.Channel.Interf = channel.NoInterferer
}

func TestAccumulateBatchBitIdenticalToSequential(t *testing.T) {
	// The tentpole contract: a batch of n produces the exact accumulator
	// bits n sequential calls would, for every replay variant — the
	// batched path hoists overhead, never draws.
	_, test, _ := trained(t)
	variants := map[string]func(*Options){
		"default":    nil,
		"staticComp": staticComp,
		"noJitter":   func(o *Options) { o.JitterStd = 0 },
		"syncOffset": func(o *Options) {
			o.SyncSampler = func(src *rng.Source) float64 { return 0.25 + 0.1*src.Float64() }
		},
	}
	for name, mod := range variants {
		for _, bsz := range []int{1, 4, 16} {
			seq := deployVariant(t, 31, mod)
			bat := deployVariant(t, 31, mod)
			xs := make([][]complex128, bsz)
			want := make([]cplx.Vec, bsz)
			for b := 0; b < bsz; b++ {
				xs[b] = test.X[b%len(test.X)]
				want[b] = seq.Accumulate(xs[b])
			}
			got := bat.AccumulateBatch(xs, nil)
			if len(got) != bsz {
				t.Fatalf("%s batch %d: got %d accumulators", name, bsz, len(got))
			}
			for b := range got {
				for r := range got[b] {
					if got[b][r] != want[b][r] {
						t.Fatalf("%s batch %d: request %d class %d: batched %v != sequential %v",
							name, bsz, b, r, got[b][r], want[b][r])
					}
				}
			}
		}
	}
}

func TestAccumulateBatchReusesDst(t *testing.T) {
	sess := deployVariant(t, 32, nil)
	_, test, _ := trained(t)
	xs := [][]complex128{test.X[0], test.X[1]}
	dst := make([]cplx.Vec, 2)
	dst[0] = make(cplx.Vec, sess.Deployment().Classes())
	first := &dst[0][0]
	out := sess.AccumulateBatch(xs, dst)
	if &out[0][0] != first {
		t.Fatal("right-sized dst entry was reallocated instead of reused")
	}
	if len(out) != 2 || len(out[1]) != sess.Deployment().Classes() {
		t.Fatalf("missing entries were not grown: %d accumulators", len(out))
	}
}

func TestAccumulateSteadyStateZeroAlloc(t *testing.T) {
	// After warmup (session scratch built, dst owned by the caller) the
	// single-request and batched hot paths allocate nothing per inference.
	_, test, _ := trained(t)
	for name, mod := range map[string]func(*Options){"default": nil, "staticComp": staticComp} {
		sess := deployVariant(t, 34, mod)
		d := sess.Deployment()
		dst := make(cplx.Vec, d.Classes())
		sess.AccumulateInto(test.X[0], dst)
		if n := testing.AllocsPerRun(50, func() {
			sess.AccumulateInto(test.X[1], dst)
		}); n != 0 {
			t.Errorf("%s: AccumulateInto allocates %.1f/op in steady state, want 0", name, n)
		}

		xs := make([][]complex128, 8)
		accs := make([]cplx.Vec, 8)
		for b := range xs {
			xs[b] = test.X[b]
			accs[b] = make(cplx.Vec, d.Classes())
		}
		sess.AccumulateBatch(xs, accs)
		if n := testing.AllocsPerRun(20, func() {
			sess.AccumulateBatch(xs, accs)
		}); n != 0 {
			t.Errorf("%s: AccumulateBatch allocates %.1f/op in steady state, want 0", name, n)
		}
	}
}

func TestShiftedAccumulateZeroAlloc(t *testing.T) {
	// Under the shipped CDFA sampler nearly every transmission plays a
	// shifted row out of session scratch; after warmup that scratch is
	// reused, so a steady-state inference still allocates nothing.
	_, test, _ := trained(t)
	sess := deployVariant(t, 34, func(o *Options) {
		o.SyncSampler = clocksync.CoarseSampler(clocksync.ScaledDetector(len(test.X[0])), 1e6)
	})
	dst := make(cplx.Vec, sess.Deployment().Classes())
	sess.AccumulateInto(test.X[0], dst)
	if n := testing.AllocsPerRun(50, func() {
		sess.AccumulateInto(test.X[1], dst)
	}); n != 0 {
		t.Errorf("AccumulateInto allocates %.1f/op in steady state under a clock offset, want 0", n)
	}
}

// Single steady-state inference on the default impairment set, perfectly
// synchronized (the shipped CDFA-synced path is
// BenchmarkSmallAccumulateCoarseSync's and servebench's).
func BenchmarkAccumulateInto(b *testing.B) {
	_, test, _ := trained(b)
	sess := deployVariant(b, 35, nil)
	dst := make(cplx.Vec, sess.Deployment().Classes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.AccumulateInto(test.X[i%len(test.X)], dst)
	}
}

// Batched steady-state inference, 8 requests per sweep; per-op time is per
// batch (divide by 8 for per-inference cost).
func BenchmarkAccumulateBatch8(b *testing.B) {
	_, test, _ := trained(b)
	sess := deployVariant(b, 35, nil)
	xs := make([][]complex128, 8)
	accs := make([]cplx.Vec, 8)
	for i := range xs {
		xs[i] = test.X[i]
		accs[i] = make(cplx.Vec, sess.Deployment().Classes())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.AccumulateBatch(xs, accs)
	}
}
