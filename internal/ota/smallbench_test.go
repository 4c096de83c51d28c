package ota

import (
	"testing"

	"repro/internal/clocksync"
	"repro/internal/cplx"
	"repro/internal/rng"
)

// smallSession builds a small (4 classes × 16 symbols) random-weight
// deployment with the given option tweak, plus one encoded input.
func smallSession(b *testing.B, mod func(*Options)) (*Session, []complex128) {
	b.Helper()
	src := rng.New(1)
	w := cplx.NewMat(4, 16)
	wsrc := rng.New(7)
	for i := range w.Data {
		w.Data[i] = cplx.Expi(wsrc.Phase()) * complex(0.5+wsrc.Float64(), 0)
	}
	opts := NewOptions(src.Split())
	if mod != nil {
		mod(&opts)
	}
	d, err := NewDeployment(w, opts, src)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]complex128, d.InputLen())
	for i := range x {
		x[i] = cplx.Expi(src.Phase())
	}
	return d.NewSession(src.Split()), x
}

// Small single inference on the default impairment set, perfectly
// synchronized.
func BenchmarkSmallAccumulateInto(b *testing.B) {
	sess, x := smallSession(b, nil)
	dst := make(cplx.Vec, sess.Deployment().Classes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.AccumulateInto(x, dst)
	}
}

// The same workload under the shipped CDFA clock-sync sampler: a
// fractional offset per transmission, so every replay plays a shifted,
// blended row — what a served request runs.
func BenchmarkSmallAccumulateCoarseSync(b *testing.B) {
	sess, x := smallSession(b, func(o *Options) {
		o.SyncSampler = clocksync.CoarseSampler(clocksync.ScaledDetector(16), 1e6)
	})
	dst := make(cplx.Vec, sess.Deployment().Classes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.AccumulateInto(x, dst)
	}
}
