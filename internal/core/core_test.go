package core

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/channel"
	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/modem"
	"repro/internal/mts"
	"repro/internal/nn"
	"repro/internal/noisetrain"
	"repro/internal/ota"
)

// TestColdStartDeploymentHash pins the bits a replica's cold start serves:
// the sealed deployment of each default pipeline hashes as it did when
// training stepped sample by sample and the schedule solved target by
// target, whatever GOMAXPROCS fans the beam scan and the solves across. Go
// may fuse multiply-adds off amd64, so the pins are amd64's.
func TestColdStartDeploymentHash(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned hashes are amd64's; other architectures may fuse multiply-adds")
	}
	for _, tc := range []struct{ ds, want string }{
		{"mnist", "71ab8970746db06e2a2e567cd4a81e420f7bd71053323cf81c5f18131bbbadd0"},
		{"fashion", "6119ec1fe2404b0b3faa0781b27b86a598675952f89a3f8b1ed8d72f1dce8c36"},
	} {
		p, err := New(DefaultConfig(tc.ds))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(checkpoint.EncodeDeployment(p.Deployment().State()))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s deployment hashes to %s, want %s", tc.ds, got, tc.want)
		}
	}
}

func TestDefaultConfigRunsEndToEnd(t *testing.T) {
	cfg := DefaultConfig("mnist")
	cfg.Train.Epochs = 30
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := p.SimAccuracy()
	air := p.AirAccuracy()
	if sim < 0.8 {
		t.Fatalf("simulation accuracy %.3f below band", sim)
	}
	if air < sim-0.10 {
		t.Fatalf("prototype accuracy %.3f too far below simulation %.3f", air, sim)
	}
}

func TestUnknownDatasetErrors(t *testing.T) {
	if _, err := New(DefaultConfig("nope")); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestEmptySetsError(t *testing.T) {
	cfg := DefaultConfig("mnist")
	empty := &nn.EncodedSet{Classes: 2}
	if _, err := NewFromSets(empty, empty, cfg); err == nil {
		t.Fatal("expected error for empty training set")
	}
}

func TestSyncModeStrings(t *testing.T) {
	want := map[SyncMode]string{SyncPerfect: "perfect", SyncNone: "none", SyncCoarse: "CD", SyncCDFA: "CDFA"}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if SyncMode(42).String() == "" {
		t.Error("unknown mode must still print")
	}
}

func TestInferReturnsDistribution(t *testing.T) {
	cfg := DefaultConfig("afhq")
	cfg.Train.Epochs = 15
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.MustLoad("afhq", dataset.Quick, cfg.Seed)
	class, probs := p.Infer(ds.Test[0].X)
	if class < 0 || class >= 3 || len(probs) != 3 {
		t.Fatalf("Infer = %d, %v", class, probs)
	}
	var sum float64
	for _, v := range probs {
		if v < 0 {
			t.Fatalf("negative probability %v", v)
		}
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestSyncModesOrdering(t *testing.T) {
	// Fig 16 end to end through the core package: none < CD < CDFA.
	accs := map[SyncMode]float64{}
	for _, mode := range []SyncMode{SyncNone, SyncCoarse, SyncCDFA} {
		cfg := DefaultConfig("mnist")
		cfg.Train.Epochs = 30
		cfg.Sync = mode
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		accs[mode] = p.AirAccuracy()
	}
	if !(accs[SyncNone] < accs[SyncCoarse] && accs[SyncCoarse] < accs[SyncCDFA]) {
		t.Fatalf("sync ordering broken: %v", accs)
	}
}

func TestNoiseAwareConfigWorks(t *testing.T) {
	cfg := DefaultConfig("afhq")
	cfg.Train.Epochs = 15
	nc := noisetrain.DefaultConfig()
	cfg.NoiseAware = &nc
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.SimAccuracy() < 0.6 {
		t.Fatalf("noise-aware pipeline accuracy %.3f", p.SimAccuracy())
	}
}

func TestAirOverrides(t *testing.T) {
	cfg := DefaultConfig("afhq")
	cfg.Train.Epochs = 15
	cfg.Air.Channel = channel.Default()
	cfg.Air.Channel.Env = channel.Corridor
	cfg.Air.SubSamples = -1 // explicitly disable cancellation
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Corridor without cancellation still works reasonably (low multipath).
	if p.AirAccuracy() < 0.5 {
		t.Fatalf("corridor no-cancellation accuracy %.3f", p.AirAccuracy())
	}
}

func TestModulationSchemesAllRun(t *testing.T) {
	// Fig 23's sweep must be expressible through the config.
	for _, s := range []modem.Scheme{modem.BPSK, modem.QAM16} {
		cfg := DefaultConfig("afhq")
		cfg.Scheme = s
		cfg.Train.Epochs = 10
		p, err := New(cfg)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if p.Train.U != nnInputLen(s) {
			t.Fatalf("%v: U = %d", s, p.Train.U)
		}
	}
}

func nnInputLen(s modem.Scheme) int {
	switch s {
	case modem.BPSK:
		return 512
	case modem.QAM16:
		return 128
	}
	return 64
}

func TestLayersConfigDeploysCascade(t *testing.T) {
	cfg := DefaultConfig("mnist")
	cfg.Train.Epochs = 2
	cfg.Layers = 2
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := p.Deployment()
	if d.Layers() != 2 {
		t.Fatalf("Layers() = %d, want 2", d.Layers())
	}
	if got := d.Options().HopNoise; got != ota.DefaultHopNoise {
		t.Fatalf("default stack HopNoise = %v, want %v", got, ota.DefaultHopNoise)
	}
	air := p.AirAccuracy()
	if air < 0 || air > 1 {
		t.Fatalf("cascade air accuracy %v out of range", air)
	}
}

func TestLayersConfigRespectsExplicitStack(t *testing.T) {
	cfg := DefaultConfig("mnist")
	cfg.Train.Epochs = 2
	cfg.Layers = 3 // must lose to the explicit 2-layer stack below
	srf, err := mts.NewSurface(8, 8, 2, 5.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Air.Stack = []ota.CascadeLayer{{
		Surface:  srf,
		Geometry: mts.Geometry{TxDistM: 1.5, TxAngleDeg: 20, RxDistM: 2, RxAngleDeg: 35},
	}}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Deployment().Layers(); got != 2 {
		t.Fatalf("explicit stack overridden: Layers() = %d, want 2", got)
	}
}
