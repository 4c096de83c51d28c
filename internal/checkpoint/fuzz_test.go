package checkpoint

import (
	"bytes"
	"testing"

	"repro/internal/nn"
	"repro/internal/ota"
	"repro/internal/rng"
)

// FuzzDecode hammers the checkpoint decoder with arbitrary bytes: any input
// must either decode into a value that re-encodes to the exact same bytes,
// or fail with an error — never panic, never hang, never allocate
// proportionally to a lying length prefix. Seeds cover every kind plus
// adversarial mutations of each.
func FuzzDecode(f *testing.F) {
	m := nn.NewComplexLNN(2, 4)
	m.InitWeights(rng.New(5))
	modelBlob := EncodeModel(m)

	// A real deployment epoch is expensive to build per fuzz iteration, so
	// seed from a prebuilt one.
	e := buildEpoch(97)
	epochBlob := EncodeEpoch(e)
	deployBlob := EncodeDeployment(e.State)
	// A coordinator state with no members and no epoch: the smallest sealed
	// envelope, the base of the header mutations below.
	bareBlob := EncodeFleetState(&FleetState{PubSeq: 1})
	// Version-2 cascade state exercises the layer block decoder.
	ce := buildCascadeEpoch(101)
	cascadeEpochBlob := EncodeEpoch(ce)
	cascadeDeployBlob := EncodeDeployment(ce.State)
	fleetBlob := EncodeFleetState(&FleetState{
		PubSeq: 9, CurrentTid: 7,
		Members: []FleetMember{{Name: "a", Addr: "127.0.0.1:9530"}},
		Current: epochBlob,
	})

	seeds := [][]byte{
		nil,
		[]byte(magic),
		modelBlob,
		deployBlob,
		bareBlob,
		epochBlob,
		epochBlob[:len(epochBlob)/2],
		append([]byte(nil), epochBlob[headerLen:]...),
		cascadeEpochBlob,
		cascadeDeployBlob,
		cascadeDeployBlob[:len(cascadeDeployBlob)*3/4],
		fleetBlob,
		fleetBlob[:len(fleetBlob)/2],
	}
	// Mutated variants: flipped kind, zeroed CRC, elevated version.
	for _, base := range [][]byte{modelBlob, bareBlob} {
		mut := append([]byte(nil), base...)
		mut[6] = byte(KindEpoch)
		reCRC(mut)
		seeds = append(seeds, mut)
		mut2 := append([]byte(nil), base...)
		mut2[len(mut2)-1] ^= 0xFF
		seeds = append(seeds, mut2)
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := Decode(b)
		if err != nil {
			return
		}
		// Round-trip stability: whatever decoded must re-encode to the
		// original bytes — the format has exactly one representation per
		// value.
		var again []byte
		switch x := v.(type) {
		case *nn.ComplexLNN:
			again = EncodeModel(x)
		case *ota.DeploymentState:
			again = EncodeDeployment(x)
		case *Epoch:
			again = EncodeEpoch(x)
		case *FleetState:
			again = EncodeFleetState(x)
		default:
			t.Fatalf("Decode returned unexpected type %T", v)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("re-encode diverges: %d bytes in, %d bytes out", len(b), len(again))
		}
	})
}
