package checkpoint

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cplx"
	"repro/internal/mts"
	"repro/internal/nn"
	"repro/internal/ota"
	"repro/internal/rng"
)

func testState(t *testing.T, seed uint64) (*ota.Deployment, *ota.DeploymentState) {
	t.Helper()
	src := rng.New(seed)
	w := cplx.NewMat(3, 8)
	wsrc := rng.New(seed ^ 0xabcd)
	for i := range w.Data {
		w.Data[i] = complex(wsrc.Normal(0, 1), wsrc.Normal(0, 1))
	}
	d, err := ota.NewDeployment(w, ota.NewOptions(src.Split()), src)
	if err != nil {
		t.Fatal(err)
	}
	return d, d.State()
}

// buildEpoch constructs a real serving epoch without a testing.T — the fuzz
// harness needs one during seed setup.
func buildEpoch(seed uint64) *Epoch {
	src := rng.New(seed)
	w := cplx.NewMat(3, 8)
	wsrc := rng.New(seed ^ 0xabcd)
	for i := range w.Data {
		w.Data[i] = complex(wsrc.Normal(0, 1), wsrc.Normal(0, 1))
	}
	d, err := ota.NewDeployment(w, ota.NewOptions(src.Split()), src)
	if err != nil {
		panic(err)
	}
	return &Epoch{
		Reason: "deploy",
		Meta: Meta{
			Dataset:   "digits",
			Seed:      seed,
			DetShape:  2,
			DetScale:  0.4,
			FaultRate: 0.02,
		},
		State: d.State(),
		Th:    Thresholds{Threshold: 0.1875, Window: 32},
	}
}

func testEpoch(t *testing.T, seed uint64) *Epoch {
	t.Helper()
	_, st := testState(t, seed)
	return &Epoch{
		Reason: "deploy",
		Meta: Meta{
			Dataset:   "digits",
			Seed:      seed,
			DetShape:  2,
			DetScale:  0.4,
			FaultRate: 0.02,
		},
		State: st,
		Th:    Thresholds{Threshold: 0.1875, Window: 32},
	}
}

func TestModelRoundtrip(t *testing.T) {
	m := nn.NewComplexLNN(5, 7)
	m.InitWeights(rng.New(3))
	got, err := DecodeModel(EncodeModel(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Classes != m.Classes || got.U != m.U {
		t.Fatalf("dimensions %dx%d, want %dx%d", got.Classes, got.U, m.Classes, m.U)
	}
	for i := range m.W.Val {
		if got.W.Val[i] != m.W.Val[i] {
			t.Fatalf("weight %d: %v != %v", i, got.W.Val[i], m.W.Val[i])
		}
	}
}

func TestDeploymentRoundtripBitIdentity(t *testing.T) {
	d, st := testState(t, 11)
	got, err := DecodeDeployment(EncodeDeployment(st))
	if err != nil {
		t.Fatal(err)
	}
	r, err := ota.FromState(got)
	if err != nil {
		t.Fatal(err)
	}
	// The decoded deployment must drive sessions to byte-identical
	// accumulators — the tentpole guarantee, through the full encode →
	// decode → rebuild path.
	sessA := d.SessionFromSeed(77)
	sessB := r.SessionFromSeed(77)
	in := rng.New(78)
	for k := 0; k < 3; k++ {
		x := make([]complex128, d.InputLen())
		for i := range x {
			x[i] = complex(in.Normal(0, 1), in.Normal(0, 1))
		}
		a, b := sessA.Accumulate(x), sessB.Accumulate(x)
		for i := range a {
			if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
				math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
				t.Fatalf("inference %d accumulator %d: %v != %v", k, i, a[i], b[i])
			}
		}
	}
}

func TestEpochRoundtrip(t *testing.T) {
	e := testEpoch(t, 13)
	e.Seq = 42
	got, err := DecodeEpoch(EncodeEpoch(e))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != e.Seq || got.Reason != e.Reason || got.Meta != e.Meta || got.Th != e.Th {
		t.Fatalf("metadata mismatch: %+v vs %+v", got, e)
	}
	if err := got.State.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := ota.FromState(got.State); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeDispatch(t *testing.T) {
	m := nn.NewComplexLNN(2, 3)
	blobs := map[Kind][]byte{
		KindModel:      EncodeModel(m),
		KindDeployment: EncodeDeployment(testEpoch(t, 17).State),
		KindEpoch:      EncodeEpoch(testEpoch(t, 19)),
		KindFleet:      EncodeFleetState(&FleetState{PubSeq: 3}),
	}
	for kind, b := range blobs {
		v, err := Decode(b)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		switch kind {
		case KindModel:
			if _, ok := v.(*nn.ComplexLNN); !ok {
				t.Fatalf("model decoded as %T", v)
			}
		case KindDeployment:
			if _, ok := v.(*ota.DeploymentState); !ok {
				t.Fatalf("deployment decoded as %T", v)
			}
		case KindEpoch:
			if _, ok := v.(*Epoch); !ok {
				t.Fatalf("epoch decoded as %T", v)
			}
		case KindFleet:
			if _, ok := v.(*FleetState); !ok {
				t.Fatalf("fleet state decoded as %T", v)
			}
		}
	}
}

// TestDecodeRejects drives the typed-error contract: truncations at every
// prefix length fail with a typed error, every single-bit flip fails
// (almost always ErrCorrupt — any flip breaks the CRC; a flip inside the
// CRC itself also mismatches), wrong magic/version/kind are identified, and
// none of it panics.
func TestDecodeRejects(t *testing.T) {
	sealed := EncodeModel(nn.NewComplexLNN(2, 3))

	t.Run("truncations", func(t *testing.T) {
		for n := 0; n < len(sealed); n++ {
			if _, err := DecodeModel(sealed[:n]); err == nil {
				t.Fatalf("accepted a %d-byte prefix of a %d-byte checkpoint", n, len(sealed))
			}
		}
	})

	t.Run("bitflips", func(t *testing.T) {
		for i := 0; i < len(sealed)*8; i++ {
			mut := append([]byte(nil), sealed...)
			mut[i/8] ^= 1 << (i % 8)
			if _, err := DecodeModel(mut); err == nil {
				t.Fatalf("accepted a checkpoint with bit %d flipped", i)
			}
		}
	})

	t.Run("badMagic", func(t *testing.T) {
		mut := append([]byte(nil), sealed...)
		copy(mut, "NOPE")
		if _, err := DecodeModel(mut); !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v", err)
		}
	})

	t.Run("wrongKind", func(t *testing.T) {
		if _, err := DecodeFleetState(sealed); !errors.Is(err, ErrKind) {
			t.Fatalf("got %v, want ErrKind", err)
		}
	})

	t.Run("futureVersion", func(t *testing.T) {
		mut := append([]byte(nil), sealed...)
		mut[4] = 0xFF // version low byte
		reCRC(mut)    // valid CRC, so the version check itself must fire
		if _, err := DecodeModel(mut); !errors.Is(err, ErrVersion) {
			t.Fatalf("got %v, want ErrVersion", err)
		}
	})

	t.Run("trailingGarbage", func(t *testing.T) {
		mut := append(append([]byte(nil), sealed...), 0xAA)
		if _, err := DecodeModel(mut); err == nil {
			t.Fatal("accepted trailing garbage")
		}
	})

	t.Run("lyingPayloadLength", func(t *testing.T) {
		mut := append([]byte(nil), sealed...)
		mut[8]++ // claim one more payload byte than present
		reCRC(mut)
		if _, err := DecodeModel(mut); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
}

// TestDecodeRejectsSemanticCorruption flips payload content and re-seals the
// CRC, so the semantic validators — not the checksum — must catch it.
func TestDecodeRejectsSemanticCorruption(t *testing.T) {
	e := testEpoch(t, 23)

	t.Run("scheduleStateOutOfRange", func(t *testing.T) {
		cp := *e.State
		cp.Schedule = cloneSchedule(e.State.Schedule)
		cp.Schedule[0][0][0] = 200 // beyond 2-bit depth
		ep := *e
		ep.State = &cp
		if _, err := DecodeEpoch(EncodeEpoch(&ep)); !errors.Is(err, ErrInvalid) {
			t.Fatalf("got %v, want ErrInvalid", err)
		}
	})

	t.Run("hugeModelDims", func(t *testing.T) {
		var w writer
		w.u32(1 << 30)
		w.u32(1 << 30)
		w.u32(0)
		if _, err := DecodeModel(seal(KindModel, w.buf)); !errors.Is(err, ErrInvalid) {
			t.Fatalf("got %v, want ErrInvalid", err)
		}
	})

	t.Run("hugeSliceCount", func(t *testing.T) {
		var w writer
		w.u32(3)
		w.u32(8)
		w.u32(0xFFFFFFFF) // weight count with no bytes behind it
		if _, err := DecodeModel(seal(KindModel, w.buf)); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
}

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

// reCRC recomputes the trailer over a mutated envelope so the semantic
// checks — not the checksum — decide.
func reCRC(b []byte) {
	binary.LittleEndian.PutUint32(b[len(b)-trailerLen:], crc32.ChecksumIEEE(b[:len(b)-trailerLen]))
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	m := nn.NewComplexLNN(2, 4)
	m.InitWeights(rng.New(9))
	if err := WriteFile(path, EncodeModel(m)); err != nil {
		t.Fatal(err)
	}
	// Overwrite with different content — the rename must replace wholesale.
	m2 := nn.NewComplexLNN(2, 4)
	m2.InitWeights(rng.New(10))
	if err := WriteFile(path, EncodeModel(m2)); err != nil {
		t.Fatal(err)
	}
	b, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeModel(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.W.Val[0] != m2.W.Val[0] {
		t.Fatal("read back the stale file content")
	}
	// No temp litter.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want just the checkpoint", len(entries))
	}
}

func TestJournalAppendRecover(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1 := testEpoch(t, 31)
	e1.Reason = "deploy"
	seq1, err := j.Append(e1)
	if err != nil {
		t.Fatal(err)
	}
	e2 := testEpoch(t, 37)
	e2.Reason = "heal"
	seq2, err := j.Append(e2)
	if err != nil {
		t.Fatal(err)
	}
	if seq1 != 1 || seq2 != 2 {
		t.Fatalf("sequences %d, %d; want 1, 2", seq1, seq2)
	}

	got, err := j.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 2 || got.Reason != "heal" {
		t.Fatalf("recovered epoch %d (%s), want 2 (heal)", got.Seq, got.Reason)
	}

	// A reopened journal continues the sequence.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	e3 := testEpoch(t, 41)
	seq3, err := j2.Append(e3)
	if err != nil {
		t.Fatal(err)
	}
	if seq3 != 3 {
		t.Fatalf("reopened journal assigned %d, want 3", seq3)
	}
}

// TestJournalRecoverSkipsCorrupt is the recovery gate's core: corrupt the
// newest entry, truncate the one before it, and Recover must fall back to
// the newest intact epoch — never serving either damaged file.
func TestJournalRecoverSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := testEpoch(t, 43)
	good.Reason = "deploy"
	if _, err := j.Append(good); err != nil {
		t.Fatal(err)
	}
	trunc := testEpoch(t, 47)
	if _, err := j.Append(trunc); err != nil {
		t.Fatal(err)
	}
	corrupt := testEpoch(t, 53)
	if _, err := j.Append(corrupt); err != nil {
		t.Fatal(err)
	}

	// Truncate entry 2, bit-flip entry 3.
	p2 := filepath.Join(dir, "epoch-00000002.ckpt")
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p2, b2[:len(b2)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	p3 := filepath.Join(dir, "epoch-00000003.ckpt")
	b3, err := os.ReadFile(p3)
	if err != nil {
		t.Fatal(err)
	}
	b3[len(b3)/2] ^= 0x40
	if err := os.WriteFile(p3, b3, 0o644); err != nil {
		t.Fatal(err)
	}

	// Newest reads names only: it reports the corrupt entry and loads none.
	loads := ckptLoads.Value()
	if n := j.Newest(); n != 3 {
		t.Fatalf("Newest() = %d, want the corrupt entry 3", n)
	}
	if d := ckptLoads.Value() - loads; d != 0 {
		t.Fatalf("Newest loaded %d entries, want none", d)
	}
	got, err := j.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 1 {
		t.Fatalf("recovered epoch %d, want the intact epoch 1", got.Seq)
	}
	if _, err := ota.FromState(got.State); err != nil {
		t.Fatal(err)
	}
}

func TestJournalRecoverEmpty(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Recover(); !errors.Is(err, ErrNoEpoch) {
		t.Fatalf("got %v, want ErrNoEpoch", err)
	}
	if n := j.Newest(); n != 0 {
		t.Fatalf("Newest() = %d on an empty journal, want 0", n)
	}
}

func TestJournalPrune(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := j.Append(testEpoch(t, uint64(61+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Prune(2); err != nil {
		t.Fatal(err)
	}
	seqs := j.sequences()
	if len(seqs) != 2 || seqs[0] != 4 || seqs[1] != 5 {
		t.Fatalf("after prune: %v, want [4 5]", seqs)
	}
	// The newest survives and still recovers; sequence numbering continues.
	if _, err := j.Recover(); err != nil {
		t.Fatal(err)
	}
	if seq, err := j.Append(testEpoch(t, 71)); err != nil || seq != 6 {
		t.Fatalf("append after prune: seq %d err %v, want 6", seq, err)
	}
}
