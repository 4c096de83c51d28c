package fleet

import (
	"bytes"
	"testing"

	"repro/internal/airproto"
	"repro/internal/rng"
)

func testSealed(n int, seed uint64) []byte {
	src := rng.New(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(src.IntN(256))
	}
	return b
}

func TestChunksRoundTripInOrder(t *testing.T) {
	sealed := testSealed(10_000, 1)
	frames, err := Chunks(7, airproto.PushCommit, sealed, 1024, 0xa1)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 10 {
		t.Fatalf("%d chunks for 10000 bytes at 1024, want 10", len(frames))
	}
	ra := NewReassembler()
	for i, f := range frames {
		got, mode, done, err := ra.Add(f)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if mode != airproto.PushCommit {
			t.Fatalf("chunk %d: mode %d", i, mode)
		}
		if done != (i == len(frames)-1) {
			t.Fatalf("chunk %d: done=%v", i, done)
		}
		if done && !bytes.Equal(got, sealed) {
			t.Fatal("reassembled bytes differ")
		}
	}
}

func TestChunksSurviveWire(t *testing.T) {
	// Every chunk must fit an airproto datagram and round-trip through
	// Marshal/Unmarshal — the reassembler sees wire frames, not originals.
	// The epoch is the size of the default mnist deployment's: at the
	// default chunk size it ships in 6 datagrams, within 1% of its bytes.
	sealed := testSealed(179_045, 2)
	frames, err := Chunks(9, airproto.PushCanary, sealed, 0, 0xa1) // default chunking
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 6 {
		t.Fatalf("%d chunks at the default size, want 6", len(frames))
	}
	ra := NewReassembler()
	var got []byte
	wire := 0
	for _, f := range frames {
		b, err := f.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		wire += len(b)
		wf, err := airproto.Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if out, _, done, err := ra.Add(wf); err != nil {
			t.Fatal(err)
		} else if done {
			got = out
		}
	}
	if !bytes.Equal(got, sealed) {
		t.Fatal("wire round trip corrupted the epoch")
	}
	if wire > len(sealed)+len(sealed)/100 {
		t.Fatalf("%d-byte epoch crossed as %d wire bytes", len(sealed), wire)
	}
}

func TestReassemblerOutOfOrderAndDuplicates(t *testing.T) {
	sealed := testSealed(5_000, 3)
	frames, err := Chunks(11, airproto.PushCommit, sealed, 700, 0xa1)
	if err != nil {
		t.Fatal(err)
	}
	// Shuffle deterministically and duplicate every chunk.
	src := rng.New(4)
	order := src.Perm(len(frames))
	ra := NewReassembler()
	var got []byte
	for _, i := range order {
		out, _, done, err := ra.Add(frames[i])
		if err != nil {
			t.Fatal(err)
		}
		if done {
			got = out
		}
		// Duplicate: idempotent, never re-completes.
		if _, _, done, err := ra.Add(frames[i]); err != nil || done {
			t.Fatalf("duplicate chunk %d: done=%v err=%v", i, done, err)
		}
	}
	if !bytes.Equal(got, sealed) {
		t.Fatal("out-of-order reassembly corrupted the epoch")
	}
}

func TestReassemblerRejectsShapeShift(t *testing.T) {
	sealed := testSealed(2_000, 5)
	frames, _ := Chunks(13, airproto.PushCommit, sealed, 600, 0xa1)
	ra := NewReassembler()
	if _, _, _, err := ra.Add(frames[0]); err != nil {
		t.Fatal(err)
	}
	// Same transfer ID, different mode: the transfer must drop, not blend.
	evil, _ := Chunks(13, airproto.PushRollback, sealed, 600, 0xa1)
	if _, _, _, err := ra.Add(evil[1]); err == nil {
		t.Fatal("mode flip mid-transfer accepted")
	}
	if len(ra.m) != 0 {
		t.Fatal("poisoned transfer not dropped")
	}
	// Same transfer ID, different coordinator incarnation: chunks from two
	// incarnations carry different bytes and must never blend either.
	if _, _, _, err := ra.Add(frames[0]); err != nil {
		t.Fatal(err)
	}
	other, _ := Chunks(13, airproto.PushCommit, sealed, 600, 0xb2)
	if _, _, _, err := ra.Add(other[1]); err == nil {
		t.Fatal("nonce flip mid-transfer accepted")
	}
	if len(ra.m) != 0 {
		t.Fatal("cross-incarnation transfer not dropped")
	}
}

func TestReassemblerEvictsOldestPartial(t *testing.T) {
	ra := NewReassembler()
	for tid := uint32(1); tid <= maxTransfers+1; tid++ {
		frames, _ := Chunks(tid, airproto.PushCommit, testSealed(2_000, uint64(tid)), 600, 0xa1)
		if _, _, _, err := ra.Add(frames[0]); err != nil {
			t.Fatal(err)
		}
	}
	if len(ra.m) != maxTransfers {
		t.Fatalf("%d transfers held, cap %d", len(ra.m), maxTransfers)
	}
	if _, ok := ra.m[1]; ok {
		t.Fatal("oldest partial transfer not evicted")
	}
}

func TestChunksRejectsEmptyAndOversized(t *testing.T) {
	if _, err := Chunks(1, airproto.PushCommit, nil, 100, 0); err == nil {
		t.Fatal("empty epoch chunked")
	}
	if _, err := Chunks(1, airproto.PushCommit, make([]byte, maxTransferBytes+1), 100, 0); err == nil {
		t.Fatal("oversized epoch chunked")
	}
}

// TestReassemblerRejectsOverCapTotal pins the receive-side allocation cap.
// The chunk digest detects corruption, not forgery: a well-formed chunk
// whose header claims a transfer past maxTransferBytes (up to 4 GiB in the
// 32-bit field) must be refused before anything is allocated for it.
func TestReassemblerRejectsOverCapTotal(t *testing.T) {
	for _, totalLen := range []int{maxTransferBytes + 1, 1<<32 - 1} {
		f, err := airproto.EpochChunk(1, airproto.PushCommit, 0, 2, []byte{1}, 0, totalLen, 0)
		if err != nil {
			t.Fatal(err)
		}
		ra := NewReassembler()
		if _, _, _, err := ra.Add(f); err == nil {
			t.Errorf("chunk claiming a %d-byte transfer accepted", totalLen)
		}
		if len(ra.m) != 0 {
			t.Errorf("chunk claiming a %d-byte transfer opened a transfer", totalLen)
		}
	}
}
