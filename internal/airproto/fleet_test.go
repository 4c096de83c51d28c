package airproto

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// wireRoundTrip marshals f and parses it back.
func wireRoundTrip(t *testing.T, f *Frame) *Frame {
	t.Helper()
	b, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestHeartbeatRoundTrip(t *testing.T) {
	got := wireRoundTrip(t, Heartbeat(42))
	if got.Kind != KindHeartbeat || got.ID != 42 || len(got.Payload) != 0 {
		t.Fatalf("heartbeat lost fields: %+v", got)
	}
	if _, _, ok := got.FleetVersion(); ok {
		t.Fatal("a ping reads as carrying a fleet version")
	}

	blob := []byte("obs snapshot")
	got = wireRoundTrip(t, HeartbeatReply(42, 17, 0x1234, blob))
	if seq, nonce, ok := got.FleetVersion(); !ok || seq != 17 || nonce != 0x1234 {
		t.Fatalf("fleet version (%d, %#x, %v), want (17, 0x1234, true)", seq, nonce, ok)
	}
	if !bytes.Equal(got.Snapshot(), blob) {
		t.Fatalf("snapshot %q, want %q", got.Snapshot(), blob)
	}
	if snap := wireRoundTrip(t, HeartbeatReply(42, 17, 0x1234, nil)).Snapshot(); snap != nil {
		t.Fatalf("bare reply carries snapshot %q", snap)
	}
	// A snapshot too big for the datagram is left off; the version stays.
	big := HeartbeatReply(42, 17, 0x1234, make([]byte, MaxPayload))
	if _, err := big.Marshal(); err != nil {
		t.Fatalf("oversized snapshot broke the heartbeat reply: %v", err)
	}
	if seq, _, ok := big.FleetVersion(); !ok || seq != 17 || big.Snapshot() != nil {
		t.Fatalf("oversized snapshot mishandled: seq %d ok %v, %d snapshot bytes", seq, ok, len(big.Snapshot()))
	}
}

func TestJoinRoundTrip(t *testing.T) {
	got := wireRoundTrip(t, Join(7, 12, 0xabcde))
	if got.Kind != KindJoin || got.ID != 7 {
		t.Fatalf("join lost fields: %+v", got)
	}
	if seq, nonce, ok := got.FleetVersion(); !ok || seq != 12 || nonce != 0xabcde {
		t.Fatalf("join version (%d, %#x, %v), want (12, 0xabcde, true)", seq, nonce, ok)
	}
	if seq, nonce, ok := (&Frame{Kind: KindJoin}).FleetVersion(); ok || seq != 0 || nonce != 0 {
		t.Fatalf("empty join decoded to (%d, %d, %v)", seq, nonce, ok)
	}
}

// TestFleetFramesCarryFullWidth: fleet integers ride fixed-width fields, so
// sequences, nonces, offsets and totals past 2^24 — where a float32 stops
// being integer-exact — and a canary agreement with no exact binary
// fraction all arrive bit for bit.
func TestFleetFramesCarryFullWidth(t *testing.T) {
	const seq, nonce = 1<<24 + 3, 0xfedcba98
	for _, f := range []*Frame{HeartbeatReply(1, seq, nonce, nil), Join(1, seq, nonce)} {
		if s, n, ok := wireRoundTrip(t, f).FleetVersion(); !ok || s != seq || n != nonce {
			t.Fatalf("kind %d version arrived as (%d, %#x, %v)", f.Kind, s, n, ok)
		}
	}

	const offset, totalLen = 1<<24 + 1, 1<<25 + 7
	f, err := EpochChunk(1, PushCommit, 2, 3, []byte{1, 2, 3}, offset, totalLen, nonce)
	if err != nil {
		t.Fatal(err)
	}
	chunk, off, tl, n, ok := wireRoundTrip(t, f).ChunkPayload()
	if !ok || off != offset || tl != totalLen || n != nonce || !bytes.Equal(chunk, []byte{1, 2, 3}) {
		t.Fatalf("chunk arrived as offset %d, total %d, nonce %#x, %v (ok %v)", off, tl, n, chunk, ok)
	}

	if _, agree, n := wireRoundTrip(t, EpochAck(1, 0, AckApplied, 0.1, nonce)).AckInfo(); agree != 0.1 || n != nonce {
		t.Fatalf("ack arrived as agreement %v, nonce %#x", agree, n)
	}
}

func TestEpochChunkRoundTrip(t *testing.T) {
	payload := make([]byte, 300)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	f, err := EpochChunk(99, PushCanary, 2, 5, payload, 600, 1500, 0xf0f0f0)
	if err != nil {
		t.Fatal(err)
	}
	got := wireRoundTrip(t, f)
	if got.Kind != KindEpochPush || got.Code != PushCanary || got.ID != 99 {
		t.Fatalf("chunk lost header: %+v", got)
	}
	idx, total := got.ChunkInfo()
	if idx != 2 || total != 5 {
		t.Fatalf("chunk info (%d, %d), want (2, 5)", idx, total)
	}
	chunk, offset, totalLen, nonce, ok := got.ChunkPayload()
	if !ok {
		t.Fatal("valid chunk rejected")
	}
	if offset != 600 || totalLen != 1500 || nonce != 0xf0f0f0 || !bytes.Equal(chunk, payload) {
		t.Fatalf("chunk payload corrupted: offset %d, total %d, nonce %#x, %d bytes", offset, totalLen, nonce, len(chunk))
	}
}

func TestEpochChunkOddLength(t *testing.T) {
	f, err := EpochChunk(1, PushCommit, 0, 1, []byte{1, 2, 3}, 0, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	chunk, offset, totalLen, _, ok := wireRoundTrip(t, f).ChunkPayload()
	if !ok || offset != 0 || totalLen != 3 || !bytes.Equal(chunk, []byte{1, 2, 3}) {
		t.Fatalf("odd chunk corrupted: %v (offset %d, total %d, ok %v)", chunk, offset, totalLen, ok)
	}
}

func TestEpochChunkRejectsMalformed(t *testing.T) {
	if _, err := EpochChunk(1, PushCommit, 0, 1, make([]byte, MaxChunkBytes+1), 0, MaxChunkBytes+1, 0); err == nil {
		t.Error("oversized chunk accepted")
	}
	if _, err := EpochChunk(1, PushCommit, 3, 3, nil, 0, 0, 0); err == nil {
		t.Error("out-of-range chunk index accepted")
	}
	if _, err := EpochChunk(1, PushCommit, 0, 0x10000, nil, 0, 0, 0); err == nil {
		t.Error("chunk total beyond the 16-bit label field accepted")
	}
	if _, err := EpochChunk(1, PushCommit, 0, 2, []byte{1, 2}, 99, 100, 0); err == nil {
		t.Error("chunk overrunning the transfer accepted")
	}
	if _, err := EpochChunk(1, PushCommit, 0, 2, []byte{1, 2}, 0, 1<<32, 0); err == nil {
		t.Error("transfer length beyond the 32-bit header field accepted")
	}
	// The cap on a received total lives in the fleet reassembler, which
	// allocates it: see fleet's TestReassemblerRejectsOverCapTotal.
	// A chunk header lying about the geometry under a valid digest (the
	// sender's bug, not the wire's) must not enter reassembly either.
	lie := func(offset, totalLen uint32) *Frame {
		f, _ := EpochChunk(1, PushCommit, 0, 2, []byte{1, 2, 3, 4}, 0, 100, 0)
		binary.LittleEndian.PutUint32(f.Payload[0:], offset)
		binary.LittleEndian.PutUint32(f.Payload[4:], totalLen)
		binary.LittleEndian.PutUint32(f.Payload[12:], chunkDigest(f))
		return f
	}
	if _, _, _, _, ok := lie(0, 2).ChunkPayload(); ok {
		t.Error("total-lying chunk accepted")
	}
	if _, _, _, _, ok := lie(98, 100).ChunkPayload(); ok {
		t.Error("offset-lying chunk accepted")
	}
	if _, _, _, _, ok := (&Frame{Kind: KindEpochPush, Payload: make([]byte, chunkHeaderLen-1)}).ChunkPayload(); ok {
		t.Error("headerless chunk accepted")
	}
}

func TestEpochChunkDigestDetectsTamper(t *testing.T) {
	// Every field the digest covers: flipping any of them after build must
	// make ChunkPayload refuse the frame, because a chunk corrupted in
	// flight (airproto frames carry no payload checksum of their own) would
	// otherwise land garbage bytes at a valid offset or open a phantom
	// transfer under a mangled ID.
	build := func() *Frame {
		f, err := EpochChunk(7, PushCommit, 1, 3, []byte{9, 8, 7, 6, 5}, 16, 48, 0xabcdef)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	tampers := []struct {
		name string
		mut  func(f *Frame)
	}{
		{"transfer ID", func(f *Frame) { f.ID ^= 1 }},
		{"push mode", func(f *Frame) { f.Code ^= 1 }},
		{"chunk index/total", func(f *Frame) { f.Label ^= 1 << 16 }},
		{"byte offset", func(f *Frame) { f.Payload[0] += 2 }},
		{"total length", func(f *Frame) { f.Payload[4]++ }},
		{"nonce", func(f *Frame) { f.Payload[8] ^= 1 }},
		{"digest itself", func(f *Frame) { f.Payload[12]++ }},
		{"payload byte", func(f *Frame) { f.Payload[chunkHeaderLen]++ }},
		{"truncated payload", func(f *Frame) { f.Payload = f.Payload[:len(f.Payload)-1] }},
	}
	for _, tc := range tampers {
		f := build()
		tc.mut(f)
		if _, _, _, _, ok := f.ChunkPayload(); ok {
			t.Errorf("tampered %s accepted", tc.name)
		}
	}
	// And the untampered frame still round-trips through the wire.
	if chunk, off, totalLen, nonce, ok := wireRoundTrip(t, build()).ChunkPayload(); !ok ||
		off != 16 || totalLen != 48 || nonce != 0xabcdef || !bytes.Equal(chunk, []byte{9, 8, 7, 6, 5}) {
		t.Fatalf("clean chunk refused: %v (offset %d, total %d, nonce %#x, ok %v)", chunk, off, totalLen, nonce, ok)
	}
}

func TestEpochAckRoundTrip(t *testing.T) {
	// Intermediate chunk ack: no payload.
	got := wireRoundTrip(t, EpochAck(5, 3, AckChunk, 0, 9))
	if got.Kind != KindEpochAck || got.Code != AckChunk || len(got.Payload) != 0 {
		t.Fatalf("chunk ack lost fields: %+v", got)
	}
	if idx, _, _ := got.AckInfo(); idx != 3 {
		t.Fatalf("chunk ack index %d, want 3", idx)
	}

	// Completing ack: verdict plus the agreement and the echoed nonce.
	got = wireRoundTrip(t, EpochAck(5, 4, AckApplied, 0.875, 0x1234))
	idx, agree, nonce := got.AckInfo()
	if got.Code != AckApplied || idx != 4 || agree != 0.875 || nonce != 0x1234 {
		t.Fatalf("final ack decoded to (%d, %v, %#x, code %d)", idx, agree, nonce, got.Code)
	}
}
