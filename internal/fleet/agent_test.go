package fleet

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/airproto"
)

func TestAgentAnswersHeartbeat(t *testing.T) {
	a := NewAgent(nil)
	a.fleetVer.Store(0x77<<32 | 5)
	resp, ok := a.HandleFrame(airproto.Heartbeat(77))
	if !ok || resp.Kind != airproto.KindHeartbeat || resp.ID != 77 {
		t.Fatalf("heartbeat answered with %+v (ok=%v)", resp, ok)
	}
	if seq, nonce, ok := resp.FleetVersion(); !ok || seq != 5 || nonce != 0x77 {
		t.Fatalf("heartbeat reply carries fleet version (%d, %#x, %v), want (5, 0x77, true)", seq, nonce, ok)
	}
	// A heartbeat REPLY (non-empty data) is not ours to answer: replying
	// would ping-pong between two replicas forever.
	if _, ok := a.HandleFrame(resp); ok {
		t.Fatal("agent answered a heartbeat reply")
	}
}

func TestAgentAppliesChunkedPushOnce(t *testing.T) {
	sealed := testSealed(4_000, 9)
	applies := 0
	a := NewAgent(func(got []byte, mode uint8, tid uint32) (float64, error) {
		applies++
		if !bytes.Equal(got, sealed) {
			t.Fatal("apply saw different bytes")
		}
		if mode != airproto.PushCanary || tid != 21 {
			t.Fatalf("apply(mode=%d, tid=%d)", mode, tid)
		}
		return 0.9375, nil
	})
	frames, err := Chunks(21, airproto.PushCanary, sealed, 900, 0x77)
	if err != nil {
		t.Fatal(err)
	}
	var final *airproto.Frame
	for i, f := range frames {
		ack, ok := a.HandleFrame(f)
		if !ok {
			t.Fatalf("chunk %d unanswered", i)
		}
		if i < len(frames)-1 {
			if ack.Code != airproto.AckChunk {
				t.Fatalf("chunk %d acked with code %d", i, ack.Code)
			}
			if idx, _, _ := ack.AckInfo(); idx != i {
				t.Fatalf("chunk %d acked as index %d", i, idx)
			}
		} else {
			final = ack
		}
	}
	if final.Code != airproto.AckApplied {
		t.Fatalf("final ack code %d", final.Code)
	}
	if _, agree, nonce := final.AckInfo(); agree != 0.9375 || nonce != 0x77 {
		t.Fatalf("final ack (agreement %v, nonce %#x)", agree, nonce)
	}
	if applies != 1 {
		t.Fatalf("apply ran %d times", applies)
	}
	if a.FleetSeq() != 21 {
		t.Fatalf("fleet seq %d after apply", a.FleetSeq())
	}

	// A retransmitted chunk after completion — ANY chunk of the transfer —
	// returns the cached final verdict without re-applying.
	for _, f := range []*airproto.Frame{frames[0], frames[len(frames)-1]} {
		ack, ok := a.HandleFrame(f)
		if !ok || ack.Code != airproto.AckApplied {
			t.Fatalf("retransmit answered with %+v", ack)
		}
	}
	if applies != 1 {
		t.Fatalf("retransmit re-applied (%d applies)", applies)
	}
}

func TestAgentRejectsFailingApply(t *testing.T) {
	sealed := testSealed(1_000, 10)
	var fail = true
	applies := 0
	a := NewAgent(func([]byte, uint8, uint32) (float64, error) {
		applies++
		if fail {
			return 0.25, fmt.Errorf("bad epoch")
		}
		return 1, nil
	})
	frames, _ := Chunks(5, airproto.PushCommit, sealed, 600, 0x77)
	var final *airproto.Frame
	for _, f := range frames {
		final, _ = a.HandleFrame(f)
	}
	if final.Code != airproto.AckRejected {
		t.Fatalf("failing apply acked with code %d", final.Code)
	}
	if a.FleetSeq() != 0 {
		t.Fatal("rejected transfer advanced the fleet seq")
	}
	// Rejections are NOT cached: the failure may have been the wire's fault
	// (a corrupted chunk tearing the sealed bytes), so a full coordinator
	// retry must reassemble and re-apply for real instead of being answered
	// from a poisoned verdict. Here the retry's apply succeeds, proving the
	// replica gave the bytes a second chance.
	fail = false
	for _, f := range frames {
		final, _ = a.HandleFrame(f)
	}
	if final.Code != airproto.AckApplied {
		t.Fatalf("retry after rejection acked with code %d, want applied", final.Code)
	}
	if applies != 2 {
		t.Fatalf("retry ran apply %d times, want 2", applies)
	}
	if a.FleetSeq() != 5 {
		t.Fatalf("fleet seq %d after successful retry", a.FleetSeq())
	}
}

// TestAgentIgnoresCorruptChunk is the bad-wire contract: a push chunk
// mangled in flight (failing its per-chunk digest) earns NO reply — not a
// rejection, which would abort the coordinator's whole push — and leaves
// the in-progress reassembly untouched, so a clean re-send of the same
// chunk completes the transfer as if the corruption were a drop.
func TestAgentIgnoresCorruptChunk(t *testing.T) {
	sealed := testSealed(4_000, 14)
	applies := 0
	a := NewAgent(func(got []byte, mode uint8, tid uint32) (float64, error) {
		applies++
		if !bytes.Equal(got, sealed) {
			t.Fatal("apply saw torn bytes")
		}
		return 1, nil
	})
	frames, err := Chunks(9, airproto.PushCommit, sealed, 900, 0x77)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) < 3 {
		t.Fatalf("want a multi-chunk transfer, got %d frames", len(frames))
	}
	var final *airproto.Frame
	for i, f := range frames {
		// Deliver a corrupted copy first: one chunk byte off by one, as wire
		// corruption would leave it after Unmarshal still parses.
		bad := *f
		bad.Payload = append([]byte(nil), f.Payload...)
		bad.Payload[len(bad.Payload)-1]++
		if reply, ok := a.HandleFrame(&bad); ok || reply != nil {
			t.Fatalf("corrupt chunk %d earned a reply: %+v", i, reply)
		}
		// The clean re-send must still be acked and the transfer proceed.
		ack, ok := a.HandleFrame(f)
		if !ok || ack == nil {
			t.Fatalf("clean re-send of chunk %d unanswered", i)
		}
		final = ack
	}
	if final.Code != airproto.AckApplied || applies != 1 {
		t.Fatalf("transfer after per-chunk corruption: code %d, %d applies", final.Code, applies)
	}
	if a.FleetSeq() != 9 {
		t.Fatalf("fleet seq %d after apply", a.FleetSeq())
	}

	// A corrupt chunk whose mangled ID collides with the completed transfer
	// must not evict its cached verdict: the next clean retransmit is still
	// answered from cache, without re-applying.
	bad := *frames[0]
	bad.Payload = append([]byte(nil), frames[0].Payload...)
	bad.Payload[8] ^= 1 // nonce flipped in flight
	if reply, ok := a.HandleFrame(&bad); ok || reply != nil {
		t.Fatalf("corrupt retransmit earned a reply: %+v", reply)
	}
	ack, ok := a.HandleFrame(frames[0])
	if !ok || ack.Code != airproto.AckApplied || applies != 1 {
		t.Fatalf("cached verdict lost after corrupt retransmit: %+v (%d applies)", ack, applies)
	}
}

func TestAgentNilApplyRejects(t *testing.T) {
	frames, _ := Chunks(3, airproto.PushCommit, testSealed(100, 11), 600, 0x77)
	a := NewAgent(nil)
	ack, ok := a.HandleFrame(frames[0])
	if !ok || ack.Code != airproto.AckRejected {
		t.Fatalf("heartbeat-only agent answered a push with %+v", ack)
	}
}

// TestAgentRejectsOverCapPush: a single chunk claiming a transfer past the
// reassembly cap is rejected without reaching apply, so a forged header
// never makes the replica allocate or decode it.
func TestAgentRejectsOverCapPush(t *testing.T) {
	f, err := airproto.EpochChunk(4, airproto.PushCommit, 0, 1, []byte{1}, 0, maxTransferBytes+1, 0x77)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAgent(func([]byte, uint8, uint32) (float64, error) {
		t.Fatal("apply called for an over-cap transfer")
		return 0, nil
	})
	ack, ok := a.HandleFrame(f)
	if !ok || ack.Kind != airproto.KindEpochAck || ack.Code != airproto.AckRejected {
		t.Fatalf("over-cap push answered with %+v (ok=%v)", ack, ok)
	}
	if seq, _ := a.FleetVersion(); seq != 0 {
		t.Fatalf("fleet seq %d after a rejected push, want 0", seq)
	}
}

// TestAgentNewIncarnationBustsAckCache is the coordinator-restart
// regression: transfer IDs restart from 1 with every coordinator process,
// so a chunk reusing a cached transfer's ID under a DIFFERENT incarnation
// nonce carries different bytes and must be reassembled and applied for
// real — answering it from the cached verdict would silently diverge the
// replica from the fleet.
func TestAgentNewIncarnationBustsAckCache(t *testing.T) {
	first := testSealed(2_000, 12)
	second := testSealed(2_000, 13)
	var applied [][]byte
	a := NewAgent(func(sealed []byte, mode uint8, tid uint32) (float64, error) {
		applied = append(applied, append([]byte(nil), sealed...))
		return 1, nil
	})

	push := func(sealed []byte, nonce uint32) *airproto.Frame {
		t.Helper()
		frames, err := Chunks(1, airproto.PushCommit, sealed, 600, nonce)
		if err != nil {
			t.Fatal(err)
		}
		var final *airproto.Frame
		for _, f := range frames {
			final, _ = a.HandleFrame(f)
		}
		return final
	}

	// Incarnation A publishes transfer 1 and the verdict is cached.
	if ack := push(first, 0xaaa); ack.Code != airproto.AckApplied {
		t.Fatalf("first publish acked with code %d", ack.Code)
	}
	if _, nonce := a.FleetVersion(); nonce != 0xaaa {
		t.Fatalf("fleet nonce %#x after first apply", nonce)
	}

	// A restarted coordinator (incarnation B) reuses transfer ID 1 for new
	// bytes. The cached ack must NOT answer it; the new epoch must apply.
	if ack := push(second, 0xbbb); ack.Code != airproto.AckApplied {
		t.Fatalf("post-restart publish acked with code %d", ack.Code)
	}
	if len(applied) != 2 || !bytes.Equal(applied[1], second) {
		t.Fatalf("post-restart transfer answered from cache (%d applies)", len(applied))
	}
	if seq, nonce := a.FleetVersion(); seq != 1 || nonce != 0xbbb {
		t.Fatalf("fleet version (%d, %#x) after restart publish", seq, nonce)
	}

	// Retransmits of incarnation B's transfer hit the refreshed cache, and
	// the completing ack echoes B's nonce.
	frames, _ := Chunks(1, airproto.PushCommit, second, 600, 0xbbb)
	ack, _ := a.HandleFrame(frames[0])
	if ack.Code != airproto.AckApplied {
		t.Fatalf("retransmit under the new incarnation answered with code %d", ack.Code)
	}
	if _, _, nonce := ack.AckInfo(); nonce != 0xbbb {
		t.Fatalf("cached ack echoes nonce %#x, want 0xbbb", nonce)
	}
	if len(applied) != 2 {
		t.Fatalf("retransmit re-applied (%d applies)", len(applied))
	}
}

// TestAgentIgnoresJoinReplies: a join reaching a replica (another
// replica's announcement) is never answered; joins are one-way.
func TestAgentIgnoresJoinReplies(t *testing.T) {
	a := NewAgent(nil)
	if _, ok := a.HandleFrame(airproto.Join(1, 2, 4)); ok {
		t.Fatal("agent answered a join frame")
	}
}
