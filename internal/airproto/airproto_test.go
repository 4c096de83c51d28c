package airproto

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
)

func TestRoundTrip(t *testing.T) {
	src := rng.New(1)
	f := &Frame{ID: 42, Label: -1, Data: make([]complex128, 64)}
	for i := range f.Data {
		f.Data[i] = src.ComplexNormal(1)
	}
	b, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 42 || got.Label != -1 || len(got.Data) != 64 {
		t.Fatalf("header lost: %+v", got)
	}
	for i := range f.Data {
		// float32 wire precision.
		if cmplx.Abs(got.Data[i]-f.Data[i]) > 1e-6*(1+cmplx.Abs(f.Data[i])) {
			t.Fatalf("element %d corrupted: %v vs %v", i, got.Data[i], f.Data[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Every kind a Frame can hold — data, NACK, stats, trace, and the four
	// fleet kinds — must round-trip its full header (kind, code, ID, label)
	// and body bit-exactly through the wire format: samples on KindData and
	// KindStats, bytes on the rest, and trace context on traced data.
	err := quick.Check(func(kindSel, code uint8, id uint32, label int32, raw []float64, payload []byte, traceID, parent uint64) bool {
		kind := kindSel % KindDataTraced
		if len(raw) > 200 {
			raw = raw[:200]
		}
		data := make([]complex128, len(raw)/2)
		for i := range data {
			re, im := raw[2*i], raw[2*i+1]
			if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
				return true // skip non-finite inputs
			}
			data[i] = complex(float64(float32(re)), float64(float32(im)))
		}
		f := &Frame{Kind: kind, Code: code, ID: id, Label: label}
		if carriesSamples(kind) {
			f.Data = data
		} else {
			f.Payload = payload
		}
		if kind == KindData && traceID != 0 {
			f.Trace, f.ParentSpan = traceID, parent
		}
		b, err := f.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(b)
		if err != nil || got.Kind != kind || got.Code != code || got.ID != id ||
			got.Label != label || len(got.Data) != len(f.Data) || !bytes.Equal(got.Payload, f.Payload) ||
			got.Trace != f.Trace || got.ParentSpan != f.ParentSpan {
			return false
		}
		for i := range f.Data {
			if got.Data[i] != f.Data[i] {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// TestGoldenWireBytes pins the marshalled bytes of the frames every client
// speaks. The expected hex was produced by the float32-for-every-kind
// codec that predates byte payloads: data, NACK and stats frames must
// cross the wire exactly as they always have. The catch-up chunk's hex was
// produced before PushCatchUp was named, when mode 3 was just a byte: the
// mode adds no wire format. The applied verdict and the heartbeat reply
// pin the CRC32 each carries over its verdict or fleet version (checked
// against an independent CRC-32/IEEE).
func TestGoldenWireBytes(t *testing.T) {
	catchUp, err := EpochChunk(23, PushCatchUp, 1, 3, []byte{0xde, 0xad, 0xbe}, 500, 1000, 0xbeef01)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		f    *Frame
		want string
	}{
		{"data request", &Frame{ID: 0x01020304, Label: 7, Code: EncodeDeadline(250 * time.Millisecond), Data: []complex128{1 + 2i, -0.5 - 0.25i, 3.14159}},
			"0019040302010700000003000000803f00000040000000bf000080bed00f494000000000"},
		{"data reply", &Frame{ID: 0x01020304, Label: 7, Data: []complex128{0.125 + 1e-3i, -42, 1e6i}},
			"0000040302010700000003000000003e6f12833a000028c2000000000000000000247449"},
		{"nack", Nack(77, StatusWrongLen, 784),
			"01024d000000100300000000"},
		{"stats reply", &Frame{Kind: KindStats, Code: StatsVersionReplica, ID: 9, Data: []complex128{101, 2, 3, 1, 1, 9, 4, 5}},
			"0201090000000000000008000000ca4200000000000000400000000000004040000000000000803f000000000000803f00000000000010410000000000008040000000000000a04000000000"},
		{"catch-up chunk", catchUp,
			"060317000000030001001300f4010000e803000001efbe002a857711deadbe"},
		{"applied verdict", EpochAck(23, 2, AckApplied, 0.97, 0xbeef01),
			"0701170000000200000010000ad7a3703d0aef3f01efbe006d340103"},
		{"heartbeat reply", HeartbeatReply(21, 3, 0x1234, nil),
			"040015000000000000000c00030000003412000062c0468b"},
	}
	for _, tc := range cases {
		b, err := tc.f.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(b); got != tc.want {
			t.Errorf("%s marshals to\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}

// TestUnmarshalCopiesPayload: a read loop reuses one buffer for every
// datagram, so a parsed frame must not alias it.
func TestUnmarshalCopiesPayload(t *testing.T) {
	b, err := TraceReply(3, []byte(`{"traceEvents":[]}`)).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = 0xee
	}
	if string(f.Payload) != `{"traceEvents":[]}` {
		t.Fatalf("payload changed with the input buffer: %q", f.Payload)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("expected error for empty datagram")
	}
	if _, err := Unmarshal(make([]byte, 5)); err == nil {
		t.Error("expected error for short frame")
	}
	// Header claims 100 elements but carries none.
	f := &Frame{ID: 1, Data: make([]complex128, 100)}
	b, _ := f.Marshal()
	if _, err := Unmarshal(b[:HeaderLen]); err == nil {
		t.Error("expected error for truncated payload")
	}
}

func TestMarshalRejectsOversize(t *testing.T) {
	f := &Frame{Data: make([]complex128, MaxVector+1)}
	if _, err := f.Marshal(); err == nil {
		t.Fatal("expected error for oversized vector")
	}
	if _, err := (&Frame{Kind: KindTrace, Payload: make([]byte, MaxPayload+1)}).Marshal(); err == nil {
		t.Fatal("expected error for oversized payload")
	}
	// The largest frames of each body still fit one IPv4 UDP datagram.
	for _, f := range []*Frame{
		{Data: make([]complex128, MaxVector), Trace: 1},
		{Kind: KindTrace, Payload: make([]byte, MaxPayload)},
	} {
		b, err := f.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > MaxDatagram {
			t.Fatalf("kind %d frame marshals to %d bytes, past the %d-byte datagram cap", f.Kind, len(b), MaxDatagram)
		}
	}
}

func TestMarshalRejectsMismatchedBody(t *testing.T) {
	for _, f := range []*Frame{
		{Kind: KindData, Payload: []byte{1}},          // samples kind with bytes
		{Kind: KindEpochAck, Data: []complex128{1}},   // bytes kind with samples
		{Kind: KindDataTraced, Data: []complex128{1}}, // wire-only kind
	} {
		if _, err := f.Marshal(); err == nil {
			t.Errorf("marshalled %+v", f)
		}
	}
}

func TestNackRoundTrip(t *testing.T) {
	n := Nack(99, StatusWrongLen, 784)
	b, err := n.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsNack() || got.Code != StatusWrongLen || got.ID != 99 || got.Label != 784 || len(got.Data) != 0 {
		t.Fatalf("NACK lost fields: %+v", got)
	}
	if (&Frame{ID: 1}).IsNack() {
		t.Fatal("data frame classified as NACK")
	}
}

func TestRejectsUnknownKind(t *testing.T) {
	b, _ := (&Frame{ID: 1, Data: []complex128{1}}).Marshal()
	b[0] = maxKind + 1
	if _, err := Unmarshal(b); err == nil {
		t.Error("expected error for unknown frame kind")
	}
	if _, err := (&Frame{Kind: maxKind + 1}).Marshal(); err == nil {
		t.Error("expected marshal error for unknown frame kind")
	}
	b[0] = 0xff
	if _, err := Unmarshal(b); err == nil {
		t.Error("expected error for kind 255")
	}
}

func TestUnmarshalRejectsOversizeClaim(t *testing.T) {
	// A header claiming more elements than any datagram can carry must be
	// rejected on the length field itself, not by allocating first.
	for _, kind := range []uint8{KindData, KindTrace} {
		b, _ := (&Frame{Kind: kind, ID: 1}).Marshal()
		b[10], b[11] = 0xff, 0xff // n = 65535 > MaxVector and > MaxPayload
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("kind %d: expected error for oversized length claim", kind)
		}
	}
}

// fuzzCorpus seeds FuzzUnmarshal with the failure shapes the serving stack
// meets in the wild: truncated headers, length-field lies, arbitrary
// (non-UTF8) byte soup, and well-formed data and NACK frames. The seeds run
// under plain `go test` as well, so the corpus is a regression suite even
// when fuzzing is off.
func fuzzCorpus() [][]byte {
	data, _ := (&Frame{ID: 7, Label: 3, Data: []complex128{1 + 2i, -3 - 4i}}).Marshal()
	nack, _ := Nack(9, StatusDegraded, 0).Marshal()
	big, _ := (&Frame{ID: 8, Data: make([]complex128, 300)}).Marshal()
	stats, _ := (&Frame{Kind: KindStats, ID: 11, Data: make([]complex128, StatsVectorLen)}).Marshal()
	trc, _ := TraceRequest(0x8be9ac2c03521f46).Marshal()
	oversize := append([]byte(nil), data...)
	oversize[10], oversize[11] = 0xff, 0xff // n lies far past the payload
	// Fleet control frames: liveness, membership, and both halves of the
	// chunked epoch-replication exchange.
	hb, _ := Heartbeat(21).Marshal()
	hbReply, _ := HeartbeatReply(21, 3, 0x1234, nil).Marshal()
	join, _ := Join(22, 5, 0xabcdef).Marshal()
	chunkFrame, _ := EpochChunk(23, PushCanary, 1, 3, []byte{0xde, 0xad, 0xbe}, 500, 1000, 0xbeef01)
	chunk, _ := chunkFrame.Marshal()
	chunkCut := chunk[:len(chunk)-5] // chunk cut mid-payload
	ackChunk, _ := EpochAck(23, 1, AckChunk, 0, 0xbeef01).Marshal()
	ackDone, _ := EpochAck(23, 2, AckApplied, 0.97, 0xbeef01).Marshal()
	// Overload-control frames: a deadline-stamped data request, the expired
	// verdict, and a brownout retry-after hint.
	deadlined, _ := (&Frame{ID: 31, Label: -1, Code: EncodeDeadline(250 * time.Millisecond), Data: []complex128{1i, 2}}).Marshal()
	expired, _ := ExpiredNack(31, 40*time.Millisecond).Marshal()
	retryAfter, _ := RetryAfterNack(32, 75*time.Millisecond).Marshal()
	// Byte payloads and the trace extension: a heartbeat reply carrying a
	// snapshot blob, a trace export, a traced data frame, and each cut short.
	hbBlob, _ := HeartbeatReply(24, 1<<30, 0xfeedface, []byte("snapshot-blob")).Marshal()
	trcReply, _ := TraceReply(25, []byte(`{"traceEvents":[{"name":"req","ph":"X"}]}`)).Marshal()
	traced, _ := (&Frame{ID: 26, Label: 4, Data: []complex128{1 + 1i, -2}, Trace: 0xdeadbeefcafef00d, ParentSpan: 0x0123456789abcdef}).Marshal()
	return [][]byte{
		{},                 // empty datagram
		{0x00},             // 1-byte runt
		data[:HeaderLen-1], // header cut one byte short
		data[:HeaderLen],   // header only, payload missing
		data[:len(data)-3], // payload cut mid-element
		oversize,           // oversized length claim
		{0xff, 0xfe, 0x80, 0x81, 0xc3, 0x28, 0xa0, 0xa1, 0x00, 0x00, 0x00, 0x00}, // non-UTF8 byte soup, header-sized
		data,
		nack,
		big,
		stats,
		trc,
		hb,
		hbReply,
		join,
		chunk,
		chunkCut,
		ackChunk,
		ackDone,
		deadlined,
		expired,
		retryAfter,
		hbBlob,
		trcReply,
		traced,
		hbBlob[:len(hbBlob)-1],           // byte payload cut short
		traced[:HeaderLen+traceExtLen-3], // trace extension cut short
	}
}

func FuzzUnmarshal(f *testing.F) {
	for _, seed := range fuzzCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := Unmarshal(b)
		if err != nil {
			return
		}
		if fr.Kind > maxKind {
			t.Fatalf("accepted frame with unknown kind %d", fr.Kind)
		}
		if len(fr.Data) > MaxVector {
			t.Fatalf("accepted frame with %d elements (max %d)", len(fr.Data), MaxVector)
		}
		if len(fr.Data) > 0 && len(fr.Payload) > 0 {
			t.Fatalf("accepted frame carries both samples and a payload: %+v", fr)
		}
		// Accepted frames must re-marshal to a parseable frame that carries
		// the same header and payload.
		b2, err := fr.Marshal()
		if err != nil {
			t.Fatalf("accepted frame failed to marshal: %v", err)
		}
		fr2, err := Unmarshal(b2)
		if err != nil {
			t.Fatalf("re-marshaled frame failed to parse: %v", err)
		}
		if fr2.Kind != fr.Kind || fr2.Code != fr.Code || fr2.ID != fr.ID || fr2.Label != fr.Label || len(fr2.Data) != len(fr.Data) ||
			fr2.Trace != fr.Trace || fr2.ParentSpan != fr.ParentSpan {
			t.Fatalf("round trip changed header: %+v vs %+v", fr2, fr)
		}
		if !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("round trip changed the payload: %x vs %x", fr2.Payload, fr.Payload)
		}
		for i := range fr.Data {
			b1 := [2]uint32{math.Float32bits(float32(real(fr.Data[i]))), math.Float32bits(float32(imag(fr.Data[i])))}
			b2 := [2]uint32{math.Float32bits(float32(real(fr2.Data[i]))), math.Float32bits(float32(imag(fr2.Data[i])))}
			if b1 != b2 {
				t.Fatalf("round trip changed element %d: %v vs %v", i, fr.Data[i], fr2.Data[i])
			}
		}
	})
}

// TestFuzzCorpusSeeded runs the seed corpus through the fuzz invariant in a
// plain test, so the regression coverage does not depend on -fuzz being
// enabled in CI.
func TestFuzzCorpusSeeded(t *testing.T) {
	for i, b := range fuzzCorpus() {
		fr, err := Unmarshal(b)
		if err != nil {
			continue // rejection is a valid outcome; the fuzz target checks the rest
		}
		if _, err := fr.Marshal(); err != nil {
			t.Errorf("corpus %d: accepted frame failed to marshal: %v", i, err)
		}
	}
}
