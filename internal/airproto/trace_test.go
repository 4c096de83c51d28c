package airproto

import (
	"bytes"
	"net"
	"testing"
	"time"
)

func TestTraceRequestIDRoundTrip(t *testing.T) {
	for _, id := range []uint64{0, 1, 0xdeadbeefcafef00d, ^uint64(0)} {
		f := TraceRequest(id)
		if f.Kind != KindTrace {
			t.Fatalf("kind = %d", f.Kind)
		}
		if got := f.TraceID(); got != id {
			t.Fatalf("TraceID round trip: got %x want %x", got, id)
		}
		// The split ID must survive the wire.
		b, err := f.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		g, err := Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if g.TraceID() != id {
			t.Fatalf("wire round trip: got %x want %x", g.TraceID(), id)
		}
	}
}

func TestPayloadRoundTripsThroughWire(t *testing.T) {
	payloads := [][]byte{
		nil,
		{0},
		{255},
		[]byte(`{"traceEvents":[{"name":"req","ph":"X"}]}`),
		bytes.Repeat([]byte{0, 127, 255, 3}, 300),
		bytes.Repeat([]byte{9}, 301),
	}
	for _, p := range payloads {
		f := TraceReply(6, p)
		b, err := f.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != HeaderLen+len(p) {
			t.Fatalf("%d-byte payload marshals to %d bytes, want %d", len(p), len(b), HeaderLen+len(p))
		}
		g, err := Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if g.Code != 0 || !bytes.Equal(g.Payload, p) {
			t.Fatalf("payload corrupted: code %d, got %q want %q", g.Code, g.Payload, p)
		}
	}
}

// TestTraceReplyTruncatedAtCapCrossesLoopback: an export too big for one
// datagram is cut to the largest payload that still fits, so the reply
// reaches the client over a real socket, and its StatusNoTrace code says
// the JSON is incomplete.
func TestTraceReplyTruncatedAtCapCrossesLoopback(t *testing.T) {
	doc := bytes.Repeat([]byte{'x'}, MaxPayload+100)
	out, err := TraceReply(5, doc).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := net.DialUDP("udp", nil, rx.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	if _, err := tx.Write(out); err != nil {
		t.Fatalf("truncated trace reply (%d bytes) did not send: %v", len(out), err)
	}
	rx.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 65535)
	n, err := rx.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindTrace || got.Code != StatusNoTrace || !bytes.Equal(got.Payload, doc[:MaxPayload]) {
		t.Fatalf("truncated reply arrived as kind %d, code %d, %d payload bytes", got.Kind, got.Code, len(got.Payload))
	}
}

// TestUnmarshalRejectsBogusPayloadLength: a byte payload's length counts
// bytes, so a claim past the datagram fails rather than reading beyond it,
// and a claim short of it yields exactly the bytes claimed.
func TestUnmarshalRejectsBogusPayloadLength(t *testing.T) {
	b, _ := TraceReply(1, []byte("0123456789")).Marshal()
	if _, err := Unmarshal(b[:len(b)-1]); err == nil {
		t.Error("expected error for a byte payload cut short")
	}
	long := append([]byte(nil), b...)
	long[10], long[11] = 11, 0 // n = 11, one past the 10 bytes carried
	if _, err := Unmarshal(long); err == nil {
		t.Error("expected error for a length claim past the datagram")
	}
	short := append([]byte(nil), b...)
	short[10], short[11] = 3, 0
	g, err := Unmarshal(short)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Payload, []byte("012")) {
		t.Fatalf("3-byte claim: got %q, want %q", g.Payload, "012")
	}
	short[10] = 0
	if g, err = Unmarshal(short); err != nil {
		t.Fatal(err)
	}
	if len(g.Payload) != 0 {
		t.Fatalf("zero-length claim: got %d bytes", len(g.Payload))
	}
}

func TestKindTraceValidOnWireUnknownKindsStillRejected(t *testing.T) {
	f := &Frame{Kind: KindTrace, ID: 1}
	b, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(b); err != nil {
		t.Fatalf("KindTrace rejected: %v", err)
	}
	bad := &Frame{Kind: maxKind + 1}
	if _, err := bad.Marshal(); err == nil {
		t.Fatalf("kind %d marshaled", maxKind+1)
	}
	b[0] = maxKind + 1
	if _, err := Unmarshal(b); err == nil {
		t.Fatalf("kind %d unmarshaled", maxKind+1)
	}
}
