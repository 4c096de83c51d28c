package fleet

import (
	"net"
	"testing"
	"time"

	"repro/internal/airproto"
	"repro/internal/obs/trace"
)

// TestRouterForwardDropsClientTraceContext: with the router's tracer off, a
// client's traced data frame is forwarded with no trace context, so the
// replica derives its own trace instead of opening spans under IDs the
// client chose.
func TestRouterForwardDropsClientTraceContext(t *testing.T) {
	seen := make(chan *airproto.Frame, 1)
	addr := serveReplica(t, NewAgent(nil), func(f *airproto.Frame) *airproto.Frame {
		select {
		case seen <- f:
		default:
		}
		return &airproto.Frame{ID: f.ID, Label: 3, Data: []complex128{1}}
	})
	router, err := NewRouter(Config{
		Replicas:         []Replica{{Name: "a", Addr: addr.String()}},
		HeartbeatEvery:   10 * time.Millisecond,
		HeartbeatTimeout: 500 * time.Millisecond,
		Seed:             1,
		Tracer:           &trace.Tracer{}, // the zero Tracer is disabled
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	front, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- router.Serve(front) }()
	defer func() {
		front.Close()
		<-served
	}()
	waitUntil(t, "the replica to turn live", func() bool { return router.Live() == 1 })

	client, err := net.DialUDP("udp", nil, front.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	out, err := (&airproto.Frame{ID: 5, Trace: 0xfeed, ParentSpan: 0xbeef, Data: []complex128{1, 2}}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(out); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, airproto.MaxDatagram)
	n, err := client.Read(buf)
	if err != nil {
		t.Fatalf("no reply through the router: %v", err)
	}
	resp, err := airproto.Unmarshal(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if resp.IsNack() || resp.ID != 5 || resp.Label != 3 {
		t.Fatalf("client got %+v, want the replica's reply to request 5", resp)
	}
	fwd := <-seen
	if fwd.Trace != 0 || fwd.ParentSpan != 0 {
		t.Fatalf("replica got trace context (%#x, %#x), want none", fwd.Trace, fwd.ParentSpan)
	}
}
