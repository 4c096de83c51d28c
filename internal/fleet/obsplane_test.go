package fleet

import (
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/airproto"
	"repro/internal/obs"
)

// serveAgent answers frames for a bare Agent on a loopback UDP socket until
// the test ends: heartbeats in, fleet version plus piggybacked snapshot out.
func serveAgent(t *testing.T, a *Agent) *net.UDPAddr { return serveReplica(t, a, nil) }

// serveReplica is serveAgent plus a data plane: each KindData frame goes to
// data with a reply func that sends a frame back to the frame's sender. The
// reply func is safe to call from any goroutine, any number of times. With
// data nil, data frames are dropped.
func serveReplica(t testing.TB, a *Agent, data func(f *airproto.Frame, reply func(*airproto.Frame))) *net.UDPAddr {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 65535)
		for {
			n, from, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			f, err := airproto.Unmarshal(buf[:n])
			if err != nil {
				continue
			}
			reply := func(r *airproto.Frame) {
				if out, err := r.Marshal(); err == nil {
					conn.WriteToUDP(out, from)
				}
			}
			if f.Kind == airproto.KindData {
				if data != nil {
					data(f, reply)
				}
			} else if r, ok := a.HandleFrame(f); ok {
				reply(r)
			}
		}
	}()
	t.Cleanup(func() {
		conn.Close()
		<-done
	})
	return conn.LocalAddr().(*net.UDPAddr)
}

// waitUntil polls cond for up to 10s.
func waitUntil(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterFleetMetricsPlane drives the router's half of the metrics plane
// over real sockets: two agents piggyback their own registries on heartbeat
// replies, and the router must merge them into FleetSnapshot, answer
// KindStats with a StatsVersionFleet vector of exactly FleetStatsVectorLen
// slots carrying the fleet sums and merged p99, and keep a member's last
// good snapshot when a later blob fails its CRC.
func TestRouterFleetMetricsPlane(t *testing.T) {
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	regA.Counter("serve.served").Add(30)
	regB.Counter("serve.served").Add(2)
	for i := 0; i < 30; i++ {
		regA.Histogram("serve.request.seconds", nil).Observe(200e-6)
	}
	for i := 0; i < 2; i++ {
		regB.Histogram("serve.request.seconds", nil).Observe(40e-3)
	}
	source := func(reg *obs.Registry) func() []byte {
		return func() []byte { return obs.EncodeSnapshot(reg.Snapshot()) }
	}
	// Agent a bumps its fleet seq each time a heartbeat reply reads its
	// snapshot source, so MemberFleetSeq shows which of its replies the
	// router has consumed.
	var repliesA atomic.Int64
	agentA, agentB := NewAgent(nil), NewAgent(nil)
	counted := func(src func() []byte) func() []byte {
		return func() []byte {
			agentA.fleetVer.Store(uint64(repliesA.Add(1)))
			return src()
		}
	}
	agentA.SetSnapshotSource(counted(source(regA)))
	agentB.SetSnapshotSource(source(regB))
	addrA, addrB := serveAgent(t, agentA), serveAgent(t, agentB)

	router, err := NewRouter(Config{
		Replicas:         []Replica{{Name: "a", Addr: addrA.String()}, {Name: "b", Addr: addrB.String()}},
		HeartbeatEvery:   10 * time.Millisecond,
		HeartbeatTimeout: 500 * time.Millisecond,
		Seed:             1,
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

	waitUntil(t, "both snapshots merged", func() bool {
		_, per := router.FleetSnapshot()
		return len(per) == 2
	})
	want := obs.MergeSnapshots(regA.Snapshot(), regB.Snapshot())
	merged, per := router.FleetSnapshot()
	if !reflect.DeepEqual(merged.Fingerprint(), want.Fingerprint()) {
		t.Fatalf("merged fingerprint %v, want %v", merged.Fingerprint(), want.Fingerprint())
	}

	client, err := net.DialUDP("udp", nil, front.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	out, err := (&airproto.Frame{Kind: airproto.KindStats, ID: 9}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(out); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 65535)
	n, err := client.Read(buf)
	if err != nil {
		t.Fatalf("no KindStats reply from the router: %v", err)
	}
	resp, err := airproto.Unmarshal(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	// Version 3 is the layout without version 2's burn slots and health
	// tail: the fleet slots end the vector.
	if resp.Kind != airproto.KindStats || resp.Code != 3 || len(resp.Data) != airproto.FleetStatsVectorLen {
		t.Fatalf("stats reply kind %d code %d len %d, want version 3 with exactly %d slots",
			resp.Kind, resp.Code, len(resp.Data), airproto.FleetStatsVectorLen)
	}
	if got := real(resp.Data[airproto.FleetStatLive]); got != 2 {
		t.Fatalf("FleetStatLive = %v, want 2", got)
	}
	if got := router.Members(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Members() = %v, want [a b]", got)
	}
	if got := real(resp.Data[airproto.StatServed]); got != 32 {
		t.Fatalf("StatServed = %v, want 32 (30 + 2)", got)
	}
	// The wire carries float32 samples, so compare at that precision. Agent
	// b's two 40ms requests are the merged top 6%: p99 lands in their bucket.
	p99 := want.Histograms["serve.request.seconds"].Quantile(0.99) * 1e6
	if p99 < 10e3 {
		t.Fatalf("merged p99 %vµs: the fixture no longer puts it in agent b's bucket", p99)
	}
	if got := real(resp.Data[airproto.FleetStatP99Micros]); got != float64(float32(p99)) {
		t.Fatalf("FleetStatP99Micros = %v, want %v", got, float32(p99))
	}

	// A newer blob whose CRC tail is mangled must be dropped: agent a's last
	// good snapshot stands, not the newer counts inside the bad blob.
	regA.Counter("serve.served").Add(100)
	bad := obs.EncodeSnapshot(regA.Snapshot())
	bad[len(bad)-1] ^= 0xff
	if _, err := obs.DecodeSnapshot(bad); err == nil {
		t.Fatal("mangled blob still decodes")
	}
	var firstBad atomic.Int64
	agentA.SetSnapshotSource(counted(func() []byte {
		firstBad.CompareAndSwap(0, repliesA.Load())
		return bad
	}))
	waitUntil(t, "the router to consume two replies after the first bad blob", func() bool {
		seq, _ := router.MemberFleetSeq("a")
		return firstBad.Load() > 0 && int64(seq) >= firstBad.Load()+2
	})
	after, afterPer := router.FleetSnapshot()
	if !reflect.DeepEqual(after.Fingerprint(), merged.Fingerprint()) {
		t.Fatalf("fingerprint after the bad blob %v, want the last good %v", after.Fingerprint(), merged.Fingerprint())
	}
	if !reflect.DeepEqual(afterPer["a"], per["a"]) {
		t.Fatalf("member a's snapshot changed on a bad blob: %+v", afterPer["a"])
	}
}
