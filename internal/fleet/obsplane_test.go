package fleet

import (
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/airproto"
	"repro/internal/obs"
	"repro/internal/obs/slo"
)

// serveAgent answers frames for a bare Agent on a loopback UDP socket until
// the test ends: heartbeats in, fleet version plus piggybacked snapshot out.
func serveAgent(t *testing.T, a *Agent) *net.UDPAddr { return serveReplica(t, a, nil) }

// serveReplica is serveAgent plus a data plane: each KindData frame goes to
// data, whose non-nil reply is sent back. With data nil, data frames are
// dropped.
func serveReplica(t *testing.T, a *Agent, data func(*airproto.Frame) *airproto.Frame) *net.UDPAddr {
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
			var reply *airproto.Frame
			if f.Kind == airproto.KindData {
				if data != nil {
					reply = data(f)
				}
			} else if r, ok := a.HandleFrame(f); ok {
				reply = r
			}
			if reply != nil {
				if out, err := reply.Marshal(); err == nil {
					conn.WriteToUDP(out, from)
				}
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
func waitUntil(t *testing.T, what string, cond func() bool) {
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
// KindStats with the fleet sums and merged p99, and keep a member's last
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
	if resp.Kind != airproto.KindStats || resp.Code != airproto.StatsVersionFleet || len(resp.Data) < airproto.FleetStatsVectorLen {
		t.Fatalf("stats reply kind %d code %d len %d, want a fleet stats vector", resp.Kind, resp.Code, len(resp.Data))
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

// TestDetectorSlowReplicaSuspectedBySLO drives the silently-slow failure
// mode: a replica that answers every heartbeat instantly (so misses never
// accumulate) and NACKs nothing (so the NACK window never fills) but
// serves every request far over the SLO target. Burn-rate suspicion must
// turn it Suspect; neither legacy mechanism ever would.
func TestDetectorSlowReplicaSuspectedBySLO(t *testing.T) {
	det := NewDetector(DetectorConfig{
		SuspectMisses: 2,
		NackWindow:    8,
		SLOTarget:     time.Millisecond,
		SLO:           slo.Config{FastWindow: 32, SlowWindow: 64},
	}, nil)
	now := time.Unix(1_726_000_000, 0)
	det.Revive("slow")

	suspected := false
	for i := 0; i < 256; i++ {
		// Heartbeats keep landing: the replica is alive, just drowning.
		det.Observe("slow", true, now)
		// Every request SUCCEEDS (no NACK-window evidence) but takes 5ms
		// against a 1ms target.
		if det.ReportLatency("slow", 5*time.Millisecond, true, now) == Suspect {
			suspected = true
			break
		}
		now = now.Add(time.Millisecond)
	}
	if !suspected {
		t.Fatal("silently-slow replica never suspected by burn rate")
	}
	if score := det.HealthScore("slow"); score != 1 {
		t.Fatalf("tracker should reset on suspicion, health = %v", score)
	}

	// Control: the same traffic within the target never trips suspicion.
	det2 := NewDetector(DetectorConfig{
		SLOTarget: time.Millisecond,
		SLO:       slo.Config{FastWindow: 32, SlowWindow: 64},
	}, nil)
	det2.Revive("fast")
	for i := 0; i < 256; i++ {
		if det2.ReportLatency("fast", 100*time.Microsecond, true, now) != Alive {
			t.Fatal("within-SLO replica suspected")
		}
	}
	if score := det2.HealthScore("fast"); score != 1 {
		t.Fatalf("within-SLO replica health = %v, want 1", score)
	}
}

// TestDetectorSLODisabledByDefault: with no SLOTarget, ReportLatency is a
// no-op and HealthScore reports 1 — the pre-obs-plane behavior.
func TestDetectorSLODisabledByDefault(t *testing.T) {
	det := NewDetector(DetectorConfig{}, nil)
	now := time.Unix(1_726_000_000, 0)
	for i := 0; i < 512; i++ {
		if st := det.ReportLatency("r", time.Second, false, now); st != Alive {
			t.Fatalf("SLO-disabled detector changed state to %v", st)
		}
	}
	if score := det.HealthScore("r"); score != 1 {
		t.Fatalf("SLO-disabled health = %v, want 1", score)
	}
}
