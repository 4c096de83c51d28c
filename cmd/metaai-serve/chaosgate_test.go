package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/airproto"
	"repro/internal/checkpoint"
	"repro/internal/fleet"
	"repro/internal/netchaos"
	"repro/internal/ota"
	"repro/internal/rng"
)

// chaosReplica is a fleet replica whose serving socket is wrapped in
// seeded netchaos lanes: every datagram in or out of the replica can be
// dropped, duplicated, reordered, or mangled, and the replica cannot tell
// — exactly like a real lossy edge link.
type chaosReplica struct {
	srv   *airServer
	udp   *net.UDPConn
	chaos *netchaos.Conn
	addr  *net.UDPAddr
	name  string
	done  chan error
}

func startChaosReplica(t *testing.T, d *ota.Deployment, probes [][]complex128, seed uint64, rate float64) *chaosReplica {
	t.Helper()
	srv := newAirServer(serverConfig{
		deployment:   d,
		workers:      2,
		queue:        128,
		meta:         checkpoint.Meta{Dataset: "synthetic", Seed: seed},
		canaryProbes: probes,
		canaryFrac:   0.8,
		canarySeed:   0xca9a,
		sessionSrc:   rng.New(seed),
		logf:         t.Logf,
	})
	udp, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ch := netchaos.Wrap(udp, netchaos.Config{
		Seed:     seed ^ 0xc4a05,
		Inbound:  netchaos.Mix(rate),
		Outbound: netchaos.Mix(rate),
	})
	done := make(chan error, 1)
	go func() { done <- srv.serve(ch) }()
	addr := udp.LocalAddr().(*net.UDPAddr)
	return &chaosReplica{srv: srv, udp: udp, chaos: ch, addr: addr, name: addr.String(), done: done}
}

func (r *chaosReplica) stop() {
	r.udp.Close()
	<-r.done
}

// join announces the replica from its serving socket (raw — announcements
// are the one packet kept honest so registration and eviction-resurrection
// converge quickly; everything else rides the chaos lanes).
func (r *chaosReplica) join(front *net.UDPAddr) {
	fleetSeq, fleetNonce := r.srv.fleetAgent.FleetVersion()
	f := airproto.Join(1, fleetSeq, fleetNonce)
	if out, err := f.Marshal(); err == nil {
		r.udp.WriteToUDP(out, front)
	}
}

// chaosRouterConfig builds the router config the gate uses for both
// coordinator incarnations — StateDir is what makes the second incarnation
// a RESTART rather than a fresh coordinator.
func chaosRouterConfig(stateDir string, reps []*chaosReplica, logf func(string, ...interface{})) fleet.Config {
	var seeds []fleet.Replica
	for _, r := range reps {
		seeds = append(seeds, fleet.Replica{Addr: r.addr.String()})
	}
	return fleet.Config{
		Replicas:         seeds,
		HeartbeatEvery:   25 * time.Millisecond,
		HeartbeatTimeout: 150 * time.Millisecond,
		Detector: fleet.DetectorConfig{
			SuspectMisses: 3,
			ProbeBase:     20 * time.Millisecond,
			ProbeMax:      150 * time.Millisecond,
			ProbeLimit:    6,
		},
		ForwardTimeout: 4 * time.Second,
		HedgeAfter:     50 * time.Millisecond,
		MaxAttempts:    3,
		ChunkBytes:     512,
		PublishTimeout: 150 * time.Millisecond,
		PublishRetries: 8, // chunk acks cross two chaos lanes; stop-and-wait resends
		CanaryFrac:     0.8,
		Seed:           7,
		StateDir:       stateDir,
		Logf:           logf,
	}
}

// TestChaosGate is the bad-network acceptance soak (make chaosgate): three
// replicas whose serving sockets all run the seeded netchaos.Mix(0.1)
// fault load (drops, dups, reordering, truncation, corruption, both
// directions) behind a router, under sustained deadline-stamped client
// load, through a transient one-way partition of one replica and a full
// coordinator restart that restores the journaled fleet state. The gate
// asserts the three survival invariants:
//
//  1. ZERO accepted-request loss — every client exchange is answered with a
//     well-formed accumulator frame within its retry budget; chaos may slow
//     a request down, never lose it.
//  2. Fleet convergence — after the partition heals and after the restarted
//     coordinator's anti-entropy round, every replica reports the latest
//     committed fleet sequence; the restarted coordinator's next publish
//     advances the restored sequence rather than reusing it.
//  3. Goodput floor — at least 90% of requests complete within 1s. The
//     no-chaos baseline answers essentially 100% within that bound (the
//     clean loopback round trip is sub-millisecond), so this is the
//     ">=90% of no-chaos goodput" floor in absolute form.
func TestChaosGate(t *testing.T) {
	clients, perPhase := 3, 30
	if testing.Short() {
		perPhase = 10
	}
	const chaosRate = 0.1
	d := testDeployment(t, 11)
	probes := make([][]complex128, 16)
	for i := range probes {
		probes[i] = testSymbols(d.InputLen(), uint64(200+i))
	}
	stateDir := t.TempDir()

	reps := make([]*chaosReplica, 3)
	for i := range reps {
		reps[i] = startChaosReplica(t, d, probes, uint64(60+i), chaosRate)
	}
	defer func() {
		for _, r := range reps {
			r.stop()
		}
	}()

	router, err := fleet.NewRouter(chaosRouterConfig(stateDir, reps, t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	front, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	go router.Serve(front)
	frontAddr := front.LocalAddr().(*net.UDPAddr)

	for _, r := range reps {
		r := r
		waitFor(t, "replica "+r.name+" to register", func() bool {
			r.join(frontAddr)
			_, ok := router.MemberFleetSeq(r.name)
			return ok
		})
	}
	waitFor(t, "3 live members", func() bool { return router.Live() == 3 })

	// Replicas re-announce on a ticker for the whole soak, exactly like
	// metaai-serve -join does (joinEvery): under sustained chaos a replica
	// can miss three heartbeats AND all its probes and be wrongly evicted,
	// and the periodic announcement is the designed resurrection path — an
	// evicted member that stops announcing is indistinguishable from a dead
	// one and stays out of the fleet.
	stopAnnounce := make(chan struct{})
	var announceWG sync.WaitGroup
	for _, r := range reps {
		r := r
		announceWG.Add(1)
		go func() {
			defer announceWG.Done()
			tick := time.NewTicker(500 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopAnnounce:
					return
				case <-tick.C:
					r.join(frontAddr)
				}
			}
		}()
	}
	defer func() { close(stopAnnounce); announceWG.Wait() }()

	// Sustained load for the whole soak. Every request carries a wire
	// deadline budget (exercising decrement across the router's hedged
	// hops); an expired or browned-out NACK is a retryable answer, but an
	// exchange that exhausts its attempts is accepted-request loss and
	// fails the gate.
	var (
		loadWG   sync.WaitGroup
		answered atomic.Int64
		fast     atomic.Int64 // answered within the goodput bound
		stopLoad = make(chan struct{})
		loadErrs = make(chan error, clients)
	)
	const goodputBound = time.Second
	for c := 0; c < clients; c++ {
		c := c
		loadWG.Add(1)
		go func() {
			defer loadWG.Done()
			conn, err := net.DialUDP("udp", nil, frontAddr)
			if err != nil {
				loadErrs <- err
				return
			}
			defer conn.Close()
			src := rng.New(uint64(4000 + c))
			for i := 0; ; i++ {
				select {
				case <-stopLoad:
					return
				default:
				}
				id := uint32(c*1_000_000 + i + 1)
				req := &airproto.Frame{ID: id, Data: testSymbols(d.InputLen(), uint64(id))}
				req.SetDeadline(2 * time.Second)
				start := time.Now()
				// A corrupted response can unmarshal into the wrong shape —
				// airproto has no payload checksum, so shape validation is the
				// client's job. Re-asking with the same ID is answered from the
				// server's response cache, so a clean copy comes back. A
				// connection-refused error means the router front port is down
				// mid-restart: the request was never accepted (nothing was
				// listening), so the client keeps retrying through the window —
				// only within a bound, so a router that never comes back still
				// fails the gate.
				var resp *airproto.Frame
				var err error
				refusedUntil := start.Add(15 * time.Second)
				for try := 0; ; try++ {
					resp, err = exchange(conn, req, 500*time.Millisecond, 0, 20*time.Millisecond, 10, src)
					if err != nil && errors.Is(err, syscall.ECONNREFUSED) && time.Now().Before(refusedUntil) {
						time.Sleep(50 * time.Millisecond)
						continue
					}
					if err == nil && len(resp.Data) != d.Classes() {
						if try < 5 {
							continue
						}
						err = fmt.Errorf("%d accumulators, want %d", len(resp.Data), d.Classes())
					}
					break
				}
				if err != nil {
					loadErrs <- fmt.Errorf("client %d request %d lost: %w", c, id, err)
					return
				}
				if time.Since(start) <= goodputBound {
					fast.Add(1)
				}
				answered.Add(1)
			}
		}()
	}
	phaseFloor := func(n int64) {
		t.Helper()
		waitFor(t, fmt.Sprintf("%d answered requests", n), func() bool {
			select {
			case err := <-loadErrs:
				t.Fatal(err)
			default:
			}
			return answered.Load() >= n
		})
	}
	phaseFloor(int64(clients))

	// Phase 1: replicate an epoch fleet-wide THROUGH the chaos lanes — the
	// chunked stop-and-wait transfer must survive dropped and mangled
	// chunks on every replica link.
	waitFor(t, "publish through chaos to commit", func() bool {
		return router.Publish(sealedChaosEpoch(d, 1)) == nil
	})
	tid1 := router.CurrentTid()
	for _, r := range reps {
		r := r
		waitFor(t, "replica "+r.name+" at fleet seq", func() bool {
			return r.srv.fleetAgent.FleetSeq() == uint64(tid1)
		})
	}
	phaseFloor(int64(clients * perPhase))

	// Phase 2: transient one-way partition — one replica stops HEARING the
	// world (its outbound stays up, the classic asymmetric failure). Its
	// share of the load fails over via hedging; after the partition heals
	// the replica must be routable again without rejoining.
	victim := reps[1]
	victim.chaos.Partition(netchaos.Inbound, true)
	phaseFloor(int64(2 * clients * perPhase))
	victim.chaos.Partition(netchaos.Inbound, false)
	waitFor(t, "partitioned replica trusted again", func() bool {
		victim.join(frontAddr) // rejoin announce, like metaai-serve -join re-announcing
		return router.Live() == 3
	})
	phaseFloor(int64(3 * clients * perPhase))

	// Phase 3: coordinator restart under load. The new incarnation restores
	// pubSeq, membership, and the committed epoch from the state journal
	// (the CurrentTid check below proves the restore — a cold start would
	// begin at 0), rebinds the SAME front port, and must (a) reconverge the
	// replicas via anti-entropy under a fresh incarnation nonce and (b)
	// advance the publication sequence past the restored one on its next
	// publish instead of reusing sequences. The replicas' periodic
	// announcements keep running exactly as in production.
	front.Close()
	router.Close()
	router2, err := fleet.NewRouter(chaosRouterConfig(stateDir, nil, t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer router2.Close()
	front2, err := net.ListenUDP("udp", frontAddr)
	if err != nil {
		t.Fatalf("rebinding the front port: %v", err)
	}
	defer front2.Close()
	go router2.Serve(front2)

	if got := router2.CurrentTid(); got != tid1 {
		t.Fatalf("restarted coordinator restored committed seq %d, want %d", got, tid1)
	}
	for _, r := range reps {
		r := r
		// Fresh incarnation nonce + journaled membership: the replicas'
		// (old nonce, seq) versions mismatch and anti-entropy re-pushes the
		// journaled epoch without any join traffic.
		waitFor(t, "replica "+r.name+" reconverged after restart", func() bool {
			seq, nonce := r.srv.fleetAgent.FleetVersion()
			return seq == uint64(router2.CurrentTid()) && nonce == router2.Incarnation()
		})
	}
	waitFor(t, "restarted coordinator publish to commit", func() bool {
		return router2.Publish(sealedChaosEpoch(d, 2)) == nil
	})
	if tid2 := router2.CurrentTid(); tid2 <= tid1 {
		t.Fatalf("restarted coordinator reused publication sequence: %d after %d", tid2, tid1)
	}
	for _, r := range reps {
		r := r
		waitFor(t, "replica "+r.name+" on the post-restart epoch", func() bool {
			return r.srv.fleetAgent.FleetSeq() == uint64(router2.CurrentTid())
		})
	}
	phaseFloor(int64(4 * clients * perPhase))

	close(stopLoad)
	loadWG.Wait()
	close(loadErrs)
	for err := range loadErrs {
		t.Error(err)
	}
	total, quick := answered.Load(), fast.Load()
	if total == 0 {
		t.Fatal("no requests answered")
	}
	goodput := float64(quick) / float64(total)
	t.Logf("chaosgate: %d requests answered, %.1f%% within %v, fleet at seq %d",
		total, 100*goodput, goodputBound, router2.CurrentTid())
	if goodput < 0.9 {
		t.Fatalf("goodput %.3f below the 0.9 floor (%d/%d within %v)", goodput, quick, total, goodputBound)
	}
}

// sealedChaosEpoch mirrors sealedEpoch (fleetbench) — duplicated locally so
// the chaos gate file stands alone when read.
func sealedChaosEpoch(d *ota.Deployment, seq uint64) []byte {
	return checkpoint.EncodeEpoch(&checkpoint.Epoch{
		Seq: seq, Reason: fleet.ReasonReplicate,
		Meta:  checkpoint.Meta{Dataset: "synthetic", Seed: 1},
		State: d.State(),
	})
}
