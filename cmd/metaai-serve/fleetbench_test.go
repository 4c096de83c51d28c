package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/airproto"
	"repro/internal/checkpoint"
	"repro/internal/cplx"
	"repro/internal/fleet"
	"repro/internal/ota"
	"repro/internal/rng"
)

// fleetReplica bundles one running replica for the fleet bench: a real
// airServer (fleet agent included) on its own loopback socket.
type fleetReplica struct {
	srv  *airServer
	conn *net.UDPConn
	addr *net.UDPAddr
	name string
	done chan error
}

func startFleetReplica(t *testing.T, d *ota.Deployment, probes [][]complex128, seed uint64) *fleetReplica {
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
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.serve(conn) }()
	addr := conn.LocalAddr().(*net.UDPAddr)
	return &fleetReplica{srv: srv, conn: conn, addr: addr, name: addr.String(), done: done}
}

// stop kills the replica: the socket closes, serve drains, and from the
// router's point of view the process is gone mid-flight.
func (r *fleetReplica) stop() {
	r.conn.Close()
	<-r.done
}

// join announces the replica to the router from its SERVING socket, exactly
// like metaai-serve -join: the router learns the data-path address from the
// datagram's source. The reply is consumed by the replica's own fleet agent.
func (r *fleetReplica) join(front *net.UDPAddr) {
	fleetSeq, fleetNonce := r.srv.fleetAgent.FleetVersion()
	f := airproto.Join(1, fleetSeq, fleetNonce)
	if out, err := f.Marshal(); err == nil {
		r.conn.WriteToUDP(out, front)
	}
}

// sabotagedDeployment builds a deployment with scrambled weights — the same
// shape as testDeployment's but entirely different predictions, so it is the
// replicated analogue of a corrupted heal candidate. (testDeployment always
// seeds its WEIGHTS from the same source; only the scramble seed here makes
// the predictions diverge.)
func sabotagedDeployment(t *testing.T, seed uint64) *ota.Deployment {
	t.Helper()
	src := rng.New(seed)
	w := cplx.NewMat(4, 16)
	wsrc := rng.New(seed ^ 0xbad)
	for i := range w.Data {
		w.Data[i] = cplx.Expi(wsrc.Phase()) * complex(0.5+wsrc.Float64(), 0)
	}
	d, err := ota.NewDeployment(w, ota.NewOptions(src.Split()), src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sealedEpoch encodes a deployment as the sealed checkpoint the coordinator
// replicates — the same bytes a metaai-serve journal holds.
func sealedEpoch(d *ota.Deployment, seq uint64) []byte {
	return checkpoint.EncodeEpoch(&checkpoint.Epoch{
		Seq: seq, Reason: fleet.ReasonReplicate,
		Meta:  checkpoint.Meta{Dataset: "synthetic", Seed: 1},
		State: d.State(),
	})
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFleetBench is the fleet acceptance bench (make fleetbench; -short is
// the fleetgate smoke). Three replicas behind a router under sustained
// client load, with every fleet failure mode exercised mid-flight:
//
//  1. An epoch replicates fleet-wide through the canary and every replica
//     converges on the fleet sequence.
//  2. A sabotaged epoch is refused by the canary's held-out agreement check
//     and the WHOLE fleet — canary included — rolls back and re-converges.
//  3. A replica is killed; its requests fail over via hedging, the publish
//     in flight evicts the corpse and commits on the survivors.
//  4. A replacement joins, is caught up by anti-entropy, and the fleet is
//     back to full strength on the latest valid epoch.
//
// Throughout, every client request must be answered — zero request loss.
func TestFleetBench(t *testing.T) {
	clients, perPhase := 6, 40
	if testing.Short() {
		clients, perPhase = 3, 10
	}
	d := testDeployment(t, 11)
	probes := make([][]complex128, 16)
	for i := range probes {
		probes[i] = testSymbols(d.InputLen(), uint64(200+i))
	}

	reps := make([]*fleetReplica, 3)
	for i := range reps {
		reps[i] = startFleetReplica(t, d, probes, uint64(20+i))
	}

	router, err := fleet.NewRouter(fleet.Config{
		HeartbeatEvery:   25 * time.Millisecond,
		HeartbeatTimeout: 150 * time.Millisecond,
		Detector: fleet.DetectorConfig{
			SuspectMisses: 2,
			ProbeBase:     20 * time.Millisecond,
			ProbeMax:      150 * time.Millisecond,
			ProbeLimit:    3,
		},
		ForwardTimeout: 4 * time.Second,
		HedgeAfter:     50 * time.Millisecond,
		MaxAttempts:    3,
		ChunkBytes:     512, // multi-chunk transfers, so kills land mid-transfer
		PublishTimeout: 150 * time.Millisecond,
		PublishRetries: 4,
		CanaryFrac:     0.8,
		Seed:           7,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	front, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	go router.Serve(front)
	frontAddr := front.LocalAddr().(*net.UDPAddr)

	for _, r := range reps {
		r := r
		waitFor(t, "replica "+r.name+" to register", func() bool {
			r.join(frontAddr) // UDP: announce until the router has us
			_, ok := router.MemberFleetSeq(r.name)
			return ok
		})
	}
	waitFor(t, "3 live members", func() bool { return router.Live() == 3 })

	// Sustained client load through the router for the whole bench. Every
	// request must be answered with a well-formed accumulator frame;
	// degraded NACKs are retried by exchange (they are the protocol's
	// documented backpressure), but a request that exhausts its attempts is
	// request loss and fails the bench.
	var (
		loadWG   sync.WaitGroup
		answered atomic.Int64
		stopLoad = make(chan struct{})
		loadErrs = make(chan error, clients)
	)
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
			src := rng.New(uint64(1000 + c))
			for i := 0; ; i++ {
				select {
				case <-stopLoad:
					return
				default:
				}
				id := uint32(c*1_000_000 + i + 1)
				req := &airproto.Frame{ID: id, Data: testSymbols(d.InputLen(), uint64(id))}
				resp, err := exchange(conn, req, 2*time.Second, 0, 20*time.Millisecond, 5, src)
				if err != nil {
					loadErrs <- fmt.Errorf("client %d request %d lost: %w", c, id, err)
					return
				}
				if len(resp.Data) != d.Classes() {
					loadErrs <- fmt.Errorf("client %d request %d: %d accumulators, want %d",
						c, id, len(resp.Data), d.Classes())
					return
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
	phaseFloor(int64(clients)) // the fleet is serving before the first publish

	// Phase 1: replicate a good epoch fleet-wide.
	if err := router.Publish(sealedEpoch(d, 1)); err != nil {
		t.Fatalf("publish of a healthy epoch failed: %v", err)
	}
	tid1 := router.CurrentTid()
	if tid1 == 0 {
		t.Fatal("committed publish left CurrentTid at 0")
	}
	for _, r := range reps {
		r := r
		waitFor(t, "replica "+r.name+" at fleet seq", func() bool {
			return r.srv.fleetAgent.FleetSeq() == uint64(tid1)
		})
	}
	phaseFloor(int64(clients * perPhase))

	// Phase 2: a sabotaged epoch (different random weights) must be refused
	// by the canary's held-out agreement check, and the whole fleet — the
	// canary that briefly applied it included — must roll back and converge
	// on a FRESH fleet sequence.
	if err := router.Publish(sealedEpoch(sabotagedDeployment(t, 99), 2)); err == nil {
		t.Fatal("sabotaged epoch survived the canary gate")
	}
	rtid := router.CurrentTid()
	if rtid <= tid1 {
		t.Fatalf("rollback did not advance the fleet sequence (%d -> %d)", tid1, rtid)
	}
	for _, r := range reps {
		if got := r.srv.fleetAgent.FleetSeq(); got != uint64(rtid) {
			t.Fatalf("replica %s at fleet seq %d after rollback, fleet at %d", r.name, got, rtid)
		}
	}
	phaseFloor(int64(2 * clients * perPhase))

	// Phase 3: kill a replica and publish while its corpse is still in the
	// membership. The publish evicts it when its transfer dies (or, if the
	// corpse drew the canary slot, fails fast and succeeds on a retry once
	// the heartbeats have evicted it) and commits on the survivors.
	victim := reps[2]
	victim.stop()
	var pubErr error
	waitFor(t, "post-kill publish to commit", func() bool {
		pubErr = router.Publish(sealedEpoch(d, 3))
		return pubErr == nil
	})
	waitFor(t, "victim eviction", func() bool { return router.Live() == 2 })
	tid3 := router.CurrentTid()
	for _, r := range reps[:2] {
		r := r
		waitFor(t, "survivor "+r.name+" convergence", func() bool {
			return r.srv.fleetAgent.FleetSeq() == uint64(tid3)
		})
	}
	phaseFloor(int64(3 * clients * perPhase))

	// Phase 4: a replacement replica joins cold (fleet seq 0) and must be
	// caught up to the latest committed epoch by anti-entropy, restoring
	// full strength.
	fresh := startFleetReplica(t, d, probes, 31)
	defer fresh.stop()
	waitFor(t, "replacement registration", func() bool {
		fresh.join(frontAddr)
		_, ok := router.MemberFleetSeq(fresh.name)
		return ok
	})
	waitFor(t, "replacement catch-up", func() bool {
		return fresh.srv.fleetAgent.FleetSeq() == uint64(tid3)
	})
	waitFor(t, "3 live members again", func() bool { return router.Live() == 3 })
	phaseFloor(int64(4 * clients * perPhase))

	close(stopLoad)
	loadWG.Wait()
	close(loadErrs)
	for err := range loadErrs {
		t.Error(err)
	}
	t.Logf("fleetbench: %d requests answered across kill/restart/rollback, fleet at seq %d with %d live replicas",
		answered.Load(), router.CurrentTid(), router.Live())

	for _, r := range reps[:2] {
		r.stop()
	}
}

// TestFleetCoordinatorRestartRepublishes is the coordinator-restart
// regression: a new router incarnation restarts its transfer sequence from
// 1, so its first publish reuses IDs the replicas have cached verdicts for
// AND leaves the replicas reporting fleet sequences numerically >= the new
// router's. Both used to silently break convergence — the replicas
// answered the new transfer from the stale ack cache without applying, and
// anti-entropy saw nothing to repair. The incarnation nonce must defeat
// both: the second router's publish must actually apply on every replica.
func TestFleetCoordinatorRestartRepublishes(t *testing.T) {
	d := testDeployment(t, 11)
	reps := make([]*fleetReplica, 2)
	for i := range reps {
		reps[i] = startFleetReplica(t, d, nil, uint64(40+i))
	}
	defer func() {
		for _, r := range reps {
			r.stop()
		}
	}()
	seedReplicas := func() []fleet.Replica {
		var rs []fleet.Replica
		for _, r := range reps {
			rs = append(rs, fleet.Replica{Addr: r.addr.String()})
		}
		return rs
	}
	newRouter := func(seed uint64) *fleet.Router {
		t.Helper()
		router, err := fleet.NewRouter(fleet.Config{
			Replicas:       seedReplicas(),
			ChunkBytes:     512,
			PublishTimeout: 150 * time.Millisecond,
			PublishRetries: 4,
			Seed:           seed,
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return router
	}

	// First incarnation commits transfer 1.
	routerA := newRouter(7)
	if err := routerA.Publish(sealedEpoch(d, 1)); err != nil {
		t.Fatalf("incarnation A publish failed: %v", err)
	}
	tidA, nonceA := routerA.CurrentTid(), routerA.Incarnation()
	for _, r := range reps {
		if seq, nonce := r.srv.fleetAgent.FleetVersion(); seq != uint64(tidA) || nonce != nonceA {
			t.Fatalf("replica %s at version (%d, %#x) after A's publish, want (%d, %#x)",
				r.name, seq, nonce, tidA, nonceA)
		}
	}
	swaps := make([]int64, len(reps))
	for i, r := range reps {
		swaps[i] = r.srv.swaps.Load()
	}
	routerA.Close()

	// The restarted coordinator reuses transfer ID 1 for a DIFFERENT epoch.
	// Every replica must reassemble and apply it — a cached tid-1 verdict
	// answered without applying leaves the fleet silently diverged.
	routerB := newRouter(8)
	defer routerB.Close()
	if routerB.Incarnation() == nonceA {
		t.Fatalf("independent incarnations drew the same nonce %#x", nonceA)
	}
	if err := routerB.Publish(sealedEpoch(d, 2)); err != nil {
		t.Fatalf("incarnation B publish failed: %v", err)
	}
	if routerB.CurrentTid() != tidA {
		t.Logf("note: B's first transfer is %d, A's was %d", routerB.CurrentTid(), tidA)
	}
	for i, r := range reps {
		seq, nonce := r.srv.fleetAgent.FleetVersion()
		if seq != uint64(routerB.CurrentTid()) || nonce != routerB.Incarnation() {
			t.Fatalf("replica %s at version (%d, %#x) after B's publish, want (%d, %#x)",
				r.name, seq, nonce, routerB.CurrentTid(), routerB.Incarnation())
		}
		if got := r.srv.swaps.Load(); got <= swaps[i] {
			t.Fatalf("replica %s swap count stuck at %d: B's epoch was answered from the stale ack cache",
				r.name, got)
		}
	}
}
