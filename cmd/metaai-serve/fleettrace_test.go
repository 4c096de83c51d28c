package main

import (
	"bytes"
	"encoding/json"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/airproto"
	"repro/internal/checkpoint"
	"repro/internal/fleet"
	"repro/internal/netchaos"
	"repro/internal/obs/trace"
	"repro/internal/ota"
	"repro/internal/rng"
)

// startTracedReplica starts a fleet replica with its OWN tracer (its own
// retention ring, the way a separate process naturally has one) and an
// adjustable per-request delay. The delay runs in the worker just before
// inference, so a slowed replica still answers heartbeats promptly — it is
// slow, not dead, which is exactly the condition hedging exists for.
func startTracedReplica(t *testing.T, d *ota.Deployment, seed uint64, tracer *trace.Tracer, delay *atomic.Int64) *fleetReplica {
	t.Helper()
	srv := newAirServer(serverConfig{
		deployment: d,
		workers:    2,
		queue:      128,
		meta:       checkpoint.Meta{Dataset: "synthetic", Seed: seed},
		sessionSrc: rng.New(seed),
		logf:       t.Logf,
		tracer:     tracer,
		preInfer: func() {
			if d := delay.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
		},
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

// registerReplicas joins every replica to the router and waits for full
// liveness. join is a UDP datagram, so it re-announces until the router
// acknowledges membership (the front socket may be chaos-wrapped).
func registerReplicas(t *testing.T, router *fleet.Router, frontAddr *net.UDPAddr, reps []*fleetReplica) {
	t.Helper()
	for _, r := range reps {
		r := r
		waitFor(t, "replica "+r.name+" to register", func() bool {
			r.join(frontAddr)
			_, ok := router.MemberFleetSeq(r.name)
			return ok
		})
	}
	waitFor(t, "all replicas live", func() bool { return router.Live() == len(reps) })
}

// TestFleetStitchedTraceEndToEnd is the cross-hop tracing acceptance test:
// a client request hedged across two replicas through a real router must
// yield ONE stitched Chrome-JSON document when the trace is fetched at the
// router — the router's fleet.request root, both fleet.hop attempts (the
// loser closed as cancelled), and each replica's serve.request span
// parented under its own hop. Router and replicas run in-process but each
// owns a separate tracer ring, so the stitch genuinely crosses the UDP
// fan-out instead of reading one shared ring. The normalized export is
// fetched twice and pinned byte-identical — the stitchgate contract.
func TestFleetStitchedTraceEndToEnd(t *testing.T) {
	d := testDeployment(t, 11)

	mkTracer := func() *trace.Tracer {
		tr := &trace.Tracer{}
		tr.Enable(64, 1.0) // retain everything: the fetch must be deterministic
		return tr
	}
	repTracers := []*trace.Tracer{mkTracer(), mkTracer()}
	routerTracer := mkTracer()

	delays := []*atomic.Int64{new(atomic.Int64), new(atomic.Int64)}
	reps := []*fleetReplica{
		startTracedReplica(t, d, 21, repTracers[0], delays[0]),
		startTracedReplica(t, d, 22, repTracers[1], delays[1]),
	}
	defer func() {
		for _, r := range reps {
			r.stop()
		}
	}()

	router, err := fleet.NewRouter(fleet.Config{
		HeartbeatEvery:   25 * time.Millisecond,
		HeartbeatTimeout: 250 * time.Millisecond,
		ForwardTimeout:   4 * time.Second,
		HedgeAfter:       60 * time.Millisecond,
		MaxAttempts:      2,
		Seed:             7,
		Tracer:           routerTracer,
		Logf:             t.Logf,
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
	registerReplicas(t, router, frontAddr, reps)

	conn := dialServer(t, frontAddr)
	src := rng.New(5)

	// Warmup request: the consistent-hash preference list keys on the
	// client address, so whichever replica served it is THIS socket's
	// primary — the one to slow down so the real request hedges.
	warm := &airproto.Frame{ID: 1, Data: testSymbols(d.InputLen(), 1)}
	if _, err := exchange(conn, warm, 2*time.Second, 0, 20*time.Millisecond, 1, src); err != nil {
		t.Fatal(err)
	}
	awaitServed(t, func() int64 { return reps[0].srv.served.Load() + reps[1].srv.served.Load() }, 1)
	primary := 0
	if reps[1].srv.served.Load() > 0 {
		primary = 1
	}
	secondary := 1 - primary
	if got := reps[primary].srv.served.Load(); got != 1 {
		t.Fatalf("warmup served %d requests on the primary, want 1", got)
	}
	delays[primary].Store(int64(250 * time.Millisecond))

	// The real request: the slow primary sits on it past HedgeAfter, the
	// router launches the secondary, the secondary's reply wins. Single
	// attempt so exactly one forward (fwdSeq 2) carries this request.
	const reqID = 42
	req := &airproto.Frame{ID: reqID, Data: testSymbols(d.InputLen(), reqID)}
	resp, err := exchange(conn, req, 2*time.Second, 0, 20*time.Millisecond, 1, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Data) != d.Classes() {
		t.Fatalf("hedged request answered with %d accumulators, want %d", len(resp.Data), d.Classes())
	}

	// The forward ordinal is deterministic: warmup was this router's first
	// forward, the hedged request its second.
	tid := trace.Derive(0xf1ee70b5, uint64(reqID), 2)

	// Wait until every segment is retained: the cancelled primary still
	// finishes serving (and its serve.request span) 250ms later, and the
	// stitched export must already include it on the FIRST fetch or the
	// byte-identity pin below would be satisfied only by luck.
	waitFor(t, "all three trace segments retained", func() bool {
		for _, tr := range []*trace.Tracer{routerTracer, repTracers[0], repTracers[1]} {
			if seg, _ := tr.Get(tid); seg == nil {
				return false
			}
		}
		return true
	})

	fetch := func() []byte {
		t.Helper()
		treq := airproto.TraceRequest(uint64(tid))
		treq.Code = airproto.TraceFlagNormalize
		resp, err := exchange(conn, treq, 2*time.Second, 0, 20*time.Millisecond, 3, src)
		if err != nil {
			t.Fatalf("stitched trace fetch: %v", err)
		}
		if resp.Kind != airproto.KindTrace || resp.IsNack() {
			t.Fatalf("stitched trace fetch answered kind %d code %d", resp.Kind, resp.Code)
		}
		if resp.Code == airproto.StatusNoTrace {
			t.Fatal("stitched trace was truncated")
		}
		return airproto.UnpackBytes(resp.Data, int(resp.Label))
	}
	doc := fetch()
	if again := fetch(); !bytes.Equal(doc, again) {
		t.Fatalf("normalized stitched exports differ across fetches:\n%s\n--- vs ---\n%s", doc, again)
	}

	// ONE document: the stitch splices the replica segments into the root's
	// traceEvents array rather than concatenating documents.
	if n := strings.Count(string(doc), `"traceEvents":[`); n != 1 {
		t.Fatalf("stitched export has %d traceEvents arrays, want 1:\n%s", n, doc)
	}
	var parsed struct {
		Metadata struct {
			TraceID string `json:"trace_id"`
			Name    string `json:"name"`
		} `json:"metadata"`
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		t.Fatalf("stitched export does not parse: %v\n%s", err, doc)
	}
	if parsed.Metadata.Name != "fleet.request" {
		t.Fatalf("stitched trace is anchored on %q, want the router's fleet.request", parsed.Metadata.Name)
	}
	if parsed.Metadata.TraceID != tid.String() {
		t.Fatalf("stitched trace id %s, want %s", parsed.Metadata.TraceID, tid)
	}

	var rootID string
	hops := make(map[string]map[string]any)     // span_id -> args
	outcomes := make(map[string]map[string]any) // outcome -> args
	var serves []map[string]any
	for _, ev := range parsed.TraceEvents {
		switch ev.Name {
		case "fleet.request":
			if rootID != "" {
				t.Fatal("stitched export carries two fleet.request roots")
			}
			rootID, _ = ev.Args["span_id"].(string)
		case "fleet.hop":
			id, _ := ev.Args["span_id"].(string)
			hops[id] = ev.Args
			outcome, _ := ev.Args["outcome"].(string)
			outcomes[outcome] = ev.Args
		case "serve.request":
			serves = append(serves, ev.Args)
		}
	}
	if rootID == "" {
		t.Fatalf("no fleet.request root span in the stitched export:\n%s", doc)
	}
	if len(hops) != 2 {
		t.Fatalf("%d fleet.hop spans, want 2 (primary + hedge):\n%s", len(hops), doc)
	}
	for id, args := range hops {
		if args["parent_id"] != rootID {
			t.Fatalf("hop %s parents under %v, want the root %s", id, args["parent_id"], rootID)
		}
	}
	won, cancelled := outcomes["won"], outcomes["cancelled"]
	if won == nil || cancelled == nil {
		t.Fatalf("hop outcomes %v, want one won and one cancelled", outcomes)
	}
	if won["replica"] != reps[secondary].name {
		t.Fatalf("hedge winner was %v, want the fast secondary %s", won["replica"], reps[secondary].name)
	}
	if cancelled["replica"] != reps[primary].name {
		t.Fatalf("cancelled hop was %v, want the slowed primary %s", cancelled["replica"], reps[primary].name)
	}
	if len(serves) != 2 {
		t.Fatalf("%d serve.request spans, want one per replica:\n%s", len(serves), doc)
	}
	parents := make(map[string]bool)
	for _, s := range serves {
		p, _ := s["parent_id"].(string)
		if _, ok := hops[p]; !ok {
			t.Fatalf("a serve.request parents under %q, which is not a fleet.hop span", p)
		}
		parents[p] = true
	}
	if len(parents) != 2 {
		t.Fatal("both serve.request spans parent under the same hop")
	}
	wonID, _ := won["span_id"].(string)
	if !parents[wonID] {
		t.Fatal("the winning hop has no serve.request child: the winner's replica segment is missing")
	}
}

// TestRouterControlPlaneSurvivesChaosAndSaturation is the -chaos-rate
// control-plane regression: with the client-facing socket under seeded
// packet chaos AND the data plane saturated past the router's inflight cap
// (so data frames are being shed with StatusDegraded), KindStats and
// KindTrace requests at the router must still be answered — they are
// handled outside the admission path, and an operator reading a drowning
// fleet's vitals must never compete with the data plane.
func TestRouterControlPlaneSurvivesChaosAndSaturation(t *testing.T) {
	d := testDeployment(t, 11)
	routerTracer := &trace.Tracer{}
	routerTracer.Enable(64, 1.0)

	delay := new(atomic.Int64)
	rep := startTracedReplica(t, d, 23, &trace.Tracer{}, delay)
	defer rep.stop()

	router, err := fleet.NewRouter(fleet.Config{
		HeartbeatEvery:     25 * time.Millisecond,
		HeartbeatTimeout:   250 * time.Millisecond,
		ForwardTimeout:     2 * time.Second,
		HedgeAfter:         500 * time.Millisecond,
		MaxAttempts:        1,
		InflightPerReplica: 1, // one forward in flight saturates the router
		Seed:               9,
		Tracer:             routerTracer,
		Logf:               t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	udpFront, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer udpFront.Close()
	// The same wrapping metaai-fleet -chaos-rate applies: seeded packet
	// fates on everything crossing the client-facing socket, both ways.
	front := netchaos.Wrap(udpFront, netchaos.Config{
		Seed:     9,
		Inbound:  netchaos.Mix(0.25),
		Outbound: netchaos.Mix(0.25),
	})
	go router.Serve(front)
	frontAddr := udpFront.LocalAddr().(*net.UDPAddr)
	registerReplicas(t, router, frontAddr, []*fleetReplica{rep})

	conn := dialServer(t, frontAddr)
	src := rng.New(6)

	// One clean request through the chaos front so the router retains a
	// fleet.request trace to fetch later. Chaos may eat attempts (and each
	// arrival bumps the forward ordinal), so the trace ID is read from the
	// router's ring rather than derived.
	warm := &airproto.Frame{ID: 3, Data: testSymbols(d.InputLen(), 3)}
	if _, err := exchange(conn, warm, time.Second, 0, 20*time.Millisecond, 8, src); err != nil {
		t.Fatal(err)
	}
	var tid trace.ID
	waitFor(t, "a retained fleet.request trace", func() bool {
		sums := routerTracer.List()
		if len(sums) == 0 {
			return false
		}
		tid = sums[0].ID
		return true
	})

	// Saturate: the replica sits on every data frame for 400ms while the
	// router admits exactly one forward at a time, so concurrent pinner
	// clients keep the slot occupied and surplus data frames shed.
	delay.Store(int64(400 * time.Millisecond))
	stopLoad := make(chan struct{})
	defer close(stopLoad)
	for c := 0; c < 3; c++ {
		c := c
		go func() {
			pconn, err := net.DialUDP("udp", nil, frontAddr)
			if err != nil {
				return
			}
			defer pconn.Close()
			psrc := rng.New(uint64(100 + c))
			for i := 0; ; i++ {
				select {
				case <-stopLoad:
					return
				default:
				}
				id := uint32(c*1_000_000 + i + 10)
				req := &airproto.Frame{ID: id, Data: testSymbols(d.InputLen(), uint64(id))}
				exchange(pconn, req, 600*time.Millisecond, 0, 10*time.Millisecond, 1, psrc)
			}
		}()
	}

	// Under saturation and chaos, stats exchanges must keep succeeding and
	// must eventually REPORT the data-plane shedding — the proof both that
	// the control plane is never shed and that the data plane was.
	statsConn := dialServer(t, frontAddr)
	statsSrc := rng.New(8)
	var sawShed bool
	deadline := time.Now().Add(15 * time.Second)
	for probe := uint32(200); !sawShed; probe++ {
		if time.Now().After(deadline) {
			t.Fatal("stats never reported data-plane shedding under saturation")
		}
		legacy, fleetStats, err := serverStats(statsConn, probe, 2*time.Second, 0, statsSrc)
		if err != nil {
			// Chaos can still eat every retry of one exchange; what must
			// NEVER happen is a StatusDegraded shed of a stats request,
			// which exchange surfaces verbatim.
			if strings.Contains(err.Error(), "degraded") {
				t.Fatalf("a KindStats request was load-shed at the router: %v", err)
			}
			continue
		}
		if fleetStats == nil {
			t.Fatalf("router answered stats without the fleet extension: %v", legacy)
		}
		if shed, ok := fleetStats["shed"].(int64); ok && shed > 0 {
			sawShed = true
		}
	}

	// And a trace fetch through the same drowning front must still answer.
	treq := airproto.TraceRequest(uint64(tid))
	treq.Code = airproto.TraceFlagNormalize
	resp, err := exchange(statsConn, treq, 2*time.Second, 0, 20*time.Millisecond, 8, statsSrc)
	if err != nil {
		t.Fatalf("trace fetch under chaos + saturation: %v", err)
	}
	if resp.Kind != airproto.KindTrace || resp.IsNack() {
		t.Fatalf("trace fetch answered kind %d code %d", resp.Kind, resp.Code)
	}
	if body := airproto.UnpackBytes(resp.Data, int(resp.Label)); !bytes.Contains(body, []byte(`"fleet.request"`)) {
		t.Fatalf("trace fetched under chaos lacks the fleet.request root:\n%s", body)
	}
}
