package main

import (
	"net"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/airproto"
	"repro/internal/obs"
	"repro/internal/rng"
)

// sendFrame marshals and writes one frame on a connected UDP socket.
func sendFrame(t *testing.T, conn *net.UDPConn, f *airproto.Frame) {
	t.Helper()
	out, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
}

// readFrame reads one frame, failing the test on timeout.
func readFrame(t *testing.T, conn *net.UDPConn) *airproto.Frame {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 65535)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	f, err := airproto.Unmarshal(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestOverloadShedExpireAndControlPlane walks the three overload answers a
// server gives — queue-full StatusDegraded, deadline StatusExpired at
// dequeue, and brownout StatusRetryAfter — with the obs monitor armed, and
// pins the invariants the chaos gate leans on. Run under -race: the shed
// path, the expiry path, and the admission controller all touch state the
// read loop and workers share.
func TestOverloadShedExpireAndControlPlane(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	shed0, brown0, exp0 := shedCount.Value(), brownoutShedCount.Value(), expiredCount.Value()
	depth0 := queueDepth.Value()

	d := testDeployment(t, 11)
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	ac := admission.New(50 * time.Millisecond)
	srv := newAirServer(serverConfig{
		deployment: d,
		workers:    1,
		batch:      1,
		queue:      2,
		admit:      ac,
		admitEvery: time.Hour, // feedback loop never ticks; the test drives the fraction
		sessionSrc: rng.New(99),
		logf:       t.Logf,
		preInfer: func() {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-gate
		},
	})
	addr, shutdown := startServer(t, srv)
	defer shutdown()
	conn := dialServer(t, addr)

	symbols := func(id uint32) []complex128 { return testSymbols(d.InputLen(), uint64(id)) }

	// Occupy the single worker: request 1 is dequeued and pinned inside
	// preInfer, leaving the queue empty and the worker busy.
	sendFrame(t, conn, &airproto.Frame{ID: 1, Data: symbols(1)})
	<-entered

	// Fill the queue with two deadline-stamped requests. Their 20ms budget
	// will be long dead by the time the worker unblocks — the expiry-at-
	// dequeue path.
	for id := uint32(2); id <= 3; id++ {
		req := &airproto.Frame{ID: id, Data: symbols(id)}
		req.SetDeadline(20 * time.Millisecond)
		sendFrame(t, conn, req)
	}
	waitFor(t, "queue to hold 2 requests", func() bool { return queueDepth.Value() == depth0+2 })

	// Queue full: the next data frames shed with StatusDegraded. These never
	// consume an admission ordinal — the brownout counter must stay 0.
	for id := uint32(4); id <= 5; id++ {
		sendFrame(t, conn, &airproto.Frame{ID: id, Data: symbols(id)})
		nack := readFrame(t, conn)
		if !nack.IsNack() || nack.Code != airproto.StatusDegraded || nack.ID != id {
			t.Fatalf("queue-full request %d answered with kind=%d code=%d", id, nack.Kind, nack.Code)
		}
	}
	if got := srv.shed.Load(); got != 2 {
		t.Fatalf("shed %d after 2 queue-full rejections", got)
	}
	if got := srv.brownout.Load(); got != 0 {
		t.Fatalf("brownout %d before any admission shedding", got)
	}

	// Control plane is pre-admission AND pre-queue: a stats fetch answers
	// even with the queue full and the worker pinned.
	sendFrame(t, conn, &airproto.Frame{Kind: airproto.KindStats, ID: 90})
	stats := readFrame(t, conn)
	if stats.Kind != airproto.KindStats || len(stats.Data) < airproto.StatsVectorLen {
		t.Fatalf("stats under full queue answered with kind=%d", stats.Kind)
	}
	if got := int64(real(stats.Data[airproto.StatShed])); got != 2 {
		t.Fatalf("StatShed reports %d, want 2", got)
	}

	// Let the deadline budgets die, then release the worker. Request 1 (no
	// deadline) completes; requests 2 and 3 expire at dequeue with a
	// non-negative lateness, spending zero inference on them.
	time.Sleep(30 * time.Millisecond)
	close(gate)
	got := map[uint32]*airproto.Frame{}
	for i := 0; i < 3; i++ {
		f := readFrame(t, conn)
		got[f.ID] = f
	}
	if f := got[1]; f == nil || f.IsNack() || len(f.Data) != d.Classes() {
		t.Fatalf("undeadlined request answered with %+v", got[1])
	}
	for id := uint32(2); id <= 3; id++ {
		f := got[id]
		if f == nil || !f.IsNack() || f.Code != airproto.StatusExpired {
			t.Fatalf("expired request %d answered with %+v", id, f)
		}
		if f.Label < 0 {
			t.Fatalf("expired request %d reports negative lateness %d", id, f.Label)
		}
	}
	if got := srv.expired.Load(); got != 2 {
		t.Fatalf("expired %d after 2 dead-budget dequeues", got)
	}
	waitFor(t, "queue depth gauge to drain", func() bool { return queueDepth.Value() == depth0 })

	// Brownout at the 95% ceiling: data frames mostly shed with an explicit
	// RetryAfter hint, but NOTHING on the control plane ever does — stats
	// and fleet heartbeats answer through the deepest brownout.
	ac.SetFraction(1) // clamps to the 95% ceiling
	var retryAfters, answered int
	for id := uint32(100); retryAfters < 10; id++ {
		if id >= 400 {
			t.Fatalf("95%% brownout shed only %d of %d requests", retryAfters, id-100)
		}
		sendFrame(t, conn, &airproto.Frame{ID: id, Data: symbols(id)})
		f := readFrame(t, conn)
		switch {
		case f.IsNack() && f.Code == airproto.StatusRetryAfter:
			retryAfters++
			if f.RetryAfterHint() <= 0 {
				t.Fatalf("RetryAfter NACK %d carries no hint (label %d)", f.ID, f.Label)
			}
		case !f.IsNack():
			answered++ // the always-admitted trickle
		default:
			t.Fatalf("brownout answered request %d with status %d", f.ID, f.Code)
		}
	}
	t.Logf("brownout: %d RetryAfter NACKs, %d admitted", retryAfters, answered)
	if got := srv.brownout.Load(); got != int64(retryAfters) {
		t.Fatalf("brownout counter %d, %d RetryAfter NACKs on the wire", got, retryAfters)
	}
	if got := srv.shed.Load(); got != int64(retryAfters)+2 {
		t.Fatalf("shed counter %d, want brownout %d + queue-full 2", got, retryAfters)
	}
	sendFrame(t, conn, &airproto.Frame{Kind: airproto.KindStats, ID: 91})
	stats = readFrame(t, conn)
	if stats.Kind != airproto.KindStats {
		t.Fatalf("stats during brownout answered with kind=%d code=%d", stats.Kind, stats.Code)
	}
	hb, err := airproto.Heartbeat(7).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(hb); err != nil {
		t.Fatal(err)
	}
	if f := readFrame(t, conn); f.Kind != airproto.KindHeartbeat {
		t.Fatalf("heartbeat during brownout answered with kind=%d", f.Kind)
	}

	// Snap open: clients see data again, and the obs mirrors agree with the
	// per-server atomics — the monitor the chaos gate and the sidecar read.
	ac.SetFraction(0)
	sendFrame(t, conn, &airproto.Frame{ID: 500, Data: symbols(500)})
	if f := readFrame(t, conn); f.IsNack() {
		t.Fatalf("request after snap-open NACKed with status %d", f.Code)
	}
	if dv := shedCount.Value() - shed0; dv != srv.shed.Load() {
		t.Fatalf("serve.shed advanced %d, atomic %d", dv, srv.shed.Load())
	}
	if dv := brownoutShedCount.Value() - brown0; dv != srv.brownout.Load() {
		t.Fatalf("serve.brownout_shed advanced %d, atomic %d", dv, srv.brownout.Load())
	}
	if dv := expiredCount.Value() - exp0; dv != srv.expired.Load() {
		t.Fatalf("serve.expired advanced %d, atomic %d", dv, srv.expired.Load())
	}
}

// TestAdmissionFeedbackLoop drives the p99 → AIMD loop for real: with obs
// armed and an unreachable SLO, serving slow-looking traffic must push the
// controller's shed fraction above zero without any manual SetFraction —
// the live-histogram wiring, not the controller math (admission's own tests
// cover that).
func TestAdmissionFeedbackLoop(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)

	d := testDeployment(t, 11)
	ac := admission.New(time.Nanosecond) // every real request is over-SLO
	srv := newAirServer(serverConfig{
		deployment: d,
		workers:    2,
		queue:      64,
		admit:      ac,
		admitEvery: 2 * time.Millisecond,
		sessionSrc: rng.New(99),
		logf:       t.Logf,
	})
	addr, shutdown := startServer(t, srv)
	defer shutdown()
	conn := dialServer(t, addr)

	deadline := time.Now().Add(10 * time.Second)
	for id := uint32(1); ac.Fraction() == 0; id++ {
		if time.Now().After(deadline) {
			t.Fatal("feedback loop never engaged the brownout")
		}
		req := &airproto.Frame{ID: id, Data: testSymbols(d.InputLen(), uint64(id))}
		sendFrame(t, conn, req)
		readFrame(t, conn) // data or RetryAfter — either feeds the histogram's tail
	}
	t.Logf("brownout engaged at fraction %.4f", ac.Fraction())
}

// TestDefaultQueueHoldsAStallBurst: with both workers held, as after a host
// stall, a burst of 100 requests to a server at the default queue depth is
// queued and answered, never shed with StatusDegraded.
func TestDefaultQueueHoldsAStallBurst(t *testing.T) {
	d := testDeployment(t, 11)
	gate := make(chan struct{})
	entered := make(chan struct{}, 2)
	srv := newAirServer(serverConfig{
		deployment: d,
		workers:    2,
		sessionSrc: rng.New(99),
		logf:       t.Logf,
		preInfer: func() {
			select {
			case entered <- struct{}{}:
				<-gate // only the first request each worker takes is held
			default:
			}
		},
	})
	addr, shutdown := startServer(t, srv)
	defer shutdown()
	conn := dialServer(t, addr)
	const burst = 100
	depth0 := queueDepth.Value()
	for id := uint32(1); id <= 2; id++ {
		sendFrame(t, conn, &airproto.Frame{ID: id, Data: testSymbols(d.InputLen(), uint64(id))})
	}
	<-entered
	<-entered
	for id := uint32(3); id < 3+burst; id++ {
		sendFrame(t, conn, &airproto.Frame{ID: id, Data: testSymbols(d.InputLen(), uint64(id))})
	}
	waitFor(t, "the burst to be queued or shed", func() bool {
		return queueDepth.Value()-depth0+float64(srv.shed.Load()) == burst
	})
	close(gate)
	for i := 0; i < 2+burst; i++ {
		if f := readFrame(t, conn); f.IsNack() {
			t.Fatalf("request %d of a %d-request burst answered NACK code %d, want a result", f.ID, burst, f.Code)
		}
	}
}
