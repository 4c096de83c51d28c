package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/airproto"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/rng"
)

// TestMetricsSidecarReportsServing is the observability acceptance test:
// with instrumentation enabled, a served request load must show up in the
// sidecar — non-zero request-latency histogram counts, served/heal/swap
// counters, a drained queue gauge — and every sidecar endpoint must answer.
func TestMetricsSidecarReportsServing(t *testing.T) {
	obs.Default().Reset()
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)

	d := testDeployment(t, 31)
	srv := newAirServer(serverConfig{deployment: d, workers: 2, sessionSrc: rng.New(9), logf: t.Logf})
	addr, shutdown := startServer(t, srv)
	defer shutdown()
	conn := dialServer(t, addr)

	const requests = 10
	for i := 1; i <= requests; i++ {
		req := &airproto.Frame{ID: uint32(i), Data: testSymbols(d.InputLen(), uint64(i))}
		resp, err := exchange(conn, req, 5*time.Second, 0, time.Millisecond, 3, rng.New(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.IsNack() {
			t.Fatalf("request %d NACKed with status %d", i, resp.Code)
		}
	}
	srv.heal()

	snap := obs.Default().Snapshot()
	if got := snap.Histograms["serve.request.seconds"].Count; got < requests {
		t.Fatalf("serve.request.seconds count = %d, want >= %d", got, requests)
	}
	if got := snap.Counters["serve.served"]; got < requests {
		t.Fatalf("serve.served = %d, want >= %d", got, requests)
	}
	if got := snap.Counters["serve.heals"]; got < 1 {
		t.Fatalf("serve.heals = %d, want >= 1", got)
	}
	if got := snap.Counters["serve.swaps"]; got < 1 {
		t.Fatalf("serve.swaps = %d, want >= 1", got)
	}
	if got := snap.Counters["ota.inferences"]; got < requests {
		t.Fatalf("ota.inferences = %d, want >= %d", got, requests)
	}
	if got := snap.Gauges["serve.queue.depth"]; got != 0 {
		t.Fatalf("serve.queue.depth = %v after the load drained, want 0", got)
	}

	mux := metricsMux()
	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, rec.Code)
		}
		return rec
	}
	text := get("/metrics").Body.String()
	for _, want := range []string{"serve.request.seconds", "serve.served", "serve.queue.depth"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, text)
		}
	}
	var parsed obs.Snapshot
	if err := json.Unmarshal(get("/metrics.json").Body.Bytes(), &parsed); err != nil {
		t.Fatalf("/metrics.json does not parse: %v", err)
	}
	if parsed.Counters["serve.served"] < requests {
		t.Fatalf("/metrics.json serve.served = %d, want >= %d", parsed.Counters["serve.served"], requests)
	}
	if !strings.Contains(get("/debug/vars").Body.String(), "metaai") {
		t.Fatal("/debug/vars missing the metaai expvar")
	}
	get("/debug/pprof/")
}

// TestSnapshotSourceCountsWithObsDisabled: with timing off (no
// -metrics-addr), the snapshot a replica piggybacks on its heartbeat
// replies still decodes and carries its serve.served count, so a router's
// KindStats sums are real for every fleet.
func TestSnapshotSourceCountsWithObsDisabled(t *testing.T) {
	obs.SetEnabled(false)
	servedCount.Add(3)
	want := servedCount.Value()
	agent := fleet.NewAgent(nil)
	agent.SetSnapshotSource(snapshotSource)
	reply, ok := agent.HandleFrame(airproto.Heartbeat(7))
	if !ok || reply.Snapshot() == nil {
		t.Fatal("heartbeat reply carries no snapshot with obs disabled")
	}
	snap, err := obs.DecodeSnapshot(reply.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["serve.served"]; got != want {
		t.Fatalf("piggybacked serve.served = %d, want %d", got, want)
	}
}

// TestHeartbeatSnapshotIsFresh: every heartbeat reply carries the counters
// as they stand when it is answered, so a router's KindStats sums trail a
// replica by at most one heartbeat period.
func TestHeartbeatSnapshotIsFresh(t *testing.T) {
	agent := fleet.NewAgent(nil)
	agent.SetSnapshotSource(snapshotSource)
	served := func(id uint32) int64 {
		t.Helper()
		reply, ok := agent.HandleFrame(airproto.Heartbeat(id))
		if !ok || reply.Snapshot() == nil {
			t.Fatal("heartbeat reply carries no snapshot")
		}
		snap, err := obs.DecodeSnapshot(reply.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return snap.Counters["serve.served"]
	}
	first := served(1)
	servedCount.Inc()
	if got := served(2); got != first+1 {
		t.Fatalf("second heartbeat reply carries serve.served %d, want %d", got, first+1)
	}
}
