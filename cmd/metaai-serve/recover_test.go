package main

import (
	"context"
	"math"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/airproto"
	"repro/internal/checkpoint"
	"repro/internal/cplx"
	"repro/internal/faults"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/ota"
	"repro/internal/rng"
)

// serveAccumBits runs a deterministic session over n synthetic inputs and
// returns the raw IEEE-754 bit patterns of every accumulator. Two
// deployments that produce equal bit vectors are indistinguishable to every
// client — the recovery acceptance criterion.
func serveAccumBits(t *testing.T, d *ota.Deployment, n int) []uint64 {
	t.Helper()
	sess := d.SessionFromSeed(0xb175)
	src := rng.New(0x9e0)
	var bits []uint64
	for k := 0; k < n; k++ {
		x := make([]complex128, d.InputLen())
		for i := range x {
			x[i] = cplx.Expi(src.Phase())
		}
		for _, v := range sess.Accumulate(x) {
			bits = append(bits, math.Float64bits(real(v)), math.Float64bits(imag(v)))
		}
	}
	return bits
}

func assertSameBits(t *testing.T, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("accumulator streams differ in length: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("accumulator bits diverge at %d: %#x vs %#x", i, got[i], want[i])
		}
	}
}

func probeInputs(u, n int, seed uint64) [][]complex128 {
	src := rng.New(seed)
	out := make([][]complex128, n)
	for k := range out {
		x := make([]complex128, u)
		for i := range x {
			x[i] = cplx.Expi(src.Phase())
		}
		out[k] = x
	}
	return out
}

// TestKillAndRecoverBitIdentity is the crash-recovery acceptance test: a
// server journals its published epoch, dies without any shutdown ceremony
// (journal appends are individually durable — abandoning the process IS the
// kill), and a restarted process recovers the epoch from disk and serves
// bit-identical accumulators with zero schedule re-solves. Run under -race:
// recovery shares nothing with the dead server but the directory.
func TestKillAndRecoverBitIdentity(t *testing.T) {
	dir := t.TempDir()
	d := testDeployment(t, 41)
	golden := serveAccumBits(t, d, 4)

	journal, err := checkpoint.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := newAirServer(serverConfig{
		deployment: d,
		journal:    journal,
		meta:       checkpoint.Meta{Dataset: "synthetic", Seed: 41},
		workers:    2,
		sessionSrc: rng.New(5),
		logf:       t.Logf,
	})
	if got := srv.epochSeq.Load(); got != 1 {
		t.Fatalf("initial epoch journaled as seq %d, want 1", got)
	}
	// Kill: the server is simply abandoned. No Close, no flush.

	// Restart: a fresh journal handle over the same directory.
	j2, err := checkpoint.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := recoverEpoch(j2, "synthetic")
	if err != nil {
		t.Fatal(err)
	}
	if ep == nil {
		t.Fatal("journal holds an epoch but recovery reported cold start")
	}
	if ep.Seq != 1 || ep.Reason != "deploy" {
		t.Fatalf("recovered epoch %d (%q), want 1 (deploy)", ep.Seq, ep.Reason)
	}

	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	solvesBefore := obs.Default().Snapshot().Counters["mts.solve.calls"]
	restored, err := restoreDeployment(ep)
	if err != nil {
		t.Fatal(err)
	}
	if solvesAfter := obs.Default().Snapshot().Counters["mts.solve.calls"]; solvesAfter != solvesBefore {
		t.Fatalf("recovery re-solved schedules: mts.solve.calls %d → %d", solvesBefore, solvesAfter)
	}
	assertSameBits(t, serveAccumBits(t, restored, 4), golden)

	// A journal recorded for another dataset must refuse, not cold-start.
	if _, err := recoverEpoch(j2, "mnist"); err == nil {
		t.Fatal("dataset-mismatched journal recovered without error")
	}
}

// TestRecoverSkipsCorruptEpochs pins the fallback: when the newest journal
// entries are truncated or bit-flipped, recovery silently steps back to the
// newest valid epoch and the corrupted state is never served.
func TestRecoverSkipsCorruptEpochs(t *testing.T) {
	dir := t.TempDir()
	d := testDeployment(t, 43)
	journal, err := checkpoint.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := newAirServer(serverConfig{
		deployment: d,
		journal:    journal,
		meta:       checkpoint.Meta{Dataset: "synthetic", Seed: 43},
		sessionSrc: rng.New(7),
		logf:       t.Logf,
	})
	srv.heal() // republish → journals epoch 2 with reason "heal"
	if got := srv.epochSeq.Load(); got != 2 {
		t.Fatalf("heal journaled as seq %d, want 2", got)
	}

	// Corrupt the newest entry: flip one byte in the middle of the payload.
	newest := filepath.Join(dir, "epoch-00000002.ckpt")
	blob, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x40
	if err := os.WriteFile(newest, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := checkpoint.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := recoverEpoch(j2, "synthetic")
	if err != nil {
		t.Fatal(err)
	}
	if ep == nil || ep.Seq != 1 {
		t.Fatalf("recovery did not fall back to epoch 1 (got %+v)", ep)
	}
	restored, err := restoreDeployment(ep)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 1 is the original deployment, bit for bit.
	assertSameBits(t, serveAccumBits(t, restored, 3), serveAccumBits(t, d, 3))

	// With every entry corrupted, recovery reports cold start, not garbage.
	first := filepath.Join(dir, "epoch-00000001.ckpt")
	if err := os.Truncate(first, 10); err != nil {
		t.Fatal(err)
	}
	ep, err = recoverEpoch(j2, "synthetic")
	if err != nil {
		t.Fatal(err)
	}
	if ep != nil {
		t.Fatalf("recovered epoch %d from an all-corrupt journal", ep.Seq)
	}
}

// TestHealCanaryRejectsSabotagedCandidate drives the acceptance fault: a
// deliberately regressive heal (faults.SabotageHeal) must be rejected by the
// canary gate before publication — no epoch swap, no journal entry, the
// injector still serving the pre-heal deployment — and the rejection must be
// observable. Disarming the sabotage lets the same server heal normally.
func TestHealCanaryRejectsSabotagedCandidate(t *testing.T) {
	dir := t.TempDir()
	d := testDeployment(t, 17)
	inj, err := faults.New(d, faults.Rates{StuckAtomFrac: 0.05}, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	inj.SabotageHeal(0.9)
	journal, err := checkpoint.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := newAirServer(serverConfig{
		deployment:   inj.Deployment(),
		injector:     inj,
		reference:    d, // golden outputs come from the pre-damage deployment
		canaryProbes: probeInputs(d.InputLen(), 24, 91),
		canaryFrac:   0.6,
		canarySeed:   3,
		journal:      journal,
		meta:         checkpoint.Meta{Dataset: "synthetic", Seed: 17},
		sessionSrc:   rng.New(9),
		logf:         t.Logf,
	})

	before := srv.cur.Load()
	srv.heal()
	if got := srv.canaryRejects.Load(); got != 1 {
		t.Fatalf("canaryRejects = %d, want 1", got)
	}
	if srv.swaps.Load() != 0 {
		t.Fatal("sabotaged heal was published")
	}
	if srv.cur.Load() != before {
		t.Fatal("sabotaged heal swapped the serving epoch")
	}
	if inj.Healed() {
		t.Fatal("sabotaged heal was committed to the injector")
	}
	if ep, err := recoverEpoch(journal, "synthetic"); err != nil || ep.Seq != 1 {
		t.Fatalf("journal moved past the deploy epoch: %+v, %v", ep, err)
	}

	// Disarmed, the clean re-solve passes the same gate and publishes.
	inj.SabotageHeal(0)
	srv.heal()
	if srv.swaps.Load() != 1 || !inj.Healed() {
		t.Fatalf("clean heal did not publish (swaps=%d healed=%v)", srv.swaps.Load(), inj.Healed())
	}
	if ep, err := recoverEpoch(journal, "synthetic"); err != nil || ep.Seq != 2 || ep.Reason != "heal" {
		t.Fatalf("clean heal not journaled as epoch 2: %+v, %v", ep, err)
	}
	if srv.canaryRejects.Load() != 1 {
		t.Fatal("clean heal bumped canaryRejects")
	}
}

// TestRollbackRestoresPreviousEpoch exercises the post-publication
// supervisor: a heal that passes the gate but regresses the observed margins
// is rolled back to the previous journaled epoch with fresh sessions, and
// the rollback is journaled and counted. A heal whose margins hold is left
// alone.
func TestRollbackRestoresPreviousEpoch(t *testing.T) {
	high := []float64{1, 0.2, 0.1} // margin 0.8
	low := []float64{1, 0.95, 0.9} // margin 0.05
	fill := func(m *mobility.Monitor, mags []float64, n int) {
		for i := 0; i < n; i++ {
			m.Observe(mags)
		}
	}

	build := func(seed uint64, dir string) (*airServer, *faults.Injector, *ota.Deployment) {
		d := testDeployment(t, seed)
		inj, err := faults.New(d, faults.Rates{StuckAtomFrac: 0.05}, rng.New(seed^0xf))
		if err != nil {
			t.Fatal(err)
		}
		journal, err := checkpoint.OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv := newAirServer(serverConfig{
			deployment:   inj.Deployment(),
			injector:     inj,
			monitor:      mobility.NewMonitor(1e-9, 4), // threshold ~0: never trips on its own
			rollbackFrac: 0.9,
			journal:      journal,
			meta:         checkpoint.Meta{Dataset: "synthetic", Seed: seed},
			sessionSrc:   rng.New(seed ^ 0xabc),
			logf:         t.Logf,
		})
		return srv, inj, inj.Deployment()
	}

	t.Run("regression rolls back", func(t *testing.T) {
		srv, _, faulted := build(51, t.TempDir())
		fill(srv.cfg.monitor, high, 4) // healthy pre-heal margins
		srv.heal()                     // publishes, arms the watch, resets the window
		srv.checkRollback()            // window empty: watch must stay armed
		if srv.rollbacks.Load() != 0 {
			t.Fatal("rollback fired before the post-heal window filled")
		}
		fill(srv.cfg.monitor, low, 4) // post-heal margins collapse
		srv.checkRollback()
		if got := srv.rollbacks.Load(); got != 1 {
			t.Fatalf("rollbacks = %d, want 1", got)
		}
		if srv.cur.Load().d != faulted {
			t.Fatal("rollback did not restore the previous epoch's deployment")
		}
		if ep, err := recoverEpoch(srv.cfg.journal, "synthetic"); err != nil || ep.Reason != "rollback" {
			t.Fatalf("rollback not journaled: %+v, %v", ep, err)
		}
		// The watch is spent: further ticks must not roll back again.
		fill(srv.cfg.monitor, low, 4)
		srv.checkRollback()
		if srv.rollbacks.Load() != 1 {
			t.Fatal("rollback fired twice for one heal")
		}
	})

	t.Run("holding heal is kept", func(t *testing.T) {
		srv, inj, _ := build(53, t.TempDir())
		fill(srv.cfg.monitor, high, 4)
		srv.heal()
		healed := srv.cur.Load().d
		fill(srv.cfg.monitor, high, 4) // margins hold after the heal
		srv.checkRollback()
		if srv.rollbacks.Load() != 0 {
			t.Fatal("healthy heal was rolled back")
		}
		if srv.cur.Load().d != healed {
			t.Fatal("epoch changed without a rollback")
		}
		if !inj.Healed() {
			t.Fatal("heal did not commit")
		}
	})
}

// orderedFake records shutdown-sequence events for the clean-exit test.
type orderedFake struct {
	events *[]string
	name   string
}

func (f orderedFake) Close() error { *f.events = append(*f.events, f.name); return nil }
func (f orderedFake) Shutdown(ctx context.Context) error {
	if _, ok := ctx.Deadline(); !ok {
		return context.DeadlineExceeded
	}
	*f.events = append(*f.events, f.name)
	return nil
}

// TestCloseStackOrdering pins the clean-exit sequence: the epoch journal
// flushes strictly before the metrics sidecar shuts down (durability first,
// observability last), and absent components are skipped without panics.
func TestCloseStackOrdering(t *testing.T) {
	var events []string
	closeStack(orderedFake{&events, "journal"}, orderedFake{&events, "sidecar"}, t.Logf)
	if len(events) != 2 || events[0] != "journal" || events[1] != "sidecar" {
		t.Fatalf("shutdown order = %v, want [journal sidecar]", events)
	}
	closeStack(nil, nil, nil) // no components, no panic
}

// TestServeShutdownFlushOrdering is the end-to-end clean-exit regression:
// with a request parked in flight, the read loop dies, the worker's reply
// lands BEFORE the journal flush, and the journal flush lands before the
// sidecar teardown — drain → flush → sidecar, never interleaved.
func TestServeShutdownFlushOrdering(t *testing.T) {
	d := testDeployment(t, 61)
	journal, err := checkpoint.OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	parked := make(chan struct{}, 8)
	srv := newAirServer(serverConfig{
		deployment: d,
		journal:    journal,
		meta:       checkpoint.Meta{Dataset: "synthetic", Seed: 61},
		workers:    1,
		sessionSrc: rng.New(3),
		logf:       t.Logf,
		preInfer: func() {
			parked <- struct{}{}
			<-gate
		},
	})

	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	done := make(chan error, 1)
	go func() { done <- srv.serve(conn) }()
	client := dialServer(t, conn.LocalAddr().(*net.UDPAddr))

	req := &airproto.Frame{ID: 7, Data: testSymbols(d.InputLen(), 7)}
	out, _ := req.Marshal()
	if _, err := client.Write(out); err != nil {
		t.Fatal(err)
	}
	<-parked // the worker holds the request in flight

	// Kill the read loop without closing the socket, then release the worker.
	if err := conn.SetReadDeadline(time.Now()); err != nil {
		t.Fatal(err)
	}
	close(gate)

	var events []string
	client.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 65535)
	n, err := client.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := airproto.Unmarshal(buf[:n]); err != nil || resp.ID != 7 || resp.IsNack() {
		t.Fatalf("in-flight request lost during shutdown: %v %+v", err, resp)
	}
	events = append(events, "reply")

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("serve never drained")
	}
	events = append(events, "drained")
	closeStack(journal, orderedFake{&events, "sidecar"}, t.Logf)

	want := []string{"reply", "drained", "sidecar"}
	if len(events) != len(want) {
		t.Fatalf("shutdown events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("shutdown events = %v, want %v", events, want)
		}
	}
	// The journal survived the flush intact: the deploy epoch recovers.
	if ep, err := recoverEpoch(journal, "synthetic"); err != nil || ep == nil || ep.Seq != 1 {
		t.Fatalf("journal unrecoverable after clean exit: %+v, %v", ep, err)
	}
}

// TestBuildServerConfigColdThenRecover drives both of a replica's start
// paths through buildServerConfig: a cold start with fault injection and
// self-healing journals its first epoch into a fresh state directory, and a
// second start over that directory recovers it — re-arming only the dynamic
// fault load, the journaled monitor thresholds and the same canary probes.
func TestBuildServerConfigColdThenRecover(t *testing.T) {
	opt := serverOptions{
		ds: "mnist", seed: 1, layers: 1, workers: 1,
		faultRate: 0.5, selfHeal: true, healFrac: 0.5, healWin: 32,
		healEvery: time.Hour, canaryFrac: 0.8, rollbackFrac: 0.75,
		stateDir: t.TempDir(),
	}
	cold, journal, pipe, err := buildServerConfig(opt)
	if err != nil {
		t.Fatal(err)
	}
	if pipe == nil {
		t.Fatal("a cold start returned no pipeline for the offline-accuracy log")
	}
	if cold.injector == nil || len(cold.injector.StuckAtoms()) == 0 {
		t.Fatal("cold start sampled no stuck atoms at fault rate 0.5")
	}
	if cold.monitor == nil {
		t.Fatal("cold start armed no monitor with -self-heal")
	}
	cold.logf = t.Logf
	if srv := newAirServer(cold); srv.epochSeq.Load() != 1 {
		t.Fatalf("cold start journaled its first epoch as seq %d, want 1", srv.epochSeq.Load())
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	warm, journal2, pipe2, err := buildServerConfig(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer journal2.Close()
	if pipe2 != nil {
		t.Fatal("a recovery returned a pipeline")
	}
	if warm.initialReason != "recover" {
		t.Fatalf("initialReason %q, want recover", warm.initialReason)
	}
	if warm.injector == nil {
		t.Fatal("recovery did not re-arm fault injection")
	}
	if n := len(warm.injector.StuckAtoms()); n != 0 {
		t.Fatalf("recovery sampled %d new stuck atoms over the journaled damage", n)
	}
	if warm.monitor == nil {
		t.Fatal("recovery did not re-arm self-healing")
	}
	if warm.monitor.Threshold() != cold.monitor.Threshold() || warm.monitor.Window() != cold.monitor.Window() {
		t.Fatalf("recovered monitor (%v, %d), journaled (%v, %d)",
			warm.monitor.Threshold(), warm.monitor.Window(), cold.monitor.Threshold(), cold.monitor.Window())
	}
	if warm.meta.FaultRate != opt.faultRate || cold.meta.FaultRate != opt.faultRate {
		t.Fatalf("meta fault rate %v (cold) / %v (recovered), want %v", cold.meta.FaultRate, warm.meta.FaultRate, opt.faultRate)
	}
	if len(warm.canaryProbes) == 0 || len(warm.canaryProbes) != len(cold.canaryProbes) {
		t.Fatalf("canary probes: %d recovered, %d cold", len(warm.canaryProbes), len(cold.canaryProbes))
	}
	for k := range cold.canaryProbes {
		a, b := cold.canaryProbes[k], warm.canaryProbes[k]
		if len(a) != len(b) {
			t.Fatalf("canary probe %d has %d symbols recovered, %d cold", k, len(b), len(a))
		}
		for i := range a {
			if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
				math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
				t.Fatalf("canary probe %d symbol %d differs between starts", k, i)
			}
		}
	}
}
