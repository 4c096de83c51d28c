// Command metaai-serve runs the MetaAI "air" as a long-lived UDP service:
// it trains and deploys a pipeline once, then answers symbol frames with
// accumulator frames (package airproto), emulating the
// metasurface-augmented channel for any number of sensor clients. A -probe
// mode acts as a one-shot client for smoke testing a running server.
//
//	metaai-serve -dataset mnist -addr 127.0.0.1:9530 -workers 4
//	metaai-serve -dataset mnist -layers 2
//	metaai-serve -dataset mnist -fault-rate 0.3 -self-heal
//	metaai-serve -dataset mnist -self-heal -state-dir /var/lib/metaai
//	metaai-serve -dataset mnist -metrics-addr 127.0.0.1:9531
//	metaai-serve -probe 127.0.0.1:9530 -dataset mnist -timeout 5s -stats 50
//
// The server computes during "propagation"; whoever receives the response
// holds only per-class accumulators, never the sensor's raw data.
//
// Requests are handled concurrently: each worker goroutine owns one
// ota.Session over a shared immutable deployment, resolved per request
// from an atomic pointer. -fault-rate injects the faults.Mix fault load
// (stuck atoms, shift-register glitches, erasures, bursts, coherence
// collapse) into the emulated hardware; -self-heal arms a health monitor
// that watches the fleet's decision margins and, on degradation, re-solves
// the schedule around the stuck atoms and hot-swaps the deployment with
// zero request loss. Heal candidates are canary-validated against the
// healthy deployment's own predictions on held-out probes before they are
// published, and a published heal that regresses the observed margins is
// automatically rolled back to the previous epoch.
//
// -state-dir makes the serving state durable: every published epoch (the
// initial deployment, each heal, each rollback) is journaled as a sealed
// checkpoint, and on restart the server recovers the newest valid epoch —
// skipping corrupt or truncated entries — and resumes serving with zero
// re-training and zero schedule re-solving. Malformed or mis-sized frames
// and shed load are answered with explicit airproto NACKs instead of
// silence.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/airproto"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/mobility"
	"repro/internal/netchaos"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/obs/events"
	"repro/internal/obs/trace"
	"repro/internal/rng"
)

// serverOptions bundles the serving knobs main parses from flags.
type serverOptions struct {
	ds           string
	seed         uint64
	layers       int
	workers      int
	batch        int
	faultRate    float64
	sabotage     float64
	selfHeal     bool
	healFrac     float64
	healWin      int
	healEvery    time.Duration
	canaryFrac   float64
	rollbackFrac float64
	stateDir     string
	joinAddr     string
	// sloP99, when positive, arms adaptive admission control: a feedback
	// loop watches the live p99 request latency against this target and
	// browns out a rising fraction of data traffic while it is breached.
	sloP99 time.Duration
	// chaosRate/chaosSeed, when chaosRate is positive, wrap the serving
	// socket with the seeded netchaos.Mix fault load on both directions.
	chaosRate float64
	chaosSeed uint64
}

// joinEvery is the cadence of a replica's membership announcements to its
// fleet router (-join). Re-announcing is cheap and idempotent: it resurrects
// the replica after an eviction and re-registers it after a router restart.
const joinEvery = 2 * time.Second

func main() {
	var (
		ds        = flag.String("dataset", "mnist", "dataset: "+strings.Join(dataset.Names(), ", "))
		addr      = flag.String("addr", "127.0.0.1:9530", "UDP listen address")
		seed      = flag.Uint64("seed", 1, "random seed")
		layers    = flag.Int("layers", 1, "stacked metasurface layers for a cold start (1 = classic single surface; a recovered journal epoch keeps its own layer count)")
		probe     = flag.String("probe", "", "act as a client: send one test sample to this address and exit")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent inference sessions (min 1)")
		batch     = flag.Int("batch", 1, "max pending requests one worker drains from the queue per wakeup (min 1); each is still inferred and answered on its own, so outputs are bit-identical at any setting")
		timeout   = flag.Duration("timeout", 5*time.Second, "probe per-attempt response timeout")
		budget    = flag.Duration("budget", 0, "probe overall deadline per exchange across all retry attempts and backoffs (0 disables)")
		joinAddr  = flag.String("join", "", "announce this replica to a metaai-fleet router at this address and accept replicated epochs")
		faultRate = flag.Float64("fault-rate", 0, "inject the faults.Mix fault load at this severity in [0,1]")
		selfHeal  = flag.Bool("self-heal", false, "monitor decision margins and hot-swap a re-solved deployment on degradation")
		healFrac  = flag.Float64("heal-frac", 0.5, "degradation threshold as a fraction of the healthy mean margin")
		healWin   = flag.Int("heal-window", 32, "margin observations averaged per health decision")
		healEvery = flag.Duration("heal-every", 250*time.Millisecond, "health supervisor polling period")
		canary    = flag.Float64("canary-frac", 0.8, "minimum prediction agreement with the healthy deployment a heal candidate needs on the held-out probes")
		rollback  = flag.Float64("rollback-frac", 0.75, "roll a published heal back when the margin mean falls below this fraction of the pre-heal level (0 disables)")
		stateDir  = flag.String("state-dir", "", "journal every published epoch here and recover the newest valid one on restart")
		sloP99    = flag.Duration("slo-p99", 0, "p99 latency target; when breached, admission control browns out a rising fraction of data traffic with RetryAfter NACKs (0 disables; implies latency timing)")
		deadlineF = flag.Duration("deadline", 0, "probe: stamp this deadline budget on every data request; the server drops work whose budget expires in queue with StatusExpired (0 disables)")
		chaosRate = flag.Float64("chaos-rate", 0, "wrap the UDP socket (server or probe) with the seeded netchaos.Mix packet-fault load at this severity in [0,1]")
		chaosSeed = flag.Uint64("chaos-seed", 1, "seed for -chaos-rate packet fates (same seed, same fates)")
		sabotage  = flag.Float64("sabotage-heal", 0, "deliberately corrupt this fraction of every heal candidate's schedule (exercises the canary gate and rollback)")
		metrics   = flag.String("metrics-addr", "", "serve the observability sidecar (metrics, expvar, pprof, traces, events) on this HTTP address and enable latency timing + tracing")
		stats     = flag.Int("stats", 0, "probe: after the classification, send this many timed requests and report latency percentiles")
		jsonOut   = flag.Bool("json", false, "probe: print the -stats report as JSON instead of text")
		traceID   = flag.String("trace", "", "probe: fetch this retained trace (16-hex-digit ID) from the server over the air and print its Chrome JSON")
		traceRing = flag.Int("trace-ring", 256, "retained-trace ring size (with -metrics-addr)")
		traceSamp = flag.Float64("trace-sample", 0.01, "tail-sample retention probability in [0,1] for unflagged traces; slow/NACKed/shed/event-overlapping traces are always retained")
	)
	flag.Parse()

	var sidecar *http.Server
	if *metrics != "" {
		// Timing histograms, the trace ring, and the event journal are all
		// gated behind the sidecar: without -metrics-addr the serve path
		// runs span-free and allocation-free.
		obs.SetEnabled(true)
		trace.Default().Enable(*traceRing, *traceSamp)
		events.Default().Enable(512, trace.Default())
		sidecar = &http.Server{Addr: *metrics, Handler: metricsMux()}
		go func() {
			log.Printf("observability sidecar on http://%s (metrics, expvar, pprof, traces, events)", *metrics)
			if err := sidecar.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("metrics sidecar: %v", err)
			}
		}()
	}

	if *probe != "" {
		if err := runProbe(*probe, probeOptions{
			ds: *ds, seed: *seed, timeout: *timeout, budget: *budget,
			deadline: *deadlineF, chaosRate: *chaosRate, chaosSeed: *chaosSeed,
			stats: *stats, jsonOut: *jsonOut, traceID: *traceID,
		}); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *sloP99 > 0 {
		// The admission controller's feedback input is the live p99 out of
		// the request-latency histogram; timing must be on even without the
		// sidecar.
		obs.SetEnabled(true)
	}
	opt := serverOptions{
		ds:           *ds,
		seed:         *seed,
		layers:       *layers,
		workers:      *workers,
		batch:        *batch,
		faultRate:    *faultRate,
		sabotage:     *sabotage,
		selfHeal:     *selfHeal,
		healFrac:     *healFrac,
		healWin:      *healWin,
		healEvery:    *healEvery,
		canaryFrac:   *canary,
		rollbackFrac: *rollback,
		stateDir:     *stateDir,
		joinAddr:     *joinAddr,
		sloP99:       *sloP99,
		chaosRate:    *chaosRate,
		chaosSeed:    *chaosSeed,
	}
	if err := runServer(*addr, opt, sidecar); err != nil {
		log.Fatal(err)
	}
}

// probeSets splits the encoded test inputs into the monitor-calibration
// batch and the held-out canary batch. The two must not overlap: the canary
// judges a candidate on inputs the health monitor never consumed.
func probeSets(x [][]complex128) (monitor, canary [][]complex128) {
	monitor = x
	if len(monitor) > 64 {
		monitor = monitor[:64]
	}
	if len(x) > 96 {
		canary = x[64:96]
	} else if len(x) > 64 {
		canary = x[64:]
	} else {
		canary = monitor // tiny set: reuse rather than gate on nothing
	}
	return monitor, canary
}

// buildServerConfig assembles the serving state. With a recoverable journal
// entry it restores the deployment bit-for-bit from disk — no training, no
// schedule solving; otherwise it trains and deploys a fresh pipeline (the
// cold start) whose first epoch seeds the journal, and returns it so the
// caller can log its offline air accuracy once the socket listens.
func buildServerConfig(opt serverOptions) (serverConfig, *checkpoint.Journal, *core.Pipeline, error) {
	serveCfg := serverConfig{
		workers:      opt.workers,
		batch:        opt.batch,
		healEvery:    opt.healEvery,
		canaryFrac:   opt.canaryFrac,
		canarySeed:   opt.seed ^ 0xca9a,
		rollbackFrac: opt.rollbackFrac,
		sessionSrc:   rng.New(opt.seed ^ 0x5e55),
		logf:         log.Printf,
	}
	if opt.sloP99 > 0 {
		serveCfg.admit = admission.New(opt.sloP99)
		log.Printf("adaptive admission control armed: p99 SLO %v (brownout sheds data traffic only; control-plane frames always admitted)", opt.sloP99)
	}

	var journal *checkpoint.Journal
	var recovered *checkpoint.Epoch
	if opt.stateDir != "" {
		var err error
		journal, err = checkpoint.OpenJournal(opt.stateDir)
		if err != nil {
			return serveCfg, nil, nil, err
		}
		serveCfg.journal = journal
		recovered, err = recoverEpoch(journal, opt.ds)
		if err != nil {
			return serveCfg, nil, nil, err
		}
	}

	cfg := core.DefaultConfig(opt.ds)
	cfg.Seed = opt.seed
	cfg.Layers = opt.layers

	if recovered != nil {
		// Warm start: the journal already holds the solved deployment.
		d, err := restoreDeployment(recovered)
		if err != nil {
			return serveCfg, nil, nil, err
		}
		log.Printf("recovered epoch %d (%s) from %s: zero re-train, zero re-solve",
			recovered.Seq, recovered.Reason, journal.Dir())
		if n := d.Layers(); n > 1 {
			log.Printf("recovered deployment is a %d-layer stacked cascade", n)
			if opt.layers != n && opt.layers > 1 {
				log.Printf("-layers %d ignored: the journal epoch's layer count wins on recovery", opt.layers)
			}
		}
		events.Default().Emit(events.Recover, "serving state restored from journal",
			events.Num("epoch_seq", float64(recovered.Seq)),
			events.Str("reason", recovered.Reason))
		serveCfg.deployment = d
		serveCfg.reference = d
		serveCfg.initialReason = "recover"
		serveCfg.meta = recovered.Meta
		serveCfg.meta.FaultRate = opt.faultRate

		// The encoded test set rebuilds cheaply (load + modulate, no
		// training) and supplies the monitor and canary probes.
		raw, err := dataset.Load(cfg.Dataset, cfg.Scale, cfg.Seed)
		if err != nil {
			return serveCfg, nil, nil, err
		}
		test := nn.EncodeSet(raw.Test, raw.Classes, nn.Encoder{Scheme: cfg.Scheme})
		monProbes, canaryProbes := probeSets(test.X)
		serveCfg.canaryProbes = canaryProbes

		if opt.faultRate > 0 {
			// The recovered responses already carry whatever static damage
			// was baked in when the epoch was journaled, so only the
			// DYNAMIC fault load re-arms; re-sampling stuck atoms on top of
			// a healed deployment would damage it twice.
			rates := faults.Mix(opt.faultRate)
			rates.StuckAtomFrac = 0
			inj, err := faults.New(d, rates, rng.New(opt.seed^0xfa017))
			if err != nil {
				return serveCfg, nil, nil, err
			}
			inj.SabotageHeal(opt.sabotage)
			serveCfg.injector = inj
			serveCfg.deployment = inj.Deployment()
			log.Printf("dynamic fault injection re-armed at rate %.2f (static damage restored from the journal)", opt.faultRate)
		}
		if opt.selfHeal {
			if th := recovered.Th; th.Window > 0 {
				serveCfg.monitor = mobility.NewMonitor(th.Threshold, th.Window)
				log.Printf("self-healing re-armed from journaled thresholds: margin %.4f over a %d-readout window",
					th.Threshold, th.Window)
			} else {
				serveCfg.monitor = mobility.CalibrateMonitor(
					d.SessionFromSeed(opt.seed^0x4ea1), monProbes, opt.healFrac, opt.healWin)
				log.Printf("self-healing re-armed: margin threshold %.4f over a %d-readout window",
					serveCfg.monitor.Threshold(), opt.healWin)
			}
		}
		return serveCfg, journal, nil, nil
	}

	// Cold start: train, deploy, and let the first epoch seed the journal.
	log.Printf("training %s pipeline and solving MTS schedules...", opt.ds)
	pipe, err := core.New(cfg)
	if err != nil {
		return serveCfg, nil, nil, err
	}
	log.Printf("deployed: %d classes, U=%d symbols, sim %.1f%%",
		pipe.Train.Classes, pipe.Train.U, 100*pipe.SimAccuracy())
	if n := pipe.Deployment().Layers(); n > 1 {
		log.Printf("stacked cascade: %d layers, hop noise %.3f", n, pipe.Deployment().Options().HopNoise)
	}

	serveCfg.deployment = pipe.Deployment()
	serveCfg.reference = pipe.Deployment()
	serveCfg.meta = checkpoint.Meta{Dataset: opt.ds, Seed: opt.seed, FaultRate: opt.faultRate}
	if cfg.Sync == core.SyncCoarse || cfg.Sync == core.SyncCDFA {
		det := cfg.EffectiveDetector(pipe.Train.U)
		serveCfg.meta.DetShape, serveCfg.meta.DetScale = det.Shape, det.Scale
	}
	monProbes, canaryProbes := probeSets(pipe.Test.X)
	serveCfg.canaryProbes = canaryProbes

	if opt.faultRate > 0 {
		inj, err := faults.New(pipe.Deployment(), faults.Mix(opt.faultRate), rng.New(opt.seed^0xfa017))
		if err != nil {
			return serveCfg, nil, nil, err
		}
		inj.SabotageHeal(opt.sabotage)
		serveCfg.injector = inj
		serveCfg.deployment = inj.Deployment()
		log.Printf("fault injection armed at rate %.2f: %d stuck atoms, residual error %.4f",
			opt.faultRate, len(inj.StuckAtoms()), inj.ResidualError())
	}
	if opt.selfHeal {
		// Calibrate the degradation threshold against the HEALTHY
		// deployment's margins, before any injected damage, on a session
		// of its own as recovery does: the bound default session is left
		// to the offline air accuracy.
		serveCfg.monitor = mobility.CalibrateMonitor(
			pipe.Deployment().SessionFromSeed(opt.seed^0x4ea1), monProbes, opt.healFrac, opt.healWin)
		log.Printf("self-healing armed: margin threshold %.4f over a %d-readout window",
			serveCfg.monitor.Threshold(), opt.healWin)
	}
	return serveCfg, journal, pipe, nil
}

// snapshotSource supplies the metrics snapshot a replica piggybacks on
// fleet heartbeat replies, counters live with or without timing, for the
// router's fleet-wide view. Encoding is not cheap, so the blob is
// re-encoded at most twice a second and served from cache between.
func snapshotSource() func() []byte {
	var mu sync.Mutex
	var at time.Time
	var blob []byte
	return func() []byte {
		mu.Lock()
		defer mu.Unlock()
		if now := time.Now(); blob == nil || now.Sub(at) > 500*time.Millisecond {
			blob, at = obs.EncodeSnapshot(obs.Default().Snapshot()), now
		}
		return blob
	}
}

func runServer(addr string, opt serverOptions, sidecar *http.Server) error {
	serveCfg, journal, pipe, err := buildServerConfig(opt)
	if err != nil {
		return err
	}
	srv := newAirServer(serveCfg)
	srv.fleetAgent.SetSnapshotSource(snapshotSource())

	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	udpConn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return err
	}
	var conn netchaos.PacketConn = udpConn
	if opt.chaosRate > 0 {
		conn = netchaos.Wrap(udpConn, netchaos.Config{
			Seed:     opt.chaosSeed,
			Inbound:  netchaos.Mix(opt.chaosRate),
			Outbound: netchaos.Mix(opt.chaosRate),
		})
		log.Printf("chaos armed on the serving socket (mix severity %.2f, seed %d)", opt.chaosRate, opt.chaosSeed)
	}
	defer conn.Close()
	log.Printf("air service listening on %s with %d workers (ctrl-c to stop)", conn.LocalAddr(), srv.cfg.workers)
	if pipe != nil {
		// The offline air accuracy only feeds the log, so it runs beside
		// the first requests rather than before the socket listens.
		offline := make(chan struct{})
		go func() {
			defer close(offline)
			log.Printf("offline air accuracy %.1f%% on %d test samples", 100*pipe.AirAccuracy(), len(pipe.Test.X))
		}()
		defer func() { <-offline }()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		conn.Close() // unblock the read loop; serve() then drains the workers
	}()

	if opt.joinAddr != "" {
		// Announce membership from the SERVING socket so the router learns
		// this replica's data-path address from the datagram's source. Writes
		// interleave safely with the read loop.
		raddr, err := net.ResolveUDPAddr("udp", opt.joinAddr)
		if err != nil {
			return err
		}
		log.Printf("announcing to fleet router %s every %v", raddr, joinEvery)
		go func() {
			t := time.NewTicker(joinEvery)
			defer t.Stop()
			for id := uint32(1); ; id++ {
				fleetSeq, fleetNonce := srv.fleetAgent.FleetVersion()
				f := airproto.Join(id, fleetSeq, fleetNonce)
				if out, err := f.Marshal(); err == nil {
					if _, err := conn.WriteToUDP(out, raddr); err != nil && ctx.Err() == nil {
						log.Printf("fleet join announce: %v", err)
					}
				}
				select {
				case <-ctx.Done():
					return
				case <-t.C:
				}
			}
		}()
	}

	if trace.Default().Enabled() {
		// The tail sampler's "slow" criterion tracks the LIVE p99 of the
		// request-latency histogram: refresh it periodically so "slow"
		// means slow relative to this deployment on this machine, not a
		// hard-coded constant.
		go func() {
			t := time.NewTicker(2 * time.Second)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					trace.Default().SetSlowThreshold(requestP99())
				}
			}
		}()
	}

	err = srv.serve(conn)

	// Clean-exit ordering: serve() has drained in-flight requests; flush
	// the journal, then take down the sidecar.
	var fl flusher
	if journal != nil {
		fl = journal
	}
	var sd shutdowner
	if sidecar != nil {
		sd = sidecar
	}
	closeStack(fl, sd, log.Printf)

	if ctx.Err() != nil {
		log.Printf("shutting down after %d transmissions (%d healed swaps, %d rollbacks, %d shed)",
			srv.served.Load(), srv.swaps.Load(), srv.rollbacks.Load(), srv.shed.Load())
		return nil
	}
	return err
}
