// Command metaai-fleet fronts a replicated metaai-serve fleet: one UDP
// address clients talk to, consistent-hash routing with failover and hedged
// retries across the replicas, heartbeat-driven failure detection, and
// chunked epoch replication with a fleet-wide canary gate.
//
//	metaai-fleet -addr 127.0.0.1:9540 -replicas 127.0.0.1:9530,127.0.0.1:9531
//	metaai-fleet -addr 127.0.0.1:9540 -publish /var/lib/metaai
//
// Replicas can be seeded with -replicas, announce themselves with
// metaai-serve's -join flag, or both. -publish watches a checkpoint journal
// directory (a metaai-serve -state-dir) and replicates every new epoch it
// finds: the first live replica in ring order canaries the epoch and must
// report sufficient held-out prediction agreement before the fan-out; a
// rejection rolls the whole fleet back to the prior epoch so every replica
// converges again. Clients speak plain airproto to -addr exactly as they
// would to a single server — the fleet is invisible.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/fleet"
	"repro/internal/netchaos"
	"repro/internal/obs"
	"repro/internal/obs/events"
	"repro/internal/obs/sidecar"
	"repro/internal/obs/trace"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:9540", "client-facing UDP listen address")
		replicas   = flag.String("replicas", "", "comma-separated seed replica addresses (replicas can also announce with metaai-serve -join)")
		hbEvery    = flag.Duration("hb-every", 250*time.Millisecond, "heartbeat cadence per replica")
		hbTimeout  = flag.Duration("hb-timeout", 200*time.Millisecond, "heartbeat reply timeout")
		hedge      = flag.Duration("hedge-after", 150*time.Millisecond, "launch the next failover candidate when the current one has not answered within this")
		fwdTimeout = flag.Duration("forward-timeout", 3*time.Second, "end-to-end deadline for one client request through all failover attempts")
		attempts   = flag.Int("max-attempts", 3, "distinct replicas tried per client request")
		inflight   = flag.Int("inflight-per-replica", 64, "router load-shedding cap: at most this many in-flight forwards per live replica")
		canaryFrac = flag.Float64("canary-frac", 0.8, "minimum canary prediction agreement before an epoch fans out fleet-wide")
		publish    = flag.String("publish", "", "watch this checkpoint journal directory and replicate every new epoch fleet-wide")
		pubEvery   = flag.Duration("publish-every", 2*time.Second, "journal polling period for -publish")
		seed       = flag.Uint64("seed", 1, "random seed (probe jitter)")
		stateDir   = flag.String("state-dir", "", "journal the coordinator's publication sequence, membership, and committed epoch here; a restarted router restores them and rejoins without diverging the fleet")
		chaosRate  = flag.Float64("chaos-rate", 0, "wrap the client-facing socket with the seeded netchaos.Mix packet-fault load at this severity in [0,1]")
		chaosSeed  = flag.Uint64("chaos-seed", 1, "seed for -chaos-rate packet fates (same seed, same fates)")
		metrics    = flag.String("metrics-addr", "", "serve fleet metrics and events on this HTTP address")
		traceSamp  = flag.Float64("trace-sample", 0.01, "fraction of fleet.request traces to retain (1 keeps all; needs -metrics-addr)")
	)
	flag.Parse()

	if *metrics != "" {
		obs.SetEnabled(true)
		trace.Default().Enable(256, *traceSamp)
		events.Default().Enable(512, trace.Default())
	}

	cfg := fleet.Config{
		HeartbeatEvery:     *hbEvery,
		HeartbeatTimeout:   *hbTimeout,
		HedgeAfter:         *hedge,
		ForwardTimeout:     *fwdTimeout,
		MaxAttempts:        *attempts,
		InflightPerReplica: *inflight,
		CanaryFrac:         *canaryFrac,
		Seed:               *seed,
		StateDir:           *stateDir,
		Logf:               log.Printf,
	}
	if *replicas != "" {
		for _, a := range strings.Split(*replicas, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.Replicas = append(cfg.Replicas, fleet.Replica{Addr: a})
			}
		}
	}
	router, err := fleet.NewRouter(cfg)
	if err != nil {
		log.Fatal(err)
	}

	var sidecar *http.Server
	if *metrics != "" {
		sidecar = &http.Server{Addr: *metrics, Handler: fleetMux(router)}
		go func() {
			log.Printf("fleet sidecar on http://%s (metrics, fleet metrics, events)", *metrics)
			if err := sidecar.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("fleet sidecar: %v", err)
			}
		}()
	}

	udpAddr, err := net.ResolveUDPAddr("udp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	udpFront, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		log.Fatal(err)
	}
	var front netchaos.PacketConn = udpFront
	if *chaosRate > 0 {
		front = netchaos.Wrap(udpFront, netchaos.Config{
			Seed:     *chaosSeed,
			Inbound:  netchaos.Mix(*chaosRate),
			Outbound: netchaos.Mix(*chaosRate),
		})
		log.Printf("chaos armed on the client-facing socket (mix severity %.2f, seed %d)", *chaosRate, *chaosSeed)
	}
	log.Printf("fleet router on %s fronting %d seed replicas (ctrl-c to stop)",
		front.LocalAddr(), len(cfg.Replicas))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		front.Close() // unblock Serve; the deferred router.Close follows
	}()

	if *publish != "" {
		go publishLoop(ctx, router, *publish, *pubEvery)
	}

	err = router.Serve(front)
	router.Close()
	if sidecar != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		sidecar.Shutdown(sctx)
	}
	if ctx.Err() != nil {
		log.Printf("fleet router shut down")
		return
	}
	if err != nil {
		log.Fatal(err)
	}
}

// publishLoop polls a checkpoint journal directory and replicates every new
// epoch it finds across the fleet. The journal is metaai-serve's own WAL
// format, so pointing -publish at a running server's -state-dir turns each
// of its published epochs (deploys, heals, rollbacks) into a fleet-wide
// replication — canary-gated, so one server's bad heal cannot poison the
// fleet. Permanent verdicts (fleet.ErrRefused: the canary or a fan-out
// replica rejected the epoch, or it would not decode) skip the epoch — the
// fleet rolled back and the journal moves past it on the next heal.
// Transient failures (no live replicas yet, canary unreachable, ack
// timeouts, mid-fan-out eviction) keep the epoch pending and retry it on
// the next tick, so the fleet still converges on the journal's newest
// valid epoch once the transport recovers.
func publishLoop(ctx context.Context, router *fleet.Router, dir string, every time.Duration) {
	if every <= 0 {
		every = 2 * time.Second
	}
	j, err := checkpoint.OpenJournal(dir)
	if err != nil {
		log.Printf("fleet publish: %v", err)
		return
	}
	log.Printf("replicating epochs from %s every %v", dir, every)
	t := time.NewTicker(every)
	defer t.Stop()
	var last uint64 // newest journal sequence already offered to the fleet
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if j.Newest() <= last {
			continue // nothing new: skip Recover's read and decode
		}
		ep, err := j.Recover()
		if err != nil {
			if !errors.Is(err, checkpoint.ErrNoEpoch) {
				log.Printf("fleet publish: %v", err)
			}
			continue
		}
		if ep.Seq <= last {
			continue
		}
		if ep.Reason == fleet.ReasonReplicate || ep.Reason == fleet.ReasonRollback {
			// The epoch arrived via fleet replication in the first place: the
			// watched journal belongs to a replica that is itself a fleet
			// member. Re-publishing it would bounce every push back through
			// the coordinator forever; only organic epochs (deploys, heals,
			// local rollbacks) replicate.
			last = ep.Seq
			continue
		}
		if err := router.Publish(checkpoint.EncodeEpoch(ep)); err != nil {
			log.Printf("fleet publish: epoch %d: %v", ep.Seq, err)
			if !errors.Is(err, fleet.ErrRefused) {
				continue // transient: keep the epoch pending and retry next tick
			}
			// Refused epochs are not retried: the fleet rolled back and the
			// journal will move past the bad epoch on the next heal.
		}
		last = ep.Seq
	}
}

// fleetMux is the router's observability sidecar: the shared obs, trace
// and event routes over the router's own registry (fleet.* counters and
// gauges), plus the MERGED fleet-wide view of every replica's piggybacked
// snapshot, bucket-wise merged, in text and JSON.
func fleetMux(router *fleet.Router) *http.ServeMux {
	mux := sidecar.New("metaai-fleet sidecar", "/fleet/metrics", "/fleet/metrics.json")
	mux.HandleFunc("/fleet/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		merged, per := router.FleetSnapshot()
		if err := merged.WriteText(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		for _, name := range router.Members() {
			if _, ok := per[name]; !ok {
				fmt.Fprintf(w, "# replica %s has not piggybacked a snapshot yet\n", name)
			}
		}
	})
	mux.HandleFunc("/fleet/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		merged, per := router.FleetSnapshot()
		out := map[string]any{"merged": merged, "per_replica": per}
		if err := json.NewEncoder(w).Encode(out); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}
