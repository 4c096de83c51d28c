package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/airproto"
	"repro/internal/checkpoint"
)

// runTraced is the per-layer run. It first runs the workload's load
// untraced for a third of the time (the baseline for the cost of
// tracing), then sets up again with every server's sidecar on
// (-metrics-addr turns on their timers and trace rings) and runs the load
// traced. After the load it reads the sidecars and /proc, replays the
// layer calls of the sampled requests in process, writes every span as
// Chrome JSON, and reports the per-layer metrics.
func (b *bench) runTraced() error {
	cl, err := b.newClient()
	if err != nil {
		return err
	}
	defer cl.close()
	S := b.seconds()

	t, _, err := b.up(false, cl)
	if err != nil {
		return fmt.Errorf("untraced set-up: %w", err)
	}
	base, err := b.mainLoad(cl, t, S/3, baseline)
	b.down(t)
	if err != nil {
		return err
	}

	if t, _, err = b.up(true, cl); err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	defer b.down(t)
	cpu0, err := procCPU(t)
	if err != nil {
		return err
	}
	rs0, err := replicaStatsOf(cl, t)
	if err != nil {
		return err
	}
	var fr0 routerStats
	var poll *degradedPoller
	if b.wl.fleet {
		if fr0, err = routerStatsOf(cl, t); err != nil {
			return err
		}
		poll = startDegradedPoller(cl, t)
	}
	ld, err := b.mainLoad(cl, t, 2*S/3, tracedRun)
	var degraded float64
	if poll != nil {
		degraded = poll.stop()
	}
	if err != nil {
		return err
	}
	cpu1, err := procCPU(t)
	if err != nil {
		return err
	}
	rs1, err := replicaStatsOf(cl, t)
	if err != nil {
		return err
	}
	reqHist, err := snapshotHist(t.sidecars[:len(t.replicas)], "serve.request.seconds")
	if err != nil {
		return err
	}
	var fr routerStats
	var fwdP50, fwdP99, routerCPU float64
	if b.wl.fleet {
		fr1, err := routerStatsOf(cl, t)
		if err != nil {
			return err
		}
		fr = fr1.minus(fr0)
		fwd, err := snapshotHist(t.sidecars[len(t.replicas):], "fleet.forward.seconds")
		if err != nil {
			return err
		}
		fwdP50, fwdP99 = fwd.Quantile(0.5)*1e6, fwd.Quantile(0.99)*1e6
		routerCPU = (cpu1[len(t.replicas)] - cpu0[len(t.replicas)]).Seconds() * 1e6
	}
	b.down(t)

	// Client-side metrics of the traced load.
	all := ld.main.tally
	all.add(ld.trials)
	late := summarize(ld.main.Late)
	lat := summarize(ld.main.Lat)
	baseLat := summarize(base.main.Lat)
	r := b.rep
	r.add("loadgen.late_p50_us", "us", late.P50, late.N, true)
	r.add("loadgen.late_p99_us", "us", late.P99, late.N, true)
	r.add("loadgen.sent", "count", float64(all.Sent), 0, true)
	r.add("loadgen.ok", "count", float64(all.OK), 0, true)
	r.add("loadgen.nacked", "count", float64(all.Nacked), 0, true)
	r.add("loadgen.lost", "count", float64(all.Lost), 0, true)
	r.attempted, r.failed = ld.main.Sent, ld.main.Nacked+ld.main.Lost

	// Spans of the sampled requests and publications, then their replays.
	samples := ld.samples
	if ld.phase != nil {
		samples = phaseSamples(ld.phase, max(1, int(ld.phase.sent.Load())/maxSamples), len(cl.socks), maxSamples)
	}
	rp, err := newReplayer(b.ref, b.rec, b.ringMembers(), filepath.Join(b.opt.out, "replay-journal"))
	if err != nil {
		return err
	}
	defer rp.close()
	for _, s := range samples {
		root := b.rec.add(uint64(s.id), 0, "bench.request", b.rec.at(s.due), b.rec.at(s.recv), 0)
		if s.sent.After(s.due) {
			b.rec.add(uint64(s.id), root, "loadgen.late", b.rec.at(s.due), b.rec.at(s.sent), 0)
		}
		b.rec.add(uint64(s.id), root, "loadgen.send", b.rec.at(s.sent), b.rec.at(s.wrote), 0)
	}
	for k, p := range ld.pubs {
		tr := pubTrace(k)
		root := b.rec.add(tr, 0, "bench.publish", b.rec.at(p.start), b.rec.at(p.done), 0)
		b.rec.add(tr, root, "checkpoint.append", b.rec.at(p.start), b.rec.at(p.appended), 0)
	}
	var batch [][]complex128
	for _, s := range samples {
		req := append([]byte(nil), b.ref.corpus.frames[s.sample]...)
		putID(req, s.id)
		if err := rp.request(uint64(s.id), req, clientKey(cl, s.sock), b.wl.fleet); err != nil {
			return fmt.Errorf("replay of request %d: %w", s.id, err)
		}
		if f, err := airproto.Unmarshal(req); err == nil && len(batch) < 8*32 {
			batch = append(batch, f.Data)
		}
	}
	epoch := ld.epoch
	if epoch == nil {
		epoch = b.ref.epoch
	}
	var chunks, wire int
	for k := 0; k < max(len(ld.pubs), 8); k++ {
		if chunks, wire, err = rp.publication(pubTrace(k), epoch); err != nil {
			return fmt.Errorf("publication replay: %w", err)
		}
	}
	var b8 []float64
	for i := 0; i+8 <= len(batch); i += 8 {
		b8 = append(b8, rp.batch8(batch[i:i+8]))
	}
	if !b.wl.fleet {
		// The request path has no router; time the route on the two-member
		// ring anyway, outside any request trace.
		rp.rec.timed(routeTrace, 0, "fleet.route", routeReps, func() { rp.ring.Route(clientKey(cl, 0), rp.ring.Len()) })
	}
	decAllocs, inferAllocs, routeAllocs, err := rp.layerAllocs(b.ref.corpus.frames[0], clientKey(cl, 0))
	if err != nil {
		return err
	}

	// Self times.
	self := selfTimes(b.rec.spans)
	p50 := func(name string, unit time.Duration) float64 {
		return median(selfPerCall(b.rec.spans, self, name, unit))
	}
	loadgenSelf := clientSelf(b.rec.spans, self)
	inferUs := p50("ota.infer", time.Microsecond)
	r.add("airproto.decode_ns", "ns", p50("airproto.decode", time.Nanosecond), len(samples), true)
	r.add("airproto.decode_allocs", "count", decAllocs, 0, true)
	r.add("airproto.encode_ns", "ns", p50("airproto.encode", time.Nanosecond), len(samples), true)
	r.add("airproto.epoch_chunks", "count", float64(chunks), 0, true)
	r.add("airproto.epoch_wire_bytes", "bytes", float64(wire), 0, true)
	r.add("ota.infer_us", "us", inferUs, len(samples), true)
	r.add("ota.infer_allocs", "count", inferAllocs, 0, true)
	r.add("ota.infer_batch8_us", "us", median(b8), len(b8), true)
	nPub := max(len(ld.pubs), 8)
	r.add("ota.from_state_ms", "ms", p50("ota.from_state", time.Millisecond), nPub, true)
	r.add("checkpoint.epoch_bytes", "bytes", float64(len(checkpoint.EncodeEpoch(epoch))), 0, true)
	r.add("checkpoint.encode_ms", "ms", p50("checkpoint.encode", time.Millisecond), nPub, true)
	r.add("checkpoint.decode_ms", "ms", p50("checkpoint.decode", time.Millisecond), nPub, true)
	r.add("checkpoint.append_ms", "ms", p50("checkpoint.append", time.Millisecond), 2*nPub, true)
	r.add("mobility.canary_ms", "ms", p50("mobility.canary", time.Millisecond), nPub, true)
	r.add("fleet.route_ns", "ns", p50("fleet.route", time.Nanosecond), len(samples), true)
	r.add("fleet.route_allocs", "count", routeAllocs, 0, true)

	// Router process (fleet workloads; zero without a router).
	if b.wl.fleet {
		r.add("fleet.cpu_us_per_req", "us", routerCPU/max(fr.forwards, 1), 0, false)
	}
	r.add("fleet.forwards", "count", fr.forwards, 0, true)
	r.add("fleet.failovers", "count", fr.failovers, 0, true)
	r.add("fleet.hedged_wins", "count", fr.hedged, 0, true)
	r.add("fleet.shed", "count", fr.shed, 0, true)
	r.add("fleet.degraded_share", "fraction", degraded, 0, true)
	if b.wl.fleet {
		r.add("fleet.forward_p50_us", "us", fwdP50, 0, false)
		r.add("fleet.forward_p99_us", "us", fwdP99, 0, false)
	}

	// Replica processes.
	var served, shed, swaps, replicaCPU float64
	minShare := 1.0
	for i := range rs1 {
		d := rs1[i].minus(rs0[i])
		served += d.served
		shed += d.shed
		swaps += d.swaps
		replicaCPU += (cpu1[i] - cpu0[i]).Seconds() * 1e6
	}
	for i := range rs1 {
		if served > 0 {
			minShare = min(minShare, rs1[i].minus(rs0[i]).served/served)
		}
	}
	reqP50, reqP99 := reqHist.Quantile(0.5)*1e6, reqHist.Quantile(0.99)*1e6
	r.add("serve.cpu_us_per_req", "us", replicaCPU/max(served, 1), 0, true)
	r.add("serve.shed", "count", shed, 0, true)
	r.add("serve.served_share_min", "fraction", minShare, 0, true)
	r.add("serve.swaps", "count", swaps, 0, true)
	r.add("serve.request_p50_us", "us", reqP50, int(reqHist.Count), true)
	r.add("serve.request_p99_us", "us", reqP99, int(reqHist.Count), true)
	r.add("serve.wait_p50_us", "us", reqP50-inferUs, int(reqHist.Count), true)

	// Set-up split, from the in-process reference build.
	r.add("setup.dataset_ms", "ms", b.ref.datasetMs, 1, true)
	r.add("setup.train_ms", "ms", b.ref.trainMs, 1, true)
	r.add("setup.deploy_ms", "ms", b.ref.deployMs, 1, true)

	// Where the median request's time went: the p50 self times of every
	// layer call on its path, and the rest.
	parts := []string{fmt.Sprintf("loadgen %.2f", loadgenSelf)}
	sum := loadgenSelf
	for _, name := range pathCalls(b.wl.fleet) {
		v := p50(name, time.Microsecond)
		sum += v
		parts = append(parts, fmt.Sprintf("%s %.2f", name, v))
	}
	unattributed := lat.P50 - sum
	r.add("net.unattributed_p50_us", "us", unattributed, lat.N, true)
	r.add("trace.overhead_p50_us", "us", lat.P50-baseLat.P50, baseLat.N, true)
	r.note("traced latency_p50 %.2f us (n=%d) = %s + net.unattributed %.2f; ota.infer is %.1f%% of it",
		lat.P50, lat.N, strings.Join(parts, " + "), unattributed, 100*inferUs/lat.P50)
	r.note("untraced baseline latency_p50 %.2f us (n=%d); serve.wait_p50 is serve.request_p50 (sidecar buckets) - ota.infer_us",
		baseLat.P50, baseLat.N)

	path := filepath.Join(b.opt.out, fmt.Sprintf("trace-%s-seed%d.json", b.opt.workload, b.opt.seed))
	if err := writeChromeFile(path, b.rec.spans); err != nil {
		return err
	}
	r.note("spans: %s (%d spans)", path, len(b.rec.spans))
	b.finish(cl)
	return nil
}

// Trace IDs of the spans that are not data requests, whose trace ID is the
// request ID (below 1<<31): publications, and replica-closed's standalone
// route timing.
const routeTrace = 1 << 41

func pubTrace(k int) uint64 { return 1<<40 | uint64(k) }

// phaseSamples picks up to limit of a phase's answered requests, every
// stride-th one; request i left on socket i mod socks.
func phaseSamples(ph *loadPhase, stride, socks, limit int) []reqSample {
	n := int(ph.sent.Load())
	var out []reqSample
	for i := 0; i < n && len(out) < limit; i += stride {
		if ph.state[i].Load()&0xff != stOK {
			continue
		}
		at := func(ns int64) time.Time { return ph.start.Add(time.Duration(ns)) }
		out = append(out, reqSample{
			id: ph.base + uint32(i), sample: ph.sample[i], sock: i % socks,
			due: at(ph.due[i]), sent: at(ph.sentAt[i]), wrote: at(ph.wroteAt[i]), recv: at(ph.recvAt[i].Load()),
		})
	}
	return out
}

// clientSelf is the median, over traced requests, of the client's own time
// on the latency path: generator lateness plus the send.
func clientSelf(spans []span, self map[uint64]int64) float64 {
	roots := map[uint64]bool{}
	for _, s := range spans {
		if s.Name == "bench.request" {
			roots[s.ID] = true
		}
	}
	per := map[uint64]float64{}
	for _, s := range spans {
		if roots[s.Parent] && strings.HasPrefix(s.Name, "loadgen.") {
			per[s.Parent] += float64(self[s.ID]) / 1e3
		}
	}
	var xs []float64
	for _, v := range per {
		xs = append(xs, v)
	}
	return median(xs)
}

// ringMembers names the two-member ring fleet.route is timed on: the
// workload's replicas, padded on replica-closed with the router's address.
func (b *bench) ringMembers() []string {
	if len(b.names) >= 2 {
		return b.names
	}
	return append(append([]string{}, b.names...), b.routerAddr)
}

// clientKey is the routing key of the client socket a request left on.
func clientKey(cl *client, sock int) uint64 {
	return routeKey(cl.socks[sock].LocalAddr().String())
}

// procCPU reads every topology process's CPU time, replicas then router.
func procCPU(t *topo) ([]time.Duration, error) {
	var out []time.Duration
	for _, p := range t.procs() {
		c, err := p.cpu()
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// degradedPoller reads the router's KindStats about ten times a second and
// counts the polls that saw fewer live replicas than the fleet has.
type degradedPoller struct {
	quit       chan struct{}
	wg         sync.WaitGroup
	polls, low int
}

func startDegradedPoller(cl *client, t *topo) *degradedPoller {
	p := &degradedPoller{quit: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tk := time.NewTicker(100 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-tk.C:
			}
			if rs, err := routerStatsOf(cl, t); err == nil {
				p.polls++
				if int(rs.live) < len(t.replicas) {
					p.low++
				}
			}
		}
	}()
	return p
}

// stop ends the polling and returns the degraded share.
func (p *degradedPoller) stop() float64 {
	close(p.quit)
	p.wg.Wait()
	if p.polls == 0 {
		return 0
	}
	return float64(p.low) / float64(p.polls)
}

func writeChromeFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
