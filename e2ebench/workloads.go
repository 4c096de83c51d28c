package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
)

// workload is one traffic and topology setting. Every replica runs
// metaai-serve -dataset mnist -batch 8 with otherwise default flags, so the
// workloads differ in traffic and topology, not in server settings.
type workload struct {
	replicas int
	fleet    bool          // a metaai-fleet router fronts the replicas
	publish  bool          // replicas journal (-state-dir), the router watches -publish
	slo      time.Duration // the latency limit L
}

var workloads = map[string]workload{
	// One replica, one socket, one request outstanding: no router, no
	// queue, every drain a batch of one.
	"replica-closed": {replicas: 1, slo: time.Millisecond},
	// Router over two replicas, open-loop Poisson bursts at 400 req/s,
	// then the capacity search.
	"fleet-burst": {replicas: 2, fleet: true, slo: 10 * time.Millisecond},
	// fleet-burst's topology and load with an epoch published about twice
	// a second.
	"fleet-publish": {replicas: 2, fleet: true, publish: true, slo: 10 * time.Millisecond},
}

const (
	setups        = 7                      // set-ups per untraced run; setup_s is their median
	readyTimeout  = 30 * time.Second       // per process, launch to its listening line
	upTimeout     = 15 * time.Second       // listening to the first data reply
	replyTimeout  = 500 * time.Millisecond // a request unanswered this long is lost
	warmup        = 500 * time.Millisecond // unmeasured load after set-up
	tick          = time.Millisecond       // open-loop burst period
	nominalRate   = 400.0                  // req/s of the fleet workloads
	sloTarget     = 0.95                   // slo_attainment a search trial must reach
	searchTol     = 0.10                   // the capacity search stops at a 10% bracket
	searchTrials  = 9                      // rates tried after the nominal phase
	maxSamples    = 512                    // traced requests replayed per run
	publishMin    = 400 * time.Millisecond // pause between publications, seeded
	publishJitter = 200 * time.Millisecond
	publishWait   = 5 * time.Second // a publication not seen on every replica by then fails
	publishEvery  = "5ms"           // the router's journal poll, well under publish_ms
)

// bench is one invocation: a workload, a seed and a mode.
type bench struct {
	opt options
	wl  workload
	ref *reference
	rep *report
	rec *recorder

	mu   sync.Mutex
	live []*proc

	names        []string // replica addresses, which are the router's ring members
	routerAddr   string
	sidecarPorts []int
	order        []int // the seeded order requests cycle through the corpus
}

func (b *bench) track(p *proc) {
	b.mu.Lock()
	b.live = append(b.live, p)
	b.mu.Unlock()
}

// stopAll stops every child still running, newest first (router before
// replicas), and waits for each.
func (b *bench) stopAll() {
	b.mu.Lock()
	ps := b.live
	b.live = nil
	b.mu.Unlock()
	for i := len(ps) - 1; i >= 0; i-- {
		ps[i].stop()
	}
}

func (b *bench) run() (*report, error) {
	b.rep = &report{}
	if err := os.MkdirAll(b.opt.out, 0o755); err != nil {
		return nil, err
	}
	for _, name := range []string{"metaai-serve", "metaai-fleet"} {
		if _, err := os.Stat(filepath.Join(b.opt.bin, name)); err != nil {
			return nil, fmt.Errorf("binary missing (build it first, see run.sh): %w", err)
		}
	}
	ref, err := buildReference(b.opt.traced)
	if err != nil {
		return nil, fmt.Errorf("in-process reference: %w", err)
	}
	b.ref = ref
	b.order = newRand(b.opt.seed, 0x0de5).Perm(len(ref.corpus.frames))
	ports, err := freePorts("udp", b.wl.replicas+1)
	if err != nil {
		return nil, err
	}
	for _, p := range ports[:b.wl.replicas] {
		b.names = append(b.names, fmt.Sprintf("127.0.0.1:%d", p))
	}
	b.routerAddr = fmt.Sprintf("127.0.0.1:%d", ports[b.wl.replicas])
	if b.opt.traced {
		if b.sidecarPorts, err = freePorts("tcp", b.wl.replicas+1); err != nil {
			return nil, err
		}
		b.rec = newRecorder(time.Now())
		return b.rep, b.runTraced()
	}
	return b.rep, b.runUntraced()
}

// runUntraced measures the end-to-end metrics: set up several times (the
// last topology stays up), then run the workload's load.
func (b *bench) runUntraced() error {
	cl, err := b.newClient()
	if err != nil {
		return err
	}
	defer cl.close()
	var t *topo
	var setupS []float64
	for i := 0; i < setups; i++ {
		b.down(t)
		var d time.Duration
		if t, d, err = b.up(false, cl); err != nil {
			return fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupS = append(setupS, d.Seconds())
	}
	b.rep.add("setup_s", "s", median(setupS), len(setupS), true)
	b.rep.note("set-ups took %.3f s", setupS)
	defer b.down(t)
	if _, err = b.mainLoad(cl, t, b.seconds(), untracedRun); err != nil {
		return err
	}
	b.finish(cl)
	return nil
}

// finish runs the checks that span the whole run: the client's reply
// validation failures, and finite metrics.
func (b *bench) finish(cl *client) {
	for _, f := range cl.failures() {
		b.rep.fail("%s", f)
	}
	if n := cl.stale.Load(); n > 0 {
		b.rep.note("%d replies arrived after their request was written off", n)
	}
	for _, m := range b.rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.rep.fail("metric %s is %v", m.Name, m.Value)
		}
	}
}

// load is what a workload's load phase hands back to the traced run.
type load struct {
	main    outcome           // the main phase (fleet-burst: the nominal phase)
	trials  tally             // fleet-burst's capacity-search trials
	phase   *loadPhase        // the open-loop main phase
	samples []reqSample       // closed-loop traced requests
	pubs    []pubSample       // fleet-publish's publications
	epoch   *checkpoint.Epoch // replica 1's journaled cold-start epoch
}

// The three uses of a workload's load.
type loadMode int

const (
	untracedRun loadMode = iota // the end-to-end run: reports the metrics; fleet-burst searches
	baseline                    // the traced run's untraced baseline: the main phase only
	tracedRun                   // the traced load: samples requests; fleet-burst searches
)

// mainLoad runs a workload's load on a running topology; dur is the main
// phase (on fleet-burst, the nominal phase before the search).
func (b *bench) mainLoad(cl *client, t *topo, dur time.Duration, mode loadMode) (load, error) {
	report := mode == untracedRun
	switch {
	case !b.wl.fleet:
		return b.closedWorkload(cl, t, dur, mode == tracedRun, report)
	case b.wl.publish:
		return b.publishWorkload(cl, t, dur, report)
	default:
		return b.burstWorkload(cl, t, dur, b.seconds()/30, mode != baseline, report)
	}
}

// seconds is the run's measured time.
func (b *bench) seconds() time.Duration { return time.Duration(b.opt.seconds * float64(time.Second)) }

// reportCommon records the end-to-end metrics and the client's own counts
// of the untraced run's main phase.
func (b *bench) reportCommon(o outcome) {
	lat := summarize(o.Lat)
	b.rep.add("latency_p50_us", "us", lat.P50, lat.N, false)
	b.rep.add("latency_p99_us", "us", lat.P99, lat.N, false)
	b.rep.note("latency_p99_us has %d of %d samples beyond it", lat.Beyond99, lat.N)
	b.rep.add("slo_attainment", "fraction", o.sloAttainment(), o.Sent, true)
	b.rep.add("error_rate", "fraction", float64(o.Nacked+o.Lost)/float64(max(o.Sent, 1)), o.Sent, false)
	acc := float64(o.Correct) / float64(max(o.OK, 1))
	b.rep.add("accuracy", "fraction", acc, o.OK, true)
	late := summarize(o.Late)
	b.rep.add("loadgen.late_p50_us", "us", late.P50, late.N, false)
	b.rep.add("loadgen.late_p99_us", "us", late.P99, late.N, false)
	b.rep.add("loadgen.sent", "count", float64(o.Sent), 0, false)
	b.rep.add("loadgen.ok", "count", float64(o.OK), 0, false)
	b.rep.add("loadgen.nacked", "count", float64(o.Nacked), 0, false)
	b.rep.add("loadgen.lost", "count", float64(o.Lost), 0, false)
	b.rep.attempted, b.rep.failed = o.Sent, o.Nacked+o.Lost
	b.rep.note("offline AirAccuracy %.4f; NACKs by status code %v; lost %d", b.ref.airAcc, o.NackCodes, o.Lost)
}

// checkPhase gates a measured phase: the accounting (every request sent is
// exactly one of answered, NACKed or lost) and the served accuracy.
func (b *bench) checkPhase(o outcome) {
	acc := float64(o.Correct) / float64(max(o.OK, 1))
	if tol := accuracyTolerance(b.ref.airAcc); o.OK == 0 || math.Abs(acc-b.ref.airAcc) > tol {
		b.rep.fail("served accuracy %.4f over %d replies is not within %.4f of the in-process AirAccuracy %.4f",
			acc, o.OK, tol, b.ref.airAcc)
	}
	nacks := 0
	for _, n := range o.NackCodes {
		nacks += n
	}
	if o.Sent != o.OK+o.Nacked+o.Lost || nacks != o.Nacked || o.Sent == 0 {
		b.rep.fail("accounting: sent %d != ok %d + nacked %d (by code %v) + lost %d", o.Sent, o.OK, o.Nacked, o.NackCodes, o.Lost)
	}
}

// accuracyTolerance is four standard errors of an accuracy measured on
// the 250-sample test set: the served and offline accuracies are both
// noisy evaluations over the same samples, so they agree to well within it.
func accuracyTolerance(p float64) float64 {
	return 4 * math.Sqrt(p*(1-p)/250)
}

// checkSplit is the replica-split gate: on the fleet workloads each
// replica must have served its socket's half of the load.
func (b *bench) checkSplit(before, after []serverStats) {
	var total float64
	for i := range after {
		total += after[i].served - before[i].served
	}
	for i := range after {
		share := (after[i].served - before[i].served) / total
		b.rep.note("replica %d served %.0f of %.0f requests (share %.3f)", i+1, after[i].served-before[i].served, total, share)
		if total == 0 || share < 0.4 || share > 0.6 {
			b.rep.fail("replica split: replica %d served share %.3f of %.0f, want 0.4..0.6", i+1, share, total)
		}
	}
}

// closedWorkload is replica-closed's load: one socket, one request
// outstanding, for dur; sampling records traced requests for the replay.
func (b *bench) closedWorkload(cl *client, t *topo, dur time.Duration, sampling, report bool) (load, error) {
	cl.closedLoop(b.order, t.entry, warmup, b.wl.slo, nil)
	before, err := replicaStatsOf(cl, t)
	if err != nil {
		return load{}, err
	}
	var ld load
	var samples *[]reqSample
	if sampling {
		samples = &ld.samples
	}
	ld.main = cl.closedLoop(b.order, t.entry, dur, b.wl.slo, samples)
	after, err := replicaStatsOf(cl, t)
	if err != nil {
		return ld, err
	}
	// A replica counts a request served just after writing its reply, so a
	// stats read right behind the last reply may miss that one increment:
	// each end of the phase can shift the served delta by one.
	o := ld.main
	if served := int(after[0].minus(before[0]).served); served < o.OK-1 || served > o.Sent+1 {
		b.rep.fail("replica served %d requests in the phase, client saw %d answered of %d sent", served, o.OK, o.Sent)
	}
	b.checkPhase(o)
	if report {
		b.reportCommon(o)
	}
	return ld, nil
}

// burstWorkload is fleet-burst's load: the nominal phase at 400 req/s,
// then the capacity search with trials of trialDur.
func (b *bench) burstWorkload(cl *client, t *topo, nominal, trialDur time.Duration, search, report bool) (load, error) {
	b.open(cl, t, nominalRate, warmup, 1, 0)
	before, err := replicaStatsOf(cl, t)
	if err != nil {
		return load{}, err
	}
	var ld load
	ld.phase, ld.main = b.open(cl, t, nominalRate, nominal, 2, b.wl.slo)
	o := ld.main
	after, err := replicaStatsOf(cl, t)
	if err != nil {
		return ld, err
	}
	b.checkSplit(before, after)
	b.checkPhase(o)
	if report {
		b.reportCommon(o)
	}
	if !search {
		return ld, nil
	}
	var trials []outcome
	desc := []string{fmt.Sprintf("%.0f:%.3f", nominalRate, o.sloAttainment())}
	searchStart := time.Now()
	rate, err := searchMaxRate(nominalRate, o.sloAttainment() >= sloTarget, searchTol, searchTrials,
		func(rate float64) (bool, error) {
			// A failure is confirmed by a second trial, so one stall of the
			// machine cannot end the search early. The search as a whole
			// gets at most half the run's measured time.
			for attempt := 0; attempt < 2; attempt++ {
				if time.Since(searchStart) > b.seconds()/2 {
					return false, errSearchBudget
				}
				if err := b.settle(cl, t); err != nil {
					return false, err
				}
				_, to := b.open(cl, t, rate, trialDur, uint64(3+len(trials)), b.wl.slo)
				trials = append(trials, to)
				desc = append(desc, fmt.Sprintf("%.0f:%.3f", rate, to.sloAttainment()))
				if to.sloAttainment() >= sloTarget {
					return true, nil
				}
			}
			return false, nil
		})
	if err != nil && !errors.Is(err, errSearchBudget) {
		return ld, err
	}
	b.rep.note("capacity search (rate req/s : slo_attainment): %s", strings.Join(desc, " "))
	if errors.Is(err, errSearchBudget) {
		b.rep.note("capacity search ran out of trials or time before a %.0f%% bracket", 100*searchTol)
	}
	b.rep.add("max_rate_rps", "req/s", rate, len(trials)+1, false)
	for _, tr := range trials {
		ld.trials.add(tr.tally)
	}
	return ld, b.settle(cl, t)
}

// settle waits until the router routes to every replica again, then a
// little longer, so one trial's overload does not leak into the next.
func (b *bench) settle(cl *client, t *topo) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		rs, err := routerStatsOf(cl, t)
		if err == nil && int(rs.live) == len(t.replicas) {
			time.Sleep(100 * time.Millisecond)
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet did not recover every replica within 15s (last live %v, err %v)", rs.live, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// open runs one open-loop phase at rate for dur; stream separates the
// seeded schedules of a run's phases.
func (b *bench) open(cl *client, t *topo, rate float64, dur time.Duration, stream uint64, slo time.Duration) (*loadPhase, outcome) {
	sched := poissonSchedule(b.opt.seed*0x9e3779b97f4a7c15+stream, rate, tick.Seconds(), int(dur/tick))
	ph := cl.newOpenPhase(sched, tick, b.order)
	cl.run(ph, t.entry, replyTimeout)
	return ph, ph.result(slo)
}

// pubSample is one publication: append start, append end, and the moment
// the last replica's swap counter was seen to advance.
type pubSample struct{ start, appended, done time.Time }

// publishWorkload is fleet-publish's load: 400 req/s for dur while an
// epoch is appended to the router's watched journal about twice a second.
func (b *bench) publishWorkload(cl *client, t *topo, dur time.Duration, report bool) (load, error) {
	var ld load
	j1, err := checkpoint.OpenJournal(t.state1)
	if err != nil {
		return ld, err
	}
	ep, err := j1.Recover()
	if err != nil {
		return ld, fmt.Errorf("replica 1's cold-start epoch: %w", err)
	}
	if ep.Reason != "deploy" {
		return ld, fmt.Errorf("replica 1's newest epoch is a %q, want its cold-start deploy", ep.Reason)
	}
	if err := b.ref.checkJournaled(ep); err != nil {
		b.rep.fail("%v", err)
	}
	b.open(cl, t, nominalRate, warmup, 1, 0)
	before, err := replicaStatsOf(cl, t)
	if err != nil {
		return ld, err
	}
	stop := make(chan struct{})
	var pubs []pubSample
	var pubErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pubs, pubErr = b.publisher(cl, t, ep, stop)
	}()
	ph, o := b.open(cl, t, nominalRate, dur, 2, b.wl.slo)
	ld.phase, ld.main = ph, o
	close(stop)
	wg.Wait()
	if pubErr != nil {
		b.rep.fail("publication: %v", pubErr)
	}
	after, err := replicaStatsOf(cl, t)
	if err != nil {
		return ld, err
	}
	b.checkSplit(before, after)
	for i := range after {
		if got := after[i].swaps - before[i].swaps; int(got) != len(pubs) {
			b.rep.fail("replica %d swapped %.0f epochs for %d publications", i+1, got, len(pubs))
		}
	}
	var pubMs []float64
	for _, p := range pubs {
		pubMs = append(pubMs, ms(p.done.Sub(p.start)))
	}
	if len(pubMs) == 0 {
		b.rep.fail("no publication completed")
	}
	b.checkPhase(o)
	if report {
		b.reportCommon(o)
		b.rep.add("publish_ms", "ms", median(pubMs), len(pubMs), false)
	}
	ld.pubs, ld.epoch = pubs, ep
	return ld, nil
}

// publisher re-appends replica 1's cold-start epoch (reason "deploy") to
// the router's watched journal every publishMin..publishMin+publishJitter,
// seeded, and times each append until every replica's KindStats swap
// counter has advanced.
func (b *bench) publisher(cl *client, t *topo, ep *checkpoint.Epoch, stop <-chan struct{}) ([]pubSample, error) {
	j, err := checkpoint.OpenJournal(t.pubDir)
	if err != nil {
		return nil, err
	}
	r := newRand(b.opt.seed, 0x9b1)
	base, err := replicaStatsOf(cl, t)
	if err != nil {
		return nil, err
	}
	var out []pubSample
	for {
		select {
		case <-stop:
			return out, nil
		case <-time.After(publishMin + time.Duration(r.Float64()*float64(publishJitter))):
		}
		cp := *ep
		cp.Reason = "deploy"
		s := pubSample{start: time.Now()}
		if _, err := j.Append(&cp); err != nil {
			return out, err
		}
		s.appended = time.Now()
		for {
			now, err := replicaStatsOf(cl, t)
			if err == nil && now[0].swaps > base[0].swaps && (len(now) < 2 || now[1].swaps > base[1].swaps) {
				s.done = time.Now()
				base = now
				break
			}
			if time.Since(s.start) > publishWait {
				return out, fmt.Errorf("publication %d not applied by every replica after %v", len(out)+1, publishWait)
			}
			time.Sleep(time.Millisecond)
		}
		out = append(out, s)
		if err := j.Prune(2); err != nil {
			return out, err
		}
	}
}
