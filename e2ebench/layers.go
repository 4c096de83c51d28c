package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	metaai "repro"

	"repro/internal/airproto"
	"repro/internal/checkpoint"
	"repro/internal/clocksync"
	"repro/internal/cplx"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/mobility"
	"repro/internal/nn"
	"repro/internal/ota"
)

// canarySeed mirrors metaai-serve at its default -seed 1: a replica judges
// a replicated epoch on test samples 64..95 (replayer.probe), with both
// sessions seeded by seed^0xca9a.
const canarySeed = 1 ^ 0xca9a

// reference is the in-process twin of what every replica serves:
// metaai.Run(metaai.DefaultConfig("mnist")), the configuration a replica
// cold-starts with at default flags.
type reference struct {
	pipe   *metaai.Pipeline
	corpus *corpus
	epoch  *checkpoint.Epoch // the cold-start epoch a replica journals
	airAcc float64           // offline pipe.AirAccuracy()

	// Set-up split (traced runs only), in milliseconds.
	datasetMs, trainMs, deployMs float64
}

func buildReference(timeSetup bool) (*reference, error) {
	cfg := metaai.DefaultConfig("mnist")
	ref := &reference{}
	if timeSetup {
		t0 := time.Now()
		ds, err := dataset.Load(cfg.Dataset, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		enc := nn.Encoder{Scheme: cfg.Scheme}
		nn.EncodeSet(ds.Train, ds.Classes, enc)
		nn.EncodeSet(ds.Test, ds.Classes, enc)
		ref.datasetMs = ms(time.Since(t0))
	}
	t0 := time.Now()
	pipe, err := metaai.Run(cfg)
	if err != nil {
		return nil, err
	}
	runMs := ms(time.Since(t0))
	if timeSetup {
		t1 := time.Now()
		if _, err := metaai.Resume(cfg, pipe.Model); err != nil {
			return nil, err
		}
		resumeMs := ms(time.Since(t1))
		ref.trainMs = runMs - resumeMs
		ref.deployMs = resumeMs - ref.datasetMs
	}
	ref.pipe = pipe
	if ref.corpus, err = newCorpus(pipe.Test); err != nil {
		return nil, err
	}
	ref.airAcc = pipe.AirAccuracy()
	det := cfg.EffectiveDetector(pipe.Train.U)
	ref.epoch = &checkpoint.Epoch{
		Reason: "deploy",
		Meta:   checkpoint.Meta{Dataset: cfg.Dataset, Seed: cfg.Seed, DetShape: det.Shape, DetScale: det.Scale},
		State:  pipe.Deployment().State(),
	}
	return ref, nil
}

// checkJournaled is the deployment-identity gate: the deployment the
// benchmark replays must be byte-identical to the one a replica journaled.
func (ref *reference) checkJournaled(ep *checkpoint.Epoch) error {
	want := checkpoint.EncodeDeployment(ref.epoch.State)
	got := checkpoint.EncodeDeployment(ep.State)
	if !bytes.Equal(want, got) {
		return fmt.Errorf("replica 1 journaled a %d-byte deployment that differs from the %d-byte in-process one", len(got), len(want))
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Calls per replay span for the nanosecond-scale layers, so one span is
// long against the clock reads around it.
const (
	decodeReps = 16
	encodeReps = 64
	routeReps  = 64
)

// replayer re-runs, in process and after the load phase, the layer calls
// one request or one publication made, recording each as a span.
type replayer struct {
	ref   *reference
	rec   *recorder
	sess  *ota.Session
	acc   cplx.Vec
	out   []byte // the replica's reply
	fwd   []byte // the router's forwarded request
	relay []byte // the router's reply to the client
	ring  *fleet.Ring
	dir   string // scratch journal for checkpoint.append
	jrnl  *checkpoint.Journal
	probe [][]complex128
}

func newReplayer(ref *reference, rec *recorder, members []string, dir string) (*replayer, error) {
	j, err := checkpoint.OpenJournal(dir)
	if err != nil {
		return nil, err
	}
	ring := fleet.NewRing()
	for _, m := range members {
		ring.Add(m)
	}
	return &replayer{
		ref:   ref,
		rec:   rec,
		sess:  ref.pipe.Deployment().SessionFromSeed(0xbe7c),
		acc:   make(cplx.Vec, ref.pipe.Deployment().Classes()),
		ring:  ring,
		dir:   dir,
		jrnl:  j,
		probe: ref.pipe.Test.X[64:96],
	}, nil
}

// request replays one data request's layer calls on its exact request
// bytes under a bench.replay span of trace, one span per call the request
// meets on its path: on the fleet path the router decodes, routes and
// re-marshals the request, the replica decodes, infers and encodes the
// reply, and the router decodes and re-marshals the reply.
func (rp *replayer) request(trace uint64, req []byte, key uint64, routed bool) error {
	root := rp.rec.begin(trace, 0, "bench.replay")
	defer rp.rec.end(root)
	var f *airproto.Frame
	var err error
	decode := func() { f, err = airproto.Unmarshal(req) }
	if routed {
		rp.rec.timed(trace, root, "airproto.decode", decodeReps, decode)
		rp.rec.timed(trace, root, "fleet.route", routeReps, func() { rp.ring.Route(key, rp.ring.Len()) })
		rp.rec.timed(trace, root, "airproto.encode_request", decodeReps, func() { rp.fwd, err = f.MarshalAppend(rp.fwd[:0]) })
	}
	rp.rec.timed(trace, root, "airproto.decode", decodeReps, decode)
	if err != nil {
		return err
	}
	rp.rec.timed(trace, root, "ota.infer", 1, func() { rp.sess.AccumulateInto(f.Data, rp.acc) })
	resp := airproto.Frame{ID: f.ID, Label: f.Label, Data: rp.acc}
	rp.rec.timed(trace, root, "airproto.encode", encodeReps, func() { rp.out, err = resp.MarshalAppend(rp.out[:0]) })
	if err != nil || !routed {
		return err
	}
	var back *airproto.Frame
	rp.rec.timed(trace, root, "airproto.decode_reply", decodeReps, func() { back, err = airproto.Unmarshal(rp.out) })
	if err != nil {
		return err
	}
	rp.rec.timed(trace, root, "airproto.encode", encodeReps, func() { rp.relay, err = back.MarshalAppend(rp.relay[:0]) })
	return err
}

// pathCalls lists the replayed layer calls one request makes on its path,
// by span name: what the per-layer p50 self times are summed over.
func pathCalls(routed bool) []string {
	if routed {
		return []string{"airproto.decode", "fleet.route", "airproto.encode_request", "airproto.decode",
			"ota.infer", "airproto.encode", "airproto.decode_reply", "airproto.encode"}
	}
	return []string{"airproto.decode", "ota.infer", "airproto.encode"}
}

// publication replays one epoch's replication path: seal, chunk and
// marshal for the wire, decode and rebuild on the replica, the canary
// agreement run, and the journal append. It returns the chunk count and
// wire bytes.
func (rp *replayer) publication(trace uint64, ep *checkpoint.Epoch) (chunks, wire int, err error) {
	root := rp.rec.begin(trace, 0, "bench.replay")
	defer rp.rec.end(root)
	var sealed []byte
	rp.rec.timed(trace, root, "checkpoint.encode", 1, func() { sealed = checkpoint.EncodeEpoch(ep) })
	rp.rec.timed(trace, root, "airproto.chunk", 1, func() {
		var frames []*airproto.Frame
		if frames, err = fleet.Chunks(1, airproto.PushCommit, sealed, fleet.DefaultChunkBytes, 1); err != nil {
			return
		}
		chunks, wire = len(frames), 0
		for _, fr := range frames {
			b, merr := fr.Marshal()
			if merr != nil {
				err = merr
				return
			}
			wire += len(b)
		}
	})
	if err != nil {
		return 0, 0, err
	}
	var got *checkpoint.Epoch
	rp.rec.timed(trace, root, "checkpoint.decode", 1, func() { got, err = checkpoint.DecodeEpoch(sealed) })
	if err != nil {
		return 0, 0, err
	}
	var d *ota.Deployment
	rp.rec.timed(trace, root, "ota.from_state", 1, func() { d, err = ota.FromState(got.State) })
	if err != nil {
		return 0, 0, err
	}
	// A replica rebuilds the clock-sync sampler from the epoch's meta
	// before judging it, exactly as on recovery.
	if m := got.Meta; m.DetShape > 0 {
		det := clocksync.CoarseDetector{Shape: m.DetShape, Scale: m.DetScale}
		d = d.WithSyncSampler(clocksync.CoarseSampler(det, d.Options().SymbolRateHz))
	}
	var agree float64
	rp.rec.timed(trace, root, "mobility.canary", 1, func() {
		agree = mobility.Agreement(d.SessionFromSeed(canarySeed), rp.ref.pipe.Deployment().SessionFromSeed(canarySeed), rp.probe)
	})
	if agree != 1 {
		return 0, 0, fmt.Errorf("canary agreement %.3f for the serving deployment itself", agree)
	}
	cp := *ep
	rp.rec.timed(trace, root, "checkpoint.append", 1, func() { _, err = rp.jrnl.Append(&cp) })
	if err != nil {
		return 0, 0, err
	}
	return chunks, wire, rp.jrnl.Prune(2)
}

// batch8 times one AccumulateBatch sweep of 8 requests and returns the
// per-request time in µs.
func (rp *replayer) batch8(xs [][]complex128) float64 {
	dst := make([]cplx.Vec, len(xs))
	rp.sess.AccumulateBatch(xs, dst) // size the scratch
	t0 := time.Now()
	rp.sess.AccumulateBatch(xs, dst)
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(xs))
}

// allocsPerCall counts heap allocations per call of fn over n calls.
func allocsPerCall(n int, fn func()) float64 {
	fn() // warm any lazily sized scratch
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// layerAllocs measures the allocation counts the per-layer table reports.
func (rp *replayer) layerAllocs(req []byte, key uint64) (decode, infer, route float64, err error) {
	f, err := airproto.Unmarshal(req)
	if err != nil {
		return 0, 0, 0, err
	}
	decode = allocsPerCall(1000, func() { airproto.Unmarshal(req) })
	infer = allocsPerCall(200, func() { rp.sess.AccumulateInto(f.Data, rp.acc) })
	route = allocsPerCall(1000, func() { rp.ring.Route(key, rp.ring.Len()) })
	return decode, infer, route, nil
}

func (rp *replayer) close() { os.RemoveAll(rp.dir) }
