package fleet

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/airproto"
	"repro/internal/checkpoint"
	"repro/internal/obs/events"
	"repro/internal/obs/trace"
)

// ErrRefused marks a permanent Publish verdict: the epoch itself was judged
// bad — it would not decode, the canary rejected it, or a fan-out replica
// refused it — and retrying the same bytes can never succeed. Publish
// errors NOT wrapping ErrRefused are transient transport failures (no live
// replicas yet, canary unreachable, chunk ack timeouts): the fleet is
// unchanged or already rolled back, and the same epoch should be offered
// again. Callers gate retry-vs-skip on errors.Is(err, ErrRefused).
var ErrRefused = errors.New("epoch refused")

// Publish replicates one sealed checkpoint epoch across the fleet:
//
//  1. Validate — the bytes must decode as a sealed epoch before a single
//     chunk ships; the wire format IS the journal format, so replicas
//     journal exactly what the coordinator holds.
//  2. Canary — the first live replica in ring order (keyed by the transfer
//     sequence) receives the epoch in PushCanary mode, applies it, and
//     reports its prediction agreement against its previous serving state
//     on the held-out probes. A rejection or an agreement below CanaryFrac
//     stops the publication and rolls the canary — and the rest of the
//     fleet — back to the prior epoch under a fresh sequence, so the fleet
//     still converges.
//  3. Fan-out — every other live replica gets the epoch in PushCommit mode
//     in parallel. A replica that dies mid-push is evicted and catches up
//     via anti-entropy when it rejoins; a live replica that REFUSES the
//     epoch triggers a fleet-wide rollback (refusal means the epoch cannot
//     be trusted anywhere).
//
// Every completed Publish — success, canary rejection, or fan-out rollback
// — leaves all live replicas converged on the same fleet sequence.
func (r *Router) Publish(sealed []byte) error {
	ep, err := checkpoint.DecodeEpoch(sealed)
	if err != nil {
		return fmt.Errorf("fleet: refusing to publish: %w (%w)", err, ErrRefused)
	}
	r.pubMu.Lock()
	defer r.pubMu.Unlock()

	r.mu.Lock()
	rollback := r.current
	r.mu.Unlock()

	tid := r.pubSeq.Add(1)
	pid := trace.Derive(0xf1ee7, uint64(tid))
	sp := r.cfg.Tracer.Start("fleet.publish", pid)
	defer sp.Finish(0)
	sp.SetNum("fleet_seq", float64(tid))
	sp.SetNum("epoch_seq", float64(ep.Seq))

	order := r.liveRoute(uint64(tid), 1<<16)
	if len(order) == 0 {
		return fmt.Errorf("fleet: no live replicas to publish epoch %d to", ep.Seq)
	}
	publishCount.Inc()
	canary := order[0]
	r.cfg.Logf("fleet: publishing epoch %d (seq %d) via canary %s to %d replicas",
		ep.Seq, tid, canary.name, len(order))

	csp := sp.Child("fleet.canary")
	ack, err := r.pushEpoch(canary, tid, sealed, airproto.PushCanary)
	if err != nil {
		csp.End()
		// The transfer never completed, so the canary applied nothing: the
		// fleet is unchanged.
		return fmt.Errorf("fleet: canary %s unreachable: %w", canary.name, err)
	}
	_, agreement, _ := ack.AckInfo()
	csp.SetNum("agreement", agreement)
	csp.End()
	if ack.Code != airproto.AckApplied || agreement < r.cfg.CanaryFrac {
		canaryRejects.Inc()
		events.Default().EmitTraced(pid, events.CanaryVerdict, "fleet canary refused epoch",
			events.Str("member", canary.name),
			events.Num("agreement", agreement),
			events.Num("min_agreement", r.cfg.CanaryFrac),
			events.Num("fleet_seq", float64(tid)))
		// The canary may now be serving the bad epoch; roll the whole fleet
		// (canary included) back to the prior one under a fresh sequence so
		// every live replica converges again.
		if rollback != nil && ack.Code == airproto.AckApplied {
			r.rollbackFleet(rollback, pid)
		} else if rollback == nil && ack.Code == airproto.AckApplied {
			r.cfg.Logf("fleet: WARNING: canary %s holds a rejected epoch and no rollback target exists", canary.name)
		}
		return fmt.Errorf("fleet: canary %s refused epoch %d (verdict %d, agreement %.2f < %.2f): %w",
			canary.name, ep.Seq, ack.Code, agreement, r.cfg.CanaryFrac, ErrRefused)
	}

	// Canary holds the new epoch; fan out to the rest in parallel.
	applied, refused := r.pushAll(order[1:], tid, sealed, airproto.PushCommit)
	if refused > 0 {
		// A live replica refused what the canary accepted: the epoch cannot
		// be trusted anywhere. Converge everyone back on the prior one.
		events.Default().EmitTraced(pid, events.FleetPublish, "fan-out refusal, rolling fleet back",
			events.Num("fleet_seq", float64(tid)))
		if rollback != nil {
			r.rollbackFleet(rollback, pid)
		}
		return fmt.Errorf("fleet: epoch %d refused during fan-out, fleet rolled back: %w", ep.Seq, ErrRefused)
	}
	r.mu.Lock()
	r.current = sealed
	r.currentTid = tid
	r.mu.Unlock()
	canary.fleetVer.Store(r.ver(tid))
	r.persistState()
	events.Default().EmitTraced(pid, events.FleetPublish, "epoch replicated fleet-wide",
		events.Num("epoch_seq", float64(ep.Seq)),
		events.Num("fleet_seq", float64(tid)),
		events.Num("replicas", float64(applied+1)))
	r.cfg.Logf("fleet: epoch %d committed fleet-wide as seq %d (%d replicas)", ep.Seq, tid, applied+1)
	return nil
}

// rollbackFleet pushes the prior sealed epoch to every live replica in
// PushRollback mode under a fresh fleet sequence. Callers hold pubMu.
func (r *Router) rollbackFleet(sealed []byte, pid trace.ID) {
	rtid := r.pubSeq.Add(1)
	rollbackCount.Inc()
	order := r.liveRoute(uint64(rtid), 1<<16)
	if _, refused := r.pushAll(order, rtid, sealed, airproto.PushRollback); refused > 0 {
		r.cfg.Logf("fleet: %d replicas refused the ROLLBACK epoch (seq %d) — manual intervention needed", refused, rtid)
	}
	r.mu.Lock()
	r.current = sealed
	r.currentTid = rtid
	r.mu.Unlock()
	r.persistState()
	events.Default().EmitTraced(pid, events.Rollback, "fleet rolled back to prior epoch",
		events.Num("fleet_seq", float64(rtid)),
		events.Num("replicas", float64(len(order))))
	r.cfg.Logf("fleet: rolled %d replicas back to the prior epoch as seq %d", len(order), rtid)
}

// pushAll pushes one sealed epoch to every member of ms at once, as
// transfer tid in the given mode, and waits for every push to end. A member
// that never finishes the transfer is evicted (it catches up through
// anti-entropy once it rejoins), and one that applies it reports tid as its
// fleet version. It returns how many applied and how many refused.
func (r *Router) pushAll(ms []*member, tid uint32, sealed []byte, mode uint8) (applied, refused int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, m := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ack, err := r.pushEpoch(m, tid, sealed, mode)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				r.evict(m, fmt.Sprintf("unreachable during transfer %d: %v", tid, err))
			case ack.Code != airproto.AckApplied:
				refused++
				r.cfg.Logf("fleet: replica %s refused transfer %d (push mode %d)", m.name, tid, mode)
			default:
				m.fleetVer.Store(r.ver(tid))
				applied++
			}
		}()
	}
	wg.Wait()
	return applied, refused
}

// pushEpoch streams one sealed epoch to a member as transfer tid, chunk by
// chunk, each chunk one call on the upstream socket: up to PublishRetries
// sends, each waiting PublishTimeout. A chunk's call takes the ack for that
// chunk, or a completing verdict (AckApplied or AckRejected) that echoes
// this incarnation's nonce — possibly early: a duplicate transfer the
// replica already finished, or a mid-stream rejection. A verdict echoing
// another nonce is a stale cache answer about different bytes. pushEpoch
// returns the completing verdict; an error means the member never finished
// the transfer.
func (r *Router) pushEpoch(m *member, tid uint32, sealed []byte, mode uint8) (*airproto.Frame, error) {
	frames, err := Chunks(tid, mode, sealed, r.cfg.ChunkBytes, r.incar)
	if err != nil {
		return nil, err
	}
	for i, fr := range frames {
		takes := func(f *airproto.Frame) bool {
			idx, _, nonce := f.AckInfo()
			return f.Kind == airproto.KindEpochAck &&
				(f.Code == airproto.AckChunk && idx == i || f.Code != airproto.AckChunk && nonce == r.incar)
		}
		var ack *airproto.Frame
		for attempt := 0; attempt < r.cfg.PublishRetries && ack == nil; attempt++ {
			chunkCount.Inc()
			ack = r.call(m, fr, r.cfg.PublishTimeout, takes)
		}
		if ack == nil {
			return nil, fmt.Errorf("no ack for chunk %d/%d after %d attempts", i+1, len(frames), r.cfg.PublishRetries)
		}
		if ack.Code != airproto.AckChunk {
			return ack, nil
		}
	}
	return nil, fmt.Errorf("transfer %d fully acked but never completed", tid)
}
