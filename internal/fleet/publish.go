package fleet

import (
	"errors"
	"fmt"
	"net"
	"time"

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
		// fleet is unchanged. The canary is in trouble, though.
		r.det.ReportForward(canary.name, true, time.Now())
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
	type outcome struct {
		m        *member
		rejected bool
		err      error
	}
	results := make(chan outcome, len(order)-1)
	for _, m := range order[1:] {
		m := m
		go func() {
			a, err := r.pushEpoch(m, tid, sealed, airproto.PushCommit)
			if err != nil {
				results <- outcome{m: m, err: err}
				return
			}
			results <- outcome{m: m, rejected: a.Code != airproto.AckApplied}
		}()
	}
	rejected := false
	applied := 1 // the canary
	for range order[1:] {
		res := <-results
		switch {
		case res.err != nil:
			// Dead mid-publish: evict and continue — the survivors converge
			// now, the corpse catches up when it rejoins.
			r.evict(res.m, fmt.Sprintf("unreachable during publish %d: %v", tid, res.err))
		case res.rejected:
			rejected = true
			r.cfg.Logf("fleet: replica %s refused epoch %d during fan-out", res.m.name, ep.Seq)
		default:
			res.m.fleetVer.Store(r.ver(tid))
			applied++
		}
	}
	if rejected {
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
		events.Num("replicas", float64(applied)))
	r.cfg.Logf("fleet: epoch %d committed fleet-wide as seq %d (%d replicas)", ep.Seq, tid, applied)
	return nil
}

// rollbackFleet pushes the prior sealed epoch to every live replica in
// PushRollback mode under a fresh fleet sequence. Callers hold pubMu.
func (r *Router) rollbackFleet(sealed []byte, pid trace.ID) {
	rtid := r.pubSeq.Add(1)
	rollbackCount.Inc()
	order := r.liveRoute(uint64(rtid), 1<<16)
	done := make(chan struct{}, len(order))
	for _, m := range order {
		m := m
		go func() {
			defer func() { done <- struct{}{} }()
			ack, err := r.pushEpoch(m, rtid, sealed, airproto.PushRollback)
			if err != nil {
				r.evict(m, fmt.Sprintf("unreachable during rollback %d: %v", rtid, err))
				return
			}
			if ack.Code != airproto.AckApplied {
				r.cfg.Logf("fleet: replica %s refused ROLLBACK epoch (seq %d) — manual intervention needed", m.name, rtid)
				return
			}
			m.fleetVer.Store(r.ver(rtid))
		}()
	}
	for range order {
		<-done
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

// pushEpoch streams one sealed epoch to a member as transfer tid: chunked
// stop-and-wait over a dedicated socket, PublishRetries sends per chunk,
// PublishTimeout per ack. It returns the completing ack (AckApplied or
// AckRejected). An error means the member never finished the transfer.
func (r *Router) pushEpoch(m *member, tid uint32, sealed []byte, mode uint8) (*airproto.Frame, error) {
	frames, err := Chunks(tid, mode, sealed, r.cfg.ChunkBytes, r.incar)
	if err != nil {
		return nil, err
	}
	sock, err := net.DialUDP("udp", nil, m.addr)
	if err != nil {
		return nil, err
	}
	defer sock.Close()
	buf := make([]byte, 65535)
	for i, fr := range frames {
		out, err := fr.Marshal()
		if err != nil {
			return nil, err
		}
		acked := false
		for attempt := 0; attempt < r.cfg.PublishRetries && !acked; attempt++ {
			if _, err := sock.Write(out); err != nil {
				return nil, err
			}
			chunkCount.Inc()
			if err := sock.SetReadDeadline(time.Now().Add(r.cfg.PublishTimeout)); err != nil {
				return nil, err
			}
			for !acked {
				n, err := sock.Read(buf)
				if err != nil {
					break // timeout: resend this chunk
				}
				af, err := airproto.Unmarshal(buf[:n])
				if err != nil || af.Kind != airproto.KindEpochAck || af.ID != tid {
					continue // stray datagram: keep reading within the deadline
				}
				if af.Code != airproto.AckChunk {
					// The completing verdict — possibly early (a duplicate
					// transfer the replica already finished, or a mid-stream
					// rejection). Final only if it is about THIS
					// incarnation's transfer: a verdict echoing another
					// nonce is a stale cache answer about different bytes.
					if _, _, nonce := af.AckInfo(); nonce != r.incar {
						continue
					}
					return af, nil
				}
				if idx, _, _ := af.AckInfo(); idx == i {
					acked = true
				}
			}
		}
		if !acked {
			return nil, fmt.Errorf("no ack for chunk %d/%d after %d attempts", i+1, len(frames), r.cfg.PublishRetries)
		}
	}
	return nil, fmt.Errorf("transfer %d fully acked but never completed", tid)
}
