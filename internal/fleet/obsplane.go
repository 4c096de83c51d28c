package fleet

import (
	"bytes"
	"net"
	"sort"
	"time"

	"repro/internal/airproto"
	"repro/internal/netchaos"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// The router's half of the fleet observability plane: merged fleet
// metrics (from the obs.Snapshot blobs replicas piggyback on heartbeat
// replies), versioned fleet-level KindStats answers, and stitched
// cross-replica KindTrace fetches. KindStats and KindTrace are
// CONTROL-PLANE traffic at the router exactly as they are at replicas:
// Serve answers them itself, outside the inflight cap and the admission
// shed — an operator must be able to read a drowning fleet's vitals.

// FleetSnapshot returns the latest per-replica obs snapshots (keyed by
// member name; replicas that have not piggybacked one yet are absent) and
// their bucket-wise merge. The merge is associative/commutative, so the
// result is independent of heartbeat arrival order.
func (r *Router) FleetSnapshot() (merged obs.Snapshot, per map[string]obs.Snapshot) {
	per = make(map[string]obs.Snapshot)
	snaps := make([]obs.Snapshot, 0, 4)
	for _, m := range r.snapshotMembers() {
		if s := m.snap.Load(); s != nil {
			per[m.name] = *s
			snaps = append(snaps, *s)
		}
	}
	return obs.MergeSnapshots(snaps...), per
}

// liveMembersSorted returns the Alive members in name order — the
// deterministic fan-out order for trace fetches.
func (r *Router) liveMembersSorted() []*member {
	ms := r.snapshotMembers()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	out := ms[:0]
	for _, m := range ms {
		if r.det.State(m.name) == Alive {
			out = append(out, m)
		}
	}
	return out
}

// answerStats answers a KindStats request at the router with a
// StatsVersionFleet reply: the legacy StatsVector slots carry fleet-wide
// SUMS from the merged replica snapshots (so an old probe pointed at the
// router still reads sensible totals at the same indexes), and the
// FleetStats slots carry router-level counters and the merged p99.
func (r *Router) answerStats(conn netchaos.PacketConn, f *airproto.Frame, from *net.UDPAddr) {
	merged, _ := r.FleetSnapshot()
	c := merged.Counters
	r.writeTo(conn, from, airproto.StatsReply(f.ID, &airproto.Stats{
		Served: c["serve.served"], Heals: c["serve.heals"], Swaps: c["serve.swaps"],
		Rollbacks: c["serve.rollbacks"], CanaryRejects: c["serve.canary_rejects"],
		Shed: c["serve.shed"], Expired: c["serve.expired"], EpochSeq: int64(r.CurrentTid()),
		Fleet: &airproto.FleetStats{
			Live: int64(len(r.liveMembersSorted())), Forwards: forwardCount.Value(),
			Failovers: failoverCount.Value(), HedgedWins: hedgedWinCount.Value(),
			Shed: shedCount.Value(), Expired: expiredCount.Value(),
			P99Micros: merged.Histograms["serve.request.seconds"].Quantile(0.99) * 1e6,
		},
	}))
}

// answerTrace resolves a KindTrace fetch fleet-wide: the router's own
// retained root segment (if any) plus every live replica's remote segment
// of the same trace ID, stitched into ONE Chrome-JSON document. With no
// router segment (tracing off at the router, or the trace sampled out)
// the first replica segment found anchors the stitch, so the router
// degrades into a fetch relay. The request's TraceFlagNormalize bit is
// honored locally and propagated on the fan-out.
func (r *Router) answerTrace(conn netchaos.PacketConn, f *airproto.Frame, from *net.UDPAddr) {
	id := f.TraceID()
	opt := trace.ExportOptions{Normalize: f.Code&airproto.TraceFlagNormalize != 0}
	var rootDoc []byte
	if tr, flags := r.cfg.Tracer.Get(trace.ID(id)); tr != nil {
		rootDoc = trace.MarshalJSON(tr, flags, opt)
	}
	var hopDocs [][]byte
	for _, m := range r.liveMembersSorted() {
		doc, ok := r.fetchRemoteTrace(m, id, f.Code)
		if !ok {
			continue
		}
		dup := bytes.Equal(doc, rootDoc)
		for _, seen := range hopDocs {
			dup = dup || bytes.Equal(doc, seen)
		}
		if !dup { // a late duplicate reply can smear across fan-out slots
			hopDocs = append(hopDocs, doc)
		}
	}
	if rootDoc == nil && len(hopDocs) > 0 {
		rootDoc, hopDocs = hopDocs[0], hopDocs[1:]
	}
	if rootDoc == nil {
		r.writeTo(conn, from, airproto.Nack(f.ID, airproto.StatusNoTrace, 0))
		return
	}
	doc := rootDoc
	if len(hopDocs) > 0 {
		doc = trace.StitchJSON(rootDoc, hopDocs...)
	}
	r.writeTo(conn, from, airproto.TraceReply(f.ID, doc))
}

// fetchRemoteTrace pulls one replica's segment of a trace over the
// upstream socket. KindTrace replies echo the trace ID's low half as the
// frame ID (the 64-bit ID rides ID+Label), so the exchange registers on
// that — and because every replica's reply shares it, the fan-out runs
// one member at a time.
func (r *Router) fetchRemoteTrace(m *member, id uint64, code uint8) ([]byte, bool) {
	req := airproto.TraceRequest(id)
	req.Code = code
	ch, settle := r.await(req.ID)
	defer settle()
	out, err := req.Marshal()
	if err != nil {
		return nil, false
	}
	if _, err := r.up.WriteToUDP(out, m.addr); err != nil {
		return nil, false
	}
	timer := time.NewTimer(r.cfg.HeartbeatTimeout)
	defer timer.Stop()
	for {
		select {
		case f := <-ch:
			if f.IsNack() {
				return nil, false // StatusNoTrace: this replica holds no segment
			}
			if f.Kind != airproto.KindTrace || len(f.Payload) == 0 {
				continue // stale datagram matched the ID; keep waiting
			}
			return f.Payload, true
		case <-timer.C:
			return nil, false
		case <-r.stop:
			return nil, false
		}
	}
}
