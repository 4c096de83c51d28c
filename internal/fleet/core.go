package fleet

import (
	"bytes"
	"container/heap"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"time"

	"repro/internal/airproto"
	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/obs/events"
	"repro/internal/obs/trace"
	"repro/internal/rng"
)

// core takes every decision the router takes, with no clock, goroutine,
// lock or socket of its own. Its caller (the Router shell, or the seed
// sweep) hands it each frame, Publish call and due deadline with the time,
// then writes out, delivers verdicts, and journals state() when dirty.
// Exchanges wait in pend; hedges, timeouts and ticks are alarms on a heap.
type core struct {
	cfg     Config
	incar   uint32 // this incarnation's nonce; see Router.Incarnation
	det     *Detector
	ring    *Ring // every member met; the detector alone decides who is routable
	members map[string]*member

	current    []byte // sealed epoch the fleet converges on (nil before the first publish)
	currentTid uint32
	pubSeq     uint32
	pubs       []*publication // the running publication first, then the queued ones
	catchups   int            // catch-up transfers running; none runs beside a publication

	nextID   uint32
	fwdSeq   uint64 // numbers forwards; with the client frame ID it derives the trace ID
	inflight int

	pend   map[callKey]*waiter
	alarms alarms
	beat   alarm // the heartbeat tick

	out      []datagram
	verdicts []verdict
	dirty    bool
}

// member is the router's record of one replica.
type member struct {
	name string
	addr *net.UDPAddr
	key  netip.AddrPort // addr as replies are keyed
	// fleetVer is the (nonce << 32 | seq) the replica last reported or
	// applied, as of verAt (see record).
	fleetVer   uint64
	verAt      time.Time
	catchingUp bool
	snap       *obs.Snapshot // the latest piggybacked snapshot (nil until one lands)
}

// datagram is one write: on the upstream socket when client is nil, else on
// the client socket client names. A nil b (the frame would not marshal) or
// a failed write of exchange w goes back to the core as unsent(w).
type datagram struct {
	client any
	to     *net.UDPAddr
	b      []byte
	w      *waiter
}

// verdict is one publication's outcome for the Publish call tagged tag.
type verdict struct {
	tag any
	err error
}

// callKey is what a reply matches on: every replica answers a trace fetch
// or a push chunk under the same frame ID, so the address is part of it.
type callKey struct {
	addr netip.AddrPort
	id   uint32
}

// keyOf keys a reply from addr, unmapped: ReadFromUDP may report an IPv4
// source as a 16-byte address.
func keyOf(addr *net.UDPAddr, id uint32) callKey {
	ap := addr.AddrPort()
	return callKey{netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), id}
}

// waiter is one exchange awaiting a replica's reply: a forward attempt (fw
// set), which takes data replies, or a call, whose got hears the first
// control reply takes accepts, or nil on its timeout or a failed write.
type waiter struct {
	key   callKey
	next  *waiter // another exchange under the same key
	fw    *forwarding
	i     int
	c     *core
	takes func(*airproto.Frame) bool
	got   func(now time.Time, f *airproto.Frame)
	alarm
}

func (w *waiter) due(now time.Time) {
	if w.c.unlink(w) {
		w.got(now, nil)
	}
}

// alarm is one entry of the deadline heap: of.due runs once at passes.
type alarm struct {
	at  time.Time
	idx int
	of  interface{ due(now time.Time) }
}

type alarms []*alarm

func (h alarms) Len() int           { return len(h) }
func (h alarms) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h alarms) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].idx, h[j].idx = i, j }
func (h *alarms) Push(x any)        { a := x.(*alarm); a.idx = len(*h); *h = append(*h, a) }
func (h *alarms) Pop() any {
	old := *h
	a := old[len(old)-1]
	old[len(old)-1], a.idx = nil, -1
	*h = old[:len(old)-1]
	return a
}

func newCore(cfg Config, incar uint32, now time.Time) *core {
	c := &core{cfg: cfg.withDefaults(), incar: incar, ring: NewRing(),
		members: make(map[string]*member), pend: make(map[callKey]*waiter)}
	c.det = NewDetector(c.cfg.Detector, rng.New(c.cfg.Seed^0xf1ee7))
	c.beat.of = c
	c.arm(&c.beat, now.Add(c.cfg.HeartbeatEvery))
	return c
}

// add records a member and puts it on the ring.
func (c *core) add(name string, addr *net.UDPAddr) *member {
	m := &member{name: name, addr: addr, key: keyOf(addr, 0).addr}
	c.members[name] = m
	c.ring.Add(name)
	return m
}

// restore applies a journaled state. A corrupt journal is an error:
// discarding it would restart sequences from 1.
func (c *core) restore(b []byte) error {
	st, err := checkpoint.DecodeFleetState(b)
	if err != nil {
		return fmt.Errorf("fleet: restore state: %w", err)
	}
	c.pubSeq, c.currentTid, c.current = st.PubSeq, st.CurrentTid, st.Current
	for _, m := range st.Members {
		if _, ok := c.members[m.Name]; ok {
			continue // a seed replica re-declared on the command line wins
		}
		if ap, err := netip.ParseAddrPort(m.Addr); err == nil {
			c.add(m.Name, net.UDPAddrFromAddrPort(ap))
		} else {
			c.cfg.Logf("fleet: journaled member %s has unparsable addr %q, dropping", m.Name, m.Addr)
		}
	}
	c.cfg.Logf("fleet: restored coordinator state: pubSeq %d, committed seq %d, %d members, epoch bytes %d (fresh incarnation %#x)",
		st.PubSeq, st.CurrentTid, len(c.members), len(st.Current), c.incar)
	return nil
}

// state is the coordinator state to journal.
func (c *core) state() *checkpoint.FleetState {
	st := &checkpoint.FleetState{PubSeq: c.pubSeq, CurrentTid: c.currentTid, Current: c.current}
	for _, m := range c.sorted() {
		st.Members = append(st.Members, checkpoint.FleetMember{Name: m.name, Addr: m.addr.String()})
	}
	return st
}

// sorted returns the members in name order, the order every fan-out uses.
func (c *core) sorted() []*member {
	out := make([]*member, 0, len(c.members))
	for _, m := range c.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (c *core) ver(tid uint32) uint64 { return uint64(c.incar)<<32 | uint64(tid) }

// record notes that the member held v at asOf, unless a newer fact is
// recorded: a heartbeat reply delayed past a transfer's verdict reports the
// version from before the transfer.
func (m *member) record(v uint64, asOf time.Time) {
	if !asOf.Before(m.verAt) {
		m.fleetVer, m.verAt = v, asOf
	}
}

// newID returns a fresh upstream frame ID; a replica's unattributable
// bad-frame NACK carries ID 0.
func (c *core) newID() uint32 {
	if c.nextID++; c.nextID == 0 {
		c.nextID++
	}
	return c.nextID
}

func (c *core) arm(a *alarm, at time.Time) {
	if a.at = at; c.armed(a) {
		heap.Fix(&c.alarms, a.idx)
	} else {
		heap.Push(&c.alarms, a)
	}
}

func (c *core) disarm(a *alarm) {
	if c.armed(a) {
		heap.Remove(&c.alarms, a.idx)
	}
}

func (c *core) armed(a *alarm) bool {
	return a.idx >= 0 && a.idx < len(c.alarms) && c.alarms[a.idx] == a
}

// next is when the earliest alarm (at latest the heartbeat tick) is due.
func (c *core) next() time.Time { return c.alarms[0].at }

// advance runs every alarm due at now.
func (c *core) advance(now time.Time) {
	for !now.Before(c.next()) {
		heap.Pop(&c.alarms).(*alarm).of.due(now)
	}
}

func (c *core) link(w *waiter) { w.next, c.pend[w.key] = c.pend[w.key], w }

// unlink takes w out of the pending table and reports whether it was there.
func (c *core) unlink(w *waiter) bool {
	p := c.pend[w.key]
	if p == w {
		if w.next == nil {
			delete(c.pend, w.key)
		} else {
			c.pend[w.key] = w.next
		}
		return true
	}
	for ; p != nil; p = p.next {
		if p.next == w {
			p.next = w.next
			return true
		}
	}
	return false
}

// call sends f to m as an exchange taking the replies takes accepts: got
// hears the first of them, or nil once wait has passed or the write failed.
func (c *core) call(now time.Time, m *member, f *airproto.Frame, wait time.Duration,
	takes func(*airproto.Frame) bool, got func(time.Time, *airproto.Frame)) {
	w := &waiter{key: callKey{m.key, f.ID}, c: c, takes: takes, got: got}
	w.of = w
	c.link(w)
	c.arm(&w.alarm, now.Add(wait))
	c.emit(nil, m.addr, f, w)
}

// emit queues f for a client (client set) or as exchange w.
func (c *core) emit(client any, to *net.UDPAddr, f *airproto.Frame, w *waiter) {
	b, _ := f.Marshal()
	c.out = append(c.out, datagram{client, to, b, w})
}

// client takes one frame from the client socket (nil: it would not
// decode). Data requests are forwarded; stats and trace requests the router
// answers itself, outside admission; joins update membership.
func (c *core) client(now time.Time, via any, from *net.UDPAddr, f *airproto.Frame) {
	switch {
	case f == nil:
		c.emit(via, from, airproto.Nack(0, airproto.StatusBadFrame, 0), nil)
	case f.Kind == airproto.KindJoin:
		c.join(now, from, f)
	case f.Kind == airproto.KindStats:
		c.emit(via, from, c.stats(f), nil)
	case f.Kind == airproto.KindTrace:
		c.fetchTrace(now, via, from, f)
	case f.Kind == airproto.KindData:
		c.forward(now, via, from, f)
	}
}

// reply hands a replica's datagram to the first exchange under its sender
// and frame ID that takes it: heartbeat, trace and ack replies and
// StatusNoTrace go to calls, the rest to forwards.
func (c *core) reply(now time.Time, from *net.UDPAddr, f *airproto.Frame) {
	if f.ID == 0 {
		return
	}
	control := f.Kind == airproto.KindHeartbeat || f.Kind == airproto.KindTrace || f.Kind == airproto.KindEpochAck ||
		f.IsNack() && f.Code == airproto.StatusNoTrace
	for w := c.pend[keyOf(from, f.ID)]; w != nil; w = w.next {
		if (w.fw == nil) == control && (w.takes == nil || w.takes(f)) {
			c.unlink(w)
			c.settle(now, w, f)
			return
		}
	}
}

// unsent fails an exchange whose datagram could not be written.
func (c *core) unsent(now time.Time, w *waiter) {
	if c.unlink(w) {
		c.settle(now, w, nil)
	}
}

// settle hands an exchange taken out of the table its reply, or nil.
func (c *core) settle(now time.Time, w *waiter, f *airproto.Frame) {
	if w.fw != nil {
		w.fw.result(now, w.i, f)
		return
	}
	c.disarm(&w.alarm)
	w.got(now, f)
}

// due is the heartbeat tick: it probes every member the detector says to.
func (c *core) due(now time.Time) {
	c.arm(&c.beat, now.Add(c.cfg.HeartbeatEvery))
	for _, m := range c.sorted() {
		if c.det.ShouldProbe(m.name, now) {
			c.heartbeat(now, m)
		}
	}
	alive, suspect, _ := c.det.Counts()
	liveGauge.Set(float64(alive))
	suspectGauge.Set(float64(suspect))
}

// heartbeat runs one liveness call for the detector. A reply carries the
// member's fleet version and may piggyback its obs snapshot; a version or
// blob mangled in flight fails its CRC, and the last good one stands (the
// reply still proves liveness).
func (c *core) heartbeat(now time.Time, m *member) {
	sent := now
	c.call(now, m, airproto.Heartbeat(c.newID()), c.cfg.HeartbeatTimeout,
		func(f *airproto.Frame) bool { return f.Kind == airproto.KindHeartbeat },
		func(now time.Time, f *airproto.Frame) {
			if f == nil {
				c.observe(now, m, false)
				return
			}
			if seq, nonce, ok := f.FleetVersion(); ok {
				m.record(uint64(nonce)<<32|seq, sent)
			}
			if snap, err := obs.DecodeSnapshot(f.Snapshot()); err == nil {
				m.snap = &snap
			}
			c.observe(now, m, true)
			c.maybeCatchUp(now, m)
		})
}

// observe feeds one heartbeat outcome to the detector and logs its edges.
func (c *core) observe(now time.Time, m *member, ok bool) {
	prev := c.det.State(m.name)
	if st := c.det.Observe(m.name, ok, now); st == Evicted && prev != Evicted {
		c.evicted(m, "missed heartbeats and all probes")
	} else if st == Alive && prev != Alive {
		c.cfg.Logf("fleet: replica %s recovered (%s -> %s)", m.name, prev, st)
	}
}

// evicted logs a member's eviction, which takes it out of routing; its
// record and ring points stay.
func (c *core) evicted(m *member, why string) {
	evictedCount.Inc()
	c.cfg.Logf("fleet: evicted replica %s: %s", m.name, why)
	events.Default().Emit(events.FleetMember, "replica evicted", events.Str("member", m.name), events.Str("why", why))
}

// maybeCatchUp starts an anti-entropy push when the member reports ANY
// other fleet version than the coordinator's (sequences restart with each
// incarnation). PushCatchUp is the one mode in which a replica re-applies a
// transfer it has moved off. One per member at a time, and none while a
// publication runs or waits: mid-fan-out a member may be ahead.
func (c *core) maybeCatchUp(now time.Time, m *member) {
	tid := c.currentTid
	if c.current == nil || m.fleetVer == c.ver(tid) || m.catchingUp || len(c.pubs) > 0 {
		return
	}
	m.catchingUp = true
	c.catchups++
	catchupCount.Inc()
	c.push(now, m, tid, c.current, airproto.PushCatchUp, func(now time.Time, ack *airproto.Frame, err error) {
		m.catchingUp = false
		c.catchups--
		switch {
		case err != nil:
			c.cfg.Logf("fleet: catch-up push to %s failed: %v", m.name, err)
		case ack.Code != airproto.AckApplied:
			c.cfg.Logf("fleet: replica %s refused catch-up epoch %d", m.name, tid)
		default:
			m.record(c.ver(tid), now)
			c.cfg.Logf("fleet: replica %s caught up to epoch %d", m.name, tid)
		}
		if c.catchups == 0 && len(c.pubs) > 0 {
			c.startPub(now)
		}
	})
}

// join handles a replica's announcement: first contact registers the
// member at the datagram's source, a rejoin revives it and records the
// version it reports (a live member's comes from heartbeats: a join may
// predate its last transfer), and another version earns a catch-up. A
// join whose version fails its digest is dropped.
func (c *core) join(now time.Time, from *net.UDPAddr, f *airproto.Frame) {
	name := from.String()
	seq, nonce, ok := f.FleetVersion()
	if !ok {
		return
	}
	m := c.members[name]
	fresh := m == nil
	if fresh {
		m, c.dirty = c.add(name, from), true
	}
	if prev := c.det.Revive(name); fresh || prev != Alive {
		m.record(uint64(nonce)<<32|seq, now)
		joinCount.Inc()
		c.cfg.Logf("fleet: replica %s joined (reported epoch %d, fleet at %d)", name, seq, c.currentTid)
		events.Default().Emit(events.FleetMember, "replica joined", events.Str("member", name),
			events.Num("reported_seq", float64(seq)), events.Num("fleet_seq", float64(c.currentTid)))
	}
	c.maybeCatchUp(now, m)
}

// liveRoute returns up to n Alive members in ring order from key.
func (c *core) liveRoute(key uint64, n int) []*member {
	out := make([]*member, 0, n)
	for _, name := range c.ring.Route(key, c.ring.Len()) {
		if c.det.State(name) == Alive {
			if out = append(out, c.members[name]); len(out) == n {
				break
			}
		}
	}
	return out
}

// live counts the members the detector routes to.
func (c *core) live() int {
	n := 0
	for name := range c.members {
		if c.det.State(name) == Alive {
			n++
		}
	}
	return n
}

// forwarding is one client request on its way through the fleet; its alarm
// fires its hedges and its deadline. done is set with the answer, so no
// duplicate reply, failed write or late deadline can answer twice.
type forwarding struct {
	c        *core
	client   any
	from     *net.UDPAddr
	req      *airproto.Frame // the client's frame, under the client's ID
	prefs    []*member       // candidates, primary first
	start    time.Time
	expiry   time.Time // the client's deadline budget, pinned on arrival (zero: none)
	deadline time.Time // when the router stops waiting: ForwardTimeout or the expiry
	root     *trace.Span
	att      []attempt // cap len(prefs), so an append never moves one
	open     int       // attempts sent and not yet settled
	done     bool
	alarm
}

// attempt i is the copy of the request sent to prefs[i].
type attempt struct {
	w    waiter
	hop  *trace.Span
	open bool
}

// forward starts routing one client request: the consistent-hash
// preference list for the client's address gives the primary and the
// failover order. A degraded or retry-after NACK fails over at once; a slow
// candidate is hedged after HedgeAfter; the first reply wins, under the
// client's frame ID. A deadline budget is pinned on arrival and every
// attempt re-stamps what remains; once it is gone the router answers
// StatusExpired itself.
func (c *core) forward(now time.Time, via any, from *net.UDPAddr, f *airproto.Frame) {
	client := from.String()
	prefs := c.liveRoute(hashString(client), c.cfg.MaxAttempts)
	if len(prefs) == 0 || c.inflight >= c.cfg.InflightPerReplica*c.live() {
		// Fleet health sets the cap: a shrinking fleet sheds early.
		shedCount.Inc()
		c.emit(via, from, airproto.Nack(f.ID, airproto.StatusDegraded, 0), nil)
		return
	}
	c.inflight++
	fw := &forwarding{c: c, client: via, from: from, req: f, prefs: prefs, start: now,
		deadline: now.Add(c.cfg.ForwardTimeout), att: make([]attempt, 0, len(prefs))}
	fw.of = fw
	if d := f.Deadline(); d > 0 {
		// The client stops listening before we stop trying.
		fw.expiry, fw.deadline = now.Add(d), now.Add(min(d, c.cfg.ForwardTimeout))
	}
	// Trace IDs derive from the client frame ID and a forward ordinal, never
	// from rng; a disabled tracer returns nil spans, whose methods no-op.
	c.fwdSeq++
	fw.root = c.cfg.Tracer.Start("fleet.request", trace.Derive(0xf1ee70b5, uint64(f.ID), c.fwdSeq))
	fw.root.SetStr("client", client)
	if !fw.launch(now) {
		fw.giveUp(now) // budget already dead on arrival
		return
	}
	c.arm(&fw.alarm, fw.nextFire(now))
}

// due hedges the next candidate, or at the deadline fails every open
// attempt, and the last to fail gives up.
func (fw *forwarding) due(now time.Time) {
	if now.Before(fw.deadline) {
		fw.launch(now)
		fw.c.arm(&fw.alarm, fw.nextFire(now))
		return
	}
	for i := range fw.att {
		fw.result(now, i, nil)
	}
}

// nextFire is the next hedge, or the deadline once no candidate is left.
func (fw *forwarding) nextFire(now time.Time) time.Time {
	if hedge := now.Add(fw.c.cfg.HedgeAfter); len(fw.att) < len(fw.prefs) && hedge.Before(fw.deadline) {
		return hedge
	}
	return fw.deadline
}

// launch sends the next candidate its attempt, unless the candidates or
// the budget are spent. It is registered before it is written.
func (fw *forwarding) launch(now time.Time) bool {
	i, remaining := len(fw.att), fw.expiry.Sub(now)
	if i == len(fw.prefs) || !fw.expiry.IsZero() && remaining <= 0 {
		return false
	}
	fwd := *fw.req
	if !fw.expiry.IsZero() {
		fwd.SetDeadline(remaining)
	}
	m := fw.prefs[i]
	fwd.ID = fw.c.newID()
	hop := fw.root.Child("fleet.hop")
	hop.SetStr("replica", m.name)
	hop.SetNum("attempt", float64(i))
	// The hop carries the router's own trace context or none, never a
	// context the client put on its frame.
	fwd.Trace, fwd.ParentSpan = uint64(fw.root.TraceID()), uint64(hop.ID())
	fw.att = append(fw.att, attempt{w: waiter{key: callKey{m.key, fwd.ID}, fw: fw, i: i}, hop: hop, open: true})
	fw.open++
	fw.c.link(&fw.att[i].w)
	b, err := fwd.Marshal()
	if err == nil {
		forwardCount.Inc()
	}
	fw.c.out = append(fw.c.out, datagram{to: m.addr, b: b, w: &fw.att[i].w})
	return true
}

// result takes attempt i's reply f, or nil when it could not be sent or
// the deadline passed. A success or a fatal NACK (wrong length, bad frame,
// expired at the replica) is the answer; a shed NACK fails over at once;
// when the last open attempt fails, the forward gives up.
func (fw *forwarding) result(now time.Time, i int, f *airproto.Frame) {
	a := &fw.att[i]
	if fw.done || !a.open {
		return
	}
	if f != nil && !(f.IsNack() && (f.Code == airproto.StatusDegraded || f.Code == airproto.StatusRetryAfter)) {
		if i > 0 {
			hedgedWinCount.Inc()
		}
		if obs.Enabled() {
			forwardSeconds.Observe(now.Sub(fw.start).Seconds())
		}
		fw.close(a, "won")
		var flags trace.Flags
		if f.IsNack() {
			flags = trace.FlagNack
		}
		f.ID = fw.req.ID
		fw.finish(flags, f) // the losing hedged hops close as cancelled
		return
	}
	fw.close(a, "failed")
	if f != nil && fw.launch(now) {
		failoverCount.Inc()
	} else if fw.open == 0 {
		fw.giveUp(now)
	}
}

// close settles an open attempt and its hop span with an outcome.
func (fw *forwarding) close(a *attempt, outcome string) {
	a.open, fw.open = false, fw.open-1
	fw.c.unlink(&a.w)
	a.hop.SetStr("outcome", outcome)
	a.hop.End()
}

// giveUp answers StatusExpired (with the lateness) once the budget is
// spent, else StatusDegraded.
func (fw *forwarding) giveUp(now time.Time) {
	if !fw.expiry.IsZero() && !now.Before(fw.expiry) {
		expiredCount.Inc()
		fw.root.SetStr("outcome", "expired")
		fw.finish(trace.FlagError, airproto.ExpiredNack(fw.req.ID, now.Sub(fw.expiry)))
		return
	}
	shedCount.Inc()
	fw.root.SetStr("outcome", "shed")
	fw.finish(trace.FlagShed, airproto.Nack(fw.req.ID, airproto.StatusDegraded, 0))
}

// finish answers the client and cancels the open attempts.
func (fw *forwarding) finish(flags trace.Flags, answer *airproto.Frame) {
	fw.done = true
	fw.c.disarm(&fw.alarm)
	for i := range fw.att {
		if fw.att[i].open {
			fw.close(&fw.att[i], "cancelled")
		}
	}
	fw.root.SetNum("attempts", float64(len(fw.att)))
	fw.root.Finish(flags)
	fw.c.inflight--
	fw.c.emit(fw.client, fw.from, answer, nil)
}

// fetchTrace resolves a KindTrace fetch fleet-wide: it asks every live
// member for its segment at once and, once all have answered or timed out,
// stitches the router's own and theirs in member-name order (see stitch).
// The TraceFlagNormalize bit is honored locally and propagated.
func (c *core) fetchTrace(now time.Time, via any, from *net.UDPAddr, f *airproto.Frame) {
	id := f.TraceID()
	var root []byte
	if tr, flags := c.cfg.Tracer.Get(trace.ID(id)); tr != nil {
		root = trace.MarshalJSON(tr, flags, trace.ExportOptions{Normalize: f.Code&airproto.TraceFlagNormalize != 0})
	}
	ms := c.liveRoute(0, c.ring.Len())
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	docs, open := make([][]byte, len(ms)), len(ms)
	if open == 0 {
		c.emit(via, from, stitch(f.ID, root, docs), nil)
	}
	for i, m := range ms {
		c.fetchSegment(now, m, id, f.Code, func(now time.Time, doc []byte) {
			docs[i] = doc
			if open--; open == 0 {
				c.emit(via, from, stitch(f.ID, root, docs), nil)
			}
		})
	}
}

// fetchSegment asks one member for its segment of trace id; got hears it,
// or nil. Every member echoes the trace ID's low half as the frame ID.
func (c *core) fetchSegment(now time.Time, m *member, id uint64, code uint8, got func(time.Time, []byte)) {
	req := airproto.TraceRequest(id)
	req.Code = code
	c.call(now, m, req, c.cfg.HeartbeatTimeout,
		func(r *airproto.Frame) bool { return r.IsNack() || r.Kind == airproto.KindTrace && len(r.Payload) > 0 },
		func(now time.Time, r *airproto.Frame) {
			if r == nil || r.IsNack() {
				got(now, nil)
			} else {
				got(now, r.Payload)
			}
		})
}

// publication is one Publish call: canary, fan-out, and on a refusal the
// fleet rollback.
type publication struct {
	tag      any
	seq      uint64 // the epoch's own sequence
	sealed   []byte
	rollback []byte // the fleet's epoch before this one (nil before the first)
	tid      uint32
	pid      trace.ID
	sp       *trace.Span
}

// publish queues one validated sealed epoch; its verdict comes back tagged
// tag. One publication runs at a time, and not beside a catch-up.
func (c *core) publish(now time.Time, seq uint64, sealed []byte, tag any) {
	if c.pubs = append(c.pubs, &publication{tag: tag, seq: seq, sealed: sealed}); len(c.pubs) == 1 && c.catchups == 0 {
		c.startPub(now)
	}
}

// startPub runs the head of the queue; the canary is the first live member
// in ring order from the transfer sequence.
func (c *core) startPub(now time.Time) {
	p := c.pubs[0]
	c.pubSeq++
	p.rollback, p.tid = c.current, c.pubSeq
	p.pid = trace.Derive(0xf1ee7, uint64(p.tid))
	p.sp = c.cfg.Tracer.Start("fleet.publish", p.pid)
	p.sp.SetNum("fleet_seq", float64(p.tid))
	p.sp.SetNum("epoch_seq", float64(p.seq))
	order := c.liveRoute(uint64(p.tid), c.ring.Len())
	if len(order) == 0 {
		c.endPub(now, fmt.Errorf("fleet: no live replicas to publish epoch %d to", p.seq))
		return
	}
	publishCount.Inc()
	canary := order[0]
	c.cfg.Logf("fleet: publishing epoch %d (seq %d) via canary %s to %d replicas", p.seq, p.tid, canary.name, len(order))
	csp := p.sp.Child("fleet.canary")
	c.push(now, canary, p.tid, p.sealed, airproto.PushCanary, func(now time.Time, ack *airproto.Frame, err error) {
		if err != nil {
			csp.End()
			// The transfer never completed, so the canary applied nothing.
			c.endPub(now, fmt.Errorf("fleet: canary %s unreachable: %w", canary.name, err))
			return
		}
		_, agreement, _, _ := ack.AckInfo()
		csp.SetNum("agreement", agreement)
		csp.End()
		if ack.Code != airproto.AckApplied || agreement < c.cfg.CanaryFrac {
			canaryRejects.Inc()
			events.Default().EmitTraced(p.pid, events.CanaryVerdict, "fleet canary refused epoch",
				events.Str("member", canary.name), events.Num("agreement", agreement),
				events.Num("min_agreement", c.cfg.CanaryFrac), events.Num("fleet_seq", float64(p.tid)))
			// The canary may now be serving the bad epoch.
			c.rollbackFleet(now, ack.Code == airproto.AckApplied, fmt.Errorf(
				"fleet: canary %s refused epoch %d (verdict %d, agreement %.2f < %.2f): %w",
				canary.name, p.seq, ack.Code, agreement, c.cfg.CanaryFrac, ErrRefused))
			return
		}
		c.pushAll(now, order[1:], p.tid, p.sealed, airproto.PushCommit, func(now time.Time, applied, refused int) {
			if refused > 0 {
				// A live replica refused what the canary accepted: the epoch
				// cannot be trusted anywhere.
				events.Default().EmitTraced(p.pid, events.FleetPublish, "fan-out refusal, rolling fleet back",
					events.Num("fleet_seq", float64(p.tid)))
				c.rollbackFleet(now, true, fmt.Errorf("fleet: epoch %d refused during fan-out, fleet rolled back: %w", p.seq, ErrRefused))
				return
			}
			c.current, c.currentTid, c.dirty = p.sealed, p.tid, true
			canary.record(c.ver(p.tid), now)
			events.Default().EmitTraced(p.pid, events.FleetPublish, "epoch replicated fleet-wide",
				events.Num("epoch_seq", float64(p.seq)), events.Num("fleet_seq", float64(p.tid)),
				events.Num("replicas", float64(applied+1)))
			c.cfg.Logf("fleet: epoch %d committed fleet-wide as seq %d (%d replicas)", p.seq, p.tid, applied+1)
			c.endPub(now, nil)
		})
	})
}

// rollbackFleet ends the running publication with err. When replicas may
// hold the refused epoch (held), it first pushes the prior one to every live
// replica in PushRollback mode under a fresh sequence, and commits it, so
// the fleet converges again.
func (c *core) rollbackFleet(now time.Time, held bool, err error) {
	p := c.pubs[0]
	if !held || p.rollback == nil {
		if held {
			c.cfg.Logf("fleet: WARNING: replicas may hold a rejected epoch and no rollback target exists")
		}
		c.endPub(now, err)
		return
	}
	c.pubSeq++
	rtid := c.pubSeq
	rollbackCount.Inc()
	order := c.liveRoute(uint64(rtid), c.ring.Len())
	c.pushAll(now, order, rtid, p.rollback, airproto.PushRollback, func(now time.Time, _, refused int) {
		if refused > 0 {
			c.cfg.Logf("fleet: %d replicas refused the ROLLBACK epoch (seq %d) — manual intervention needed", refused, rtid)
		}
		c.current, c.currentTid, c.dirty = p.rollback, rtid, true
		events.Default().EmitTraced(p.pid, events.Rollback, "fleet rolled back to prior epoch",
			events.Num("fleet_seq", float64(rtid)), events.Num("replicas", float64(len(order))))
		c.cfg.Logf("fleet: rolled %d replicas back to the prior epoch as seq %d", len(order), rtid)
		c.endPub(now, err)
	})
}

// endPub returns the running publication's verdict and starts the next.
func (c *core) endPub(now time.Time, err error) {
	p := c.pubs[0]
	p.sp.Finish(0)
	c.pubs = c.pubs[1:]
	c.verdicts = append(c.verdicts, verdict{p.tag, err})
	if len(c.pubs) > 0 {
		c.startPub(now)
	}
}

// pushAll pushes one sealed epoch to every member of ms at once and tells
// done how many applied and refused. A member that never finishes is
// evicted (anti-entropy catches it up later); one that applies is recorded.
func (c *core) pushAll(now time.Time, ms []*member, tid uint32, sealed []byte, mode uint8, done func(now time.Time, applied, refused int)) {
	open, applied, refused := len(ms), 0, 0
	if open == 0 {
		done(now, 0, 0)
	}
	for _, m := range ms {
		c.push(now, m, tid, sealed, mode, func(now time.Time, ack *airproto.Frame, err error) {
			switch {
			case err != nil:
				if c.det.Evict(m.name, now) != Evicted {
					c.evicted(m, fmt.Sprintf("unreachable during transfer %d: %v", tid, err))
				}
			case ack.Code != airproto.AckApplied:
				refused++
				c.cfg.Logf("fleet: replica %s refused transfer %d (push mode %d)", m.name, tid, mode)
			default:
				m.record(c.ver(tid), now)
				applied++
			}
			if open--; open == 0 {
				done(now, applied, refused)
			}
		})
	}
}

// push streams one sealed epoch to a member as transfer tid, chunk by
// chunk, each a call with up to PublishRetries sends of PublishTimeout. A
// chunk takes its own ack, or a completing verdict echoing this
// incarnation's nonce (a duplicate transfer already finished, or a
// mid-stream rejection); one echoing another nonce is about other bytes,
// and one that fails its digest goes unheard, so the chunk's retry asks
// again. done hears the verdict, or an error if the transfer never
// finished.
func (c *core) push(now time.Time, m *member, tid uint32, sealed []byte, mode uint8, done func(time.Time, *airproto.Frame, error)) {
	frames, err := Chunks(tid, mode, sealed, c.cfg.ChunkBytes, c.incar)
	if err != nil {
		done(now, nil, err)
		return
	}
	i, tries := 0, 0
	var sendChunk func(now time.Time)
	sendChunk = func(now time.Time) {
		idx := i
		tries++
		chunkCount.Inc()
		c.call(now, m, frames[idx], c.cfg.PublishTimeout, func(f *airproto.Frame) bool {
			n, _, nonce, ok := f.AckInfo()
			return f.Kind == airproto.KindEpochAck && ok &&
				(f.Code == airproto.AckChunk && n == idx || f.Code != airproto.AckChunk && nonce == c.incar)
		}, func(now time.Time, ack *airproto.Frame) {
			switch {
			case ack == nil && tries < c.cfg.PublishRetries:
				sendChunk(now)
			case ack == nil:
				done(now, nil, fmt.Errorf("no ack for chunk %d/%d after %d attempts", idx+1, len(frames), c.cfg.PublishRetries))
			case ack.Code != airproto.AckChunk:
				done(now, ack, nil)
			case idx+1 == len(frames):
				done(now, nil, fmt.Errorf("transfer %d fully acked but never completed", tid))
			default:
				i, tries = idx+1, 0
				sendChunk(now)
			}
		})
	}
	sendChunk(now)
}

// The router's half of the observability plane: KindStats and KindTrace
// are control-plane traffic, answered outside the inflight cap, so an
// operator can read a drowning fleet's vitals.

// fleetSnapshot is Router.FleetSnapshot.
func (c *core) fleetSnapshot() (merged obs.Snapshot, per map[string]obs.Snapshot) {
	per = make(map[string]obs.Snapshot)
	snaps := make([]obs.Snapshot, 0, len(c.members))
	for _, m := range c.members {
		if m.snap != nil {
			per[m.name] = *m.snap
			snaps = append(snaps, *m.snap)
		}
	}
	return obs.MergeSnapshots(snaps...), per
}

// stats answers KindStats with a StatsVersionFleet reply: the legacy slots
// carry fleet-wide sums from the merged replica snapshots, the FleetStats
// slots router-level counters and the merged p99.
func (c *core) stats(f *airproto.Frame) *airproto.Frame {
	merged, _ := c.fleetSnapshot()
	n := merged.Counters
	return airproto.StatsReply(f.ID, &airproto.Stats{
		Served: n["serve.served"], Heals: n["serve.heals"], Swaps: n["serve.swaps"],
		Rollbacks: n["serve.rollbacks"], CanaryRejects: n["serve.canary_rejects"],
		Shed: n["serve.shed"], Expired: n["serve.expired"], EpochSeq: int64(c.currentTid),
		Fleet: &airproto.FleetStats{
			Live: int64(c.live()), Forwards: forwardCount.Value(),
			Failovers: failoverCount.Value(), HedgedWins: hedgedWinCount.Value(),
			Shed: shedCount.Value(), Expired: expiredCount.Value(),
			P99Micros: merged.Histograms["serve.request.seconds"].Quantile(0.99) * 1e6,
		},
	})
}

// stitch answers trace fetch id with the router's segment (root, nil when
// it holds none) and the members' (docs, nil where a member held none)
// stitched into one Chrome-JSON document. A document members share (one
// process's tracer) is kept once; without a root, the first member segment
// anchors the stitch.
func stitch(id uint32, root []byte, docs [][]byte) *airproto.Frame {
	var hops [][]byte
	for _, doc := range docs {
		dup := doc == nil || bytes.Equal(doc, root)
		for _, seen := range hops {
			dup = dup || bytes.Equal(doc, seen)
		}
		if !dup {
			hops = append(hops, doc)
		}
	}
	if root == nil && len(hops) > 0 {
		root, hops = hops[0], hops[1:]
	}
	if root == nil {
		return airproto.Nack(id, airproto.StatusNoTrace, 0)
	}
	if len(hops) > 0 {
		root = trace.StitchJSON(root, hops...)
	}
	return airproto.TraceReply(id, root)
}
