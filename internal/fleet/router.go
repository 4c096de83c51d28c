// Package fleet is the router/coordinator tier in front of N metaai-serve
// replicas: one address clients talk to, consistent-hash routing with
// failover and bounded hedging across the replica set, heartbeat-driven
// failure detection (Alive → Suspect → Evicted, with jittered exponential
// probing before eviction), and chunked epoch replication with a fleet-wide
// canary gate and automatic rollback. The fleet speaks the same airproto
// datagrams the data path does — a replica needs exactly one socket for
// serving, liveness, and replication.
package fleet

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/airproto"
	"repro/internal/checkpoint"
	"repro/internal/netchaos"
	"repro/internal/obs"
	"repro/internal/obs/events"
	"repro/internal/obs/slo"
	"repro/internal/obs/trace"
	"repro/internal/rng"
)

// Replica names one seed member of the fleet.
type Replica struct {
	Name string // display name; defaults to Addr
	Addr string // UDP host:port of the replica's serving socket
}

// Config assembles a Router.
type Config struct {
	// Replicas is the seed membership; replicas can also announce
	// themselves later with KindJoin frames.
	Replicas []Replica
	// HeartbeatEvery is the liveness probe cadence (default 250ms);
	// HeartbeatTimeout is how long one probe waits (default 200ms).
	HeartbeatEvery   time.Duration
	HeartbeatTimeout time.Duration
	// Detector tunes the failure detector's suspicion thresholds.
	Detector DetectorConfig
	// ForwardTimeout bounds one client request end to end through all
	// failover attempts (default 3s). HedgeAfter launches the next
	// candidate when the current one has not answered (default 150ms), and
	// MaxAttempts caps the distinct replicas tried (default 3).
	ForwardTimeout time.Duration
	HedgeAfter     time.Duration
	MaxAttempts    int
	// InflightPerReplica scales the router's load-shedding cap: at most
	// InflightPerReplica × live-replica-count forwards run at once, so a
	// shrinking fleet sheds load instead of queueing it (default 64).
	InflightPerReplica int
	// ChunkBytes sizes replication chunks (default DefaultChunkBytes);
	// PublishTimeout is the per-chunk ack wait and PublishRetries the
	// per-chunk send attempts (defaults 500ms / 3).
	ChunkBytes     int
	PublishTimeout time.Duration
	PublishRetries int
	// CanaryFrac is the minimum prediction agreement the canary replica
	// must report before an epoch fans out fleet-wide (default 0.8).
	CanaryFrac float64
	// Seed drives the detector's probe jitter.
	Seed uint64
	// StateDir, when set, journals the coordinator's core state (publication
	// sequence, membership, the committed epoch bytes) as a sealed
	// checkpoint after every commit, rollback, and membership change. A
	// restarted router restores it and rejoins its own fleet without
	// divergence: sequences keep counting instead of restarting from 1, and
	// one anti-entropy round (forced by the fresh incarnation nonce)
	// re-converges the replicas onto the journaled epoch.
	StateDir string
	// Tracer is the tracer the router's fleet.request / fleet.publish spans
	// start on and the ring KindTrace fetches read from; nil means the
	// process-wide trace.Default(). Injectable so several in-process routers
	// and replicas (a test fleet) can each own a separate retention ring,
	// the way separate processes naturally would.
	Tracer *trace.Tracer
	// Logf receives progress lines; nil silences them.
	Logf func(format string, args ...interface{})
}

func (c Config) withDefaults() Config {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 250 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 200 * time.Millisecond
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 3 * time.Second
	}
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = 150 * time.Millisecond
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.InflightPerReplica <= 0 {
		c.InflightPerReplica = 64
	}
	if c.ChunkBytes <= 0 || c.ChunkBytes > airproto.MaxChunkBytes {
		c.ChunkBytes = DefaultChunkBytes
	}
	if c.PublishTimeout <= 0 {
		c.PublishTimeout = 500 * time.Millisecond
	}
	if c.PublishRetries <= 0 {
		c.PublishRetries = 3
	}
	if c.CanaryFrac <= 0 || c.CanaryFrac > 1 {
		c.CanaryFrac = 0.8
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	if c.Tracer == nil {
		c.Tracer = trace.Default()
	}
	return c
}

// member is the router's record of one replica.
type member struct {
	name string
	addr *net.UDPAddr
	// fleetVer is the (incarnation nonce << 32 | seq) of the last replicated
	// epoch the replica reported via heartbeat or join.
	fleetVer   atomic.Uint64
	catchingUp atomic.Bool // an anti-entropy push is already in flight
	// snap is the replica's latest obs.Snapshot, decoded from the blob its
	// heartbeat replies piggyback (nil until the first one lands).
	snap atomic.Pointer[obs.Snapshot]
}

// Router fronts the fleet: it routes client frames across the replicas by
// consistent hash with failover and hedging, heartbeats every member, and
// replicates epochs with a canary gate (see Publish).
type Router struct {
	cfg Config
	det *Detector
	up  *net.UDPConn // upstream socket: heartbeats + forwarded requests
	// incar is this coordinator incarnation's random 24-bit nonce, stamped
	// on every push chunk and compared against the nonce replicas report
	// back. It must differ across process restarts (so it is NOT derived
	// from Config.Seed): transfer sequences restart from 1 with the process,
	// and replicas cache per-transfer verdicts keyed by (seq, nonce).
	incar uint32

	mu         sync.Mutex
	ring       *Ring
	members    map[string]*member
	current    []byte // sealed epoch the fleet converges on (nil before the first publish)
	currentTid uint32

	pubMu  sync.Mutex // one publication (or fleet rollback) at a time
	pubSeq atomic.Uint32

	nextID atomic.Uint32
	pendMu sync.Mutex
	pend   map[uint32]chan *airproto.Frame

	// fwdSeq numbers every forwarded request; with the client frame ID it
	// derives the deterministic fleet.request trace ID. It bumps whether or
	// not tracing is armed, so arming the tracer never shifts the sequence.
	fwdSeq atomic.Uint64
	// fleetSLO tracks the fleet-wide error-budget burn over end-to-end
	// forward outcomes (nil while Detector.SLOTarget is unset).
	fleetSLO *slo.Tracker

	inflight  atomic.Int64
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// newIncarnation draws a nonzero random 24-bit coordinator nonce. Entropy
// comes from the OS, falling back to the wall clock — never from a config
// seed, which a restarted process would reuse.
func newIncarnation() uint32 {
	var b [4]byte
	if _, err := crand.Read(b[:]); err == nil {
		if n := binary.LittleEndian.Uint32(b[:]) & airproto.NonceMask; n != 0 {
			return n
		}
	}
	return uint32(time.Now().UnixNano())&airproto.NonceMask | 1
}

// NewRouter resolves the seed replicas, restores any journaled coordinator
// state, binds the upstream socket, and starts the heartbeat and
// reply-dispatch loops. Restored state wins over seed replicas for
// membership; the incarnation nonce is ALWAYS drawn fresh (never restored),
// so replicas still holding the previous incarnation's version mismatch
// and anti-entropy re-converges them onto the journaled epoch.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:     cfg,
		det:     NewDetector(cfg.Detector, rng.New(cfg.Seed^0xf1ee7)),
		incar:   newIncarnation(),
		ring:    NewRing(),
		members: make(map[string]*member),
		pend:    make(map[uint32]chan *airproto.Frame),
		stop:    make(chan struct{}),
	}
	if cfg.Detector.SLOTarget > 0 {
		r.fleetSLO = slo.New(cfg.Detector.SLO)
	}
	for _, rep := range cfg.Replicas {
		addr, err := net.ResolveUDPAddr("udp", rep.Addr)
		if err != nil {
			return nil, fmt.Errorf("fleet: replica %q: %w", rep.Addr, err)
		}
		name := rep.Name
		if name == "" {
			name = addr.String()
		}
		r.members[name] = &member{name: name, addr: addr}
		r.ring.Add(name)
	}
	if err := r.restoreState(); err != nil {
		return nil, err
	}
	up, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	r.up = up
	r.wg.Add(2)
	go r.upstreamLoop()
	go r.heartbeatLoop()
	return r, nil
}

// statePath is the coordinator's journal file under StateDir.
func (r *Router) statePath() string {
	return filepath.Join(r.cfg.StateDir, "fleet-state.ckpt")
}

// restoreState loads the journaled coordinator state, if any. A missing
// file is a cold start; a corrupt file is an error (silently discarding it
// would restart sequences from 1 — the exact divergence the journal
// exists to prevent).
func (r *Router) restoreState() error {
	if r.cfg.StateDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.cfg.StateDir, 0o755); err != nil {
		return fmt.Errorf("fleet: state dir: %w", err)
	}
	b, err := os.ReadFile(r.statePath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("fleet: read state: %w", err)
	}
	st, err := checkpoint.DecodeFleetState(b)
	if err != nil {
		return fmt.Errorf("fleet: restore state: %w", err)
	}
	r.pubSeq.Store(st.PubSeq)
	r.currentTid = st.CurrentTid
	r.current = st.Current
	for _, m := range st.Members {
		if _, ok := r.members[m.Name]; ok {
			continue // a seed replica re-declared on the command line wins
		}
		addr, err := net.ResolveUDPAddr("udp", m.Addr)
		if err != nil {
			r.cfg.Logf("fleet: journaled member %s has unresolvable addr %q, dropping", m.Name, m.Addr)
			continue
		}
		r.members[m.Name] = &member{name: m.Name, addr: addr}
		r.ring.Add(m.Name)
	}
	r.cfg.Logf("fleet: restored coordinator state: pubSeq %d, committed seq %d, %d members, epoch bytes %d (fresh incarnation %#x)",
		st.PubSeq, st.CurrentTid, len(r.members), len(st.Current), r.incar)
	return nil
}

// persistState journals the coordinator's core state atomically (write to a
// temp file, then rename). Failures are logged, not fatal: the fleet keeps
// running on its in-memory state and the next mutation retries the write.
func (r *Router) persistState() {
	if r.cfg.StateDir == "" {
		return
	}
	r.mu.Lock()
	st := &checkpoint.FleetState{
		PubSeq:     r.pubSeq.Load(),
		CurrentTid: r.currentTid,
		Current:    r.current,
		Members:    make([]checkpoint.FleetMember, 0, len(r.members)),
	}
	for _, m := range r.members {
		st.Members = append(st.Members, checkpoint.FleetMember{Name: m.name, Addr: m.addr.String()})
	}
	r.mu.Unlock()
	b := checkpoint.EncodeFleetState(st)
	tmp := r.statePath() + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		r.cfg.Logf("fleet: persist state: %v", err)
		return
	}
	if err := os.Rename(tmp, r.statePath()); err != nil {
		r.cfg.Logf("fleet: persist state: %v", err)
	}
}

// Close stops the heartbeat loop and the upstream socket. The client-facing
// connection passed to Serve belongs to the caller.
func (r *Router) Close() {
	r.closeOnce.Do(func() {
		close(r.stop)
		r.up.Close()
	})
	r.wg.Wait()
}

// Members returns the current membership names in stable order.
func (r *Router) Members() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.members))
	for name := range r.members {
		out = append(out, name)
	}
	return out
}

// CurrentTid returns the fleet sequence of the last committed publication
// (0 before the first).
func (r *Router) CurrentTid() uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.currentTid
}

// Incarnation returns this coordinator incarnation's nonce — the high half
// of every fleet version it publishes.
func (r *Router) Incarnation() uint32 { return r.incar }

// ver packs a transfer sequence into this incarnation's fleet version.
func (r *Router) ver(tid uint32) uint64 {
	return uint64(r.incar)<<32 | uint64(tid)
}

// MemberFleetSeq returns the last replicated-epoch sequence a member
// reported via heartbeat or join (ok=false for an unknown member).
func (r *Router) MemberFleetSeq(name string) (uint64, bool) {
	r.mu.Lock()
	m := r.members[name]
	r.mu.Unlock()
	if m == nil {
		return 0, false
	}
	return m.fleetVer.Load() & 0xffffffff, true
}

// await registers a pending reply slot for frame id.
func (r *Router) await(id uint32) chan *airproto.Frame {
	ch := make(chan *airproto.Frame, 4)
	r.pendMu.Lock()
	r.pend[id] = ch
	r.pendMu.Unlock()
	return ch
}

func (r *Router) settle(id uint32) {
	r.pendMu.Lock()
	delete(r.pend, id)
	r.pendMu.Unlock()
}

// newID returns a fresh nonzero upstream frame ID. Zero is reserved: a
// replica's unattributable bad-frame NACK carries ID 0 and must never match
// a pending exchange.
func (r *Router) newID() uint32 {
	for {
		if id := r.nextID.Add(1); id != 0 {
			return id
		}
	}
}

// upstreamLoop dispatches every replica reply to its pending exchange by
// frame ID — the reverse half of the router's NAT: replies come back on the
// shared upstream socket and are matched to whichever forward or heartbeat
// sent them.
func (r *Router) upstreamLoop() {
	defer r.wg.Done()
	buf := make([]byte, 65535)
	for {
		n, _, err := r.up.ReadFromUDP(buf)
		if err != nil {
			return
		}
		f, err := airproto.Unmarshal(buf[:n])
		if err != nil || f.ID == 0 {
			continue
		}
		r.pendMu.Lock()
		ch := r.pend[f.ID]
		r.pendMu.Unlock()
		if ch != nil {
			select {
			case ch <- f:
			default:
			}
		}
	}
}

// heartbeatLoop pings every member on the configured cadence. Alive members
// are probed every tick; Suspect members only when their jittered
// exponential backoff says so (hammering a struggling replica helps
// nobody); Evicted members not at all — only a join resurrects them.
func (r *Router) heartbeatLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			now := time.Now()
			for _, m := range r.snapshotMembers() {
				if !r.det.ShouldProbe(m.name, now) {
					continue
				}
				r.wg.Add(1)
				go func(m *member) {
					defer r.wg.Done()
					r.heartbeat(m)
				}(m)
			}
			alive, suspect, _ := r.det.Counts()
			liveGauge.Set(float64(alive))
			suspectGauge.Set(float64(suspect))
		}
	}
}

func (r *Router) snapshotMembers() []*member {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*member, 0, len(r.members))
	for _, m := range r.members {
		out = append(out, m)
	}
	return out
}

// heartbeat runs one liveness exchange with a member and feeds the outcome
// to the detector. A live reply also carries the member's replicated-epoch
// sequence, which drives anti-entropy: a stale member gets a catch-up push.
func (r *Router) heartbeat(m *member) {
	id := r.newID()
	ch := r.await(id)
	defer r.settle(id)
	out, err := airproto.Heartbeat(id).Marshal()
	if err != nil {
		return
	}
	if _, err := r.up.WriteToUDP(out, m.addr); err != nil {
		r.observeMember(m, false)
		return
	}
	timer := time.NewTimer(r.cfg.HeartbeatTimeout)
	defer timer.Stop()
	select {
	case f := <-ch:
		if f.Kind == airproto.KindHeartbeat && len(f.Data) > 0 {
			hv := f.HealthVector()
			m.fleetVer.Store(uint64(hv[airproto.HBFleetNonce])<<32 | uint64(hv[airproto.HBFleetSeq]))
			// The reply may piggyback the replica's obs snapshot after the
			// health vector (Label = blob byte length). A blob mangled in
			// flight fails its CRC and is simply skipped — the member's last
			// good snapshot stands until a clean one lands.
			if f.Label > 0 && len(f.Data) > airproto.HBVectorLen {
				blob := airproto.UnpackBytes(f.Data[airproto.HBVectorLen:], int(f.Label))
				if snap, err := obs.DecodeSnapshot(blob); err == nil {
					m.snap.Store(&snap)
				}
			}
		}
		r.observeMember(m, true)
		r.maybeCatchUp(m)
	case <-timer.C:
		r.observeMember(m, false)
	case <-r.stop:
	}
}

// observeMember feeds one heartbeat outcome to the detector and reacts to
// the eviction edge: the member leaves the ring (its keys redistribute) and
// the event journal records the death.
func (r *Router) observeMember(m *member, ok bool) {
	prev := r.det.State(m.name)
	st := r.det.Observe(m.name, ok, time.Now())
	if st == prev {
		return
	}
	if st == Evicted {
		r.evict(m, "missed heartbeats and all probes")
	} else if prev == Evicted || (prev == Suspect && st == Alive) {
		r.mu.Lock()
		r.ring.Add(m.name)
		r.mu.Unlock()
		r.cfg.Logf("fleet: replica %s recovered (%s -> %s)", m.name, prev, st)
	}
}

// evict removes a member from the routing ring (the record stays, so a
// rejoin is cheap). Idempotent.
func (r *Router) evict(m *member, why string) {
	r.mu.Lock()
	had := r.ring.Has(m.name)
	r.ring.Remove(m.name)
	r.mu.Unlock()
	r.det.Evict(m.name)
	if !had {
		return
	}
	evictedCount.Inc()
	r.cfg.Logf("fleet: evicted replica %s: %s", m.name, why)
	events.Default().Emit(events.FleetMember, "replica evicted",
		events.Str("member", m.name),
		events.Str("why", why))
}

// maybeCatchUp launches an asynchronous anti-entropy push when the member
// reports ANY fleet version other than the coordinator's current one — not
// just an older sequence. A replica can legitimately report a HIGHER
// number than the fleet's: sequences restart from 1 with the coordinator
// process, so after a restart a surviving replica holds a large sequence
// from the previous incarnation while the new coordinator counts from 1
// again. The coordinator is authoritative; inequality means divergence.
// One catch-up per member at a time; the member's next heartbeat reply
// shows whether it landed.
func (r *Router) maybeCatchUp(m *member) {
	r.mu.Lock()
	cur, tid := r.current, r.currentTid
	r.mu.Unlock()
	if cur == nil || m.fleetVer.Load() == r.ver(tid) {
		return
	}
	if !m.catchingUp.CompareAndSwap(false, true) {
		return
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer m.catchingUp.Store(false)
		// Serialize with publishes and re-check: mid-fan-out the member may
		// already hold a version NEWER than currentTid (per-member versions
		// advance before the commit point), and pushing the old current
		// epoch over it would regress the replica.
		r.pubMu.Lock()
		defer r.pubMu.Unlock()
		r.mu.Lock()
		cur, tid := r.current, r.currentTid
		r.mu.Unlock()
		if cur == nil || m.fleetVer.Load() == r.ver(tid) {
			return
		}
		catchupCount.Inc()
		ack, err := r.pushEpoch(m, tid, cur, airproto.PushCommit)
		switch {
		case err != nil:
			r.cfg.Logf("fleet: catch-up push to %s failed: %v", m.name, err)
		case ack.Code != airproto.AckApplied:
			r.cfg.Logf("fleet: replica %s refused catch-up epoch %d", m.name, tid)
		default:
			m.fleetVer.Store(r.ver(tid))
			r.cfg.Logf("fleet: replica %s caught up to epoch %d", m.name, tid)
		}
	}()
}

// handleJoin processes a replica's membership announcement: first contact
// registers the member and its serving address (the datagram's source),
// a rejoin revives an evicted or suspect member, and either way the reply
// carries the fleet's current epoch sequence so a stale replica knows a
// catch-up push is coming.
func (r *Router) handleJoin(conn netchaos.PacketConn, f *airproto.Frame, from *net.UDPAddr) {
	name := from.String()
	fleetSeq, _, fleetNonce := f.JoinInfo()
	r.mu.Lock()
	m := r.members[name]
	fresh := m == nil
	if fresh {
		m = &member{name: name, addr: from}
		r.members[name] = m
	}
	inRing := r.ring.Has(name)
	if !inRing {
		r.ring.Add(name)
	}
	curTid := r.currentTid
	r.mu.Unlock()

	m.fleetVer.Store(uint64(fleetNonce)<<32 | fleetSeq)
	prev := r.det.State(name)
	r.det.Revive(name)
	if fresh || !inRing || prev != Alive {
		joinCount.Inc()
		r.cfg.Logf("fleet: replica %s joined (reported epoch %d, fleet at %d)", name, fleetSeq, curTid)
		events.Default().Emit(events.FleetMember, "replica joined",
			events.Str("member", name),
			events.Num("reported_seq", float64(fleetSeq)),
			events.Num("fleet_seq", float64(curTid)))
	}
	if fresh {
		r.persistState()
	}
	if out, err := airproto.Join(f.ID, uint64(curTid), 0, r.incar).Marshal(); err == nil {
		conn.WriteToUDP(out, from)
	}
	r.maybeCatchUp(m)
}

// liveRoute returns up to n Alive members in ring order from key.
func (r *Router) liveRoute(key uint64, n int) []*member {
	r.mu.Lock()
	names := r.ring.Route(key, r.ring.Len())
	ms := make([]*member, 0, len(names))
	for _, name := range names {
		ms = append(ms, r.members[name])
	}
	r.mu.Unlock()
	out := make([]*member, 0, n)
	for _, m := range ms {
		if m != nil && r.det.State(m.name) == Alive {
			out = append(out, m)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// Live returns the number of members the detector currently routes to.
func (r *Router) Live() int { return r.liveCount() }

func (r *Router) liveCount() int {
	r.mu.Lock()
	names := r.ring.Members()
	r.mu.Unlock()
	n := 0
	for _, name := range names {
		if r.det.State(name) == Alive {
			n++
		}
	}
	return n
}

// Serve answers client frames on conn until it is closed (the caller owns
// shutdown, exactly like airServer.serve). Data requests are forwarded to
// replicas; stats and trace requests are answered by the router itself
// (fleet-merged counters, stitched cross-replica traces) on the control
// plane, outside admission; joins update membership; everything else is
// dropped. conn is any netchaos.PacketConn — a bare *net.UDPConn in
// production, or a chaos-wrapped one when the front link itself is under
// fault injection.
func (r *Router) Serve(conn netchaos.PacketConn) error {
	// One read buffer for the socket's lifetime: Unmarshal copies the
	// payload out, so nothing handed to a goroutine aliases it.
	buf := make([]byte, 65535)
	for {
		n, from, err := conn.ReadFromUDP(buf)
		if err != nil {
			return err
		}
		f, err := airproto.Unmarshal(buf[:n])
		if err != nil {
			r.writeTo(conn, from, airproto.Nack(0, airproto.StatusBadFrame, 0))
			continue
		}
		switch f.Kind {
		case airproto.KindJoin:
			r.handleJoin(conn, f, from)
		case airproto.KindStats, airproto.KindTrace:
			// Control-plane traffic: the router answers these itself —
			// never shed, never counted against the inflight cap. An
			// operator reading a drowning fleet's vitals must not compete
			// with the data plane for admission.
			r.wg.Add(1)
			go func(f *airproto.Frame, from *net.UDPAddr) {
				defer r.wg.Done()
				if f.Kind == airproto.KindStats {
					r.answerStats(conn, f, from)
				} else {
					r.answerTrace(conn, f, from)
				}
			}(f, from)
		case airproto.KindData:
			live := r.liveCount()
			if live == 0 || r.inflight.Load() >= int64(r.cfg.InflightPerReplica*live) {
				// Router-level load shedding: fleet health sets the cap, so
				// a shrinking fleet sheds early instead of queueing forwards
				// that will only time out.
				shedCount.Inc()
				r.writeTo(conn, from, airproto.Nack(f.ID, airproto.StatusDegraded, 0))
				continue
			}
			r.inflight.Add(1)
			r.wg.Add(1)
			go func(f *airproto.Frame, from *net.UDPAddr) {
				defer r.wg.Done()
				defer r.inflight.Add(-1)
				r.forward(conn, f, from)
			}(f, from)
		}
	}
}

func (r *Router) writeTo(conn netchaos.PacketConn, to *net.UDPAddr, f *airproto.Frame) {
	if out, err := f.Marshal(); err == nil {
		if _, err := conn.WriteToUDP(out, to); err != nil {
			r.cfg.Logf("fleet: reply to %s: %v", to, err)
		}
	}
}

// fwdResult is one forwarding attempt's outcome: the reply frame (nil on
// timeout), the member that produced it, and the attempt's ordinal.
type fwdResult struct {
	f       *airproto.Frame
	m       *member
	attempt int
}

// forward routes one client request: the consistent-hash preference list
// for the client's address gives the primary and the failover order. A
// degraded or retry-after NACK or an attempt timeout fails over to the
// next candidate; a candidate that is merely slow gets hedged — the next
// candidate launches in parallel after HedgeAfter, and whichever replies
// first wins. The reply is rewritten back to the client's original frame
// ID, so the translation is invisible: clients speak to the fleet as if it
// were one server.
//
// A data frame carrying a deadline budget has it pinned to an absolute
// expiry on arrival and DECREMENTED across hops: every attempt re-stamps
// the remaining budget, so a replica sees how much time the client
// actually has left, not the original figure minus nothing. Once the
// budget is gone the router stops launching attempts and answers
// StatusExpired itself — hedging past a dead deadline only burns replica
// capacity on work nobody will read.
func (r *Router) forward(conn netchaos.PacketConn, f *airproto.Frame, from *net.UDPAddr) {
	t := obs.StartTimer()
	start := time.Now()
	prefs := r.liveRoute(hashString(from.String()), r.cfg.MaxAttempts)
	if len(prefs) == 0 {
		shedCount.Inc()
		r.writeTo(conn, from, airproto.Nack(f.ID, airproto.StatusDegraded, 0))
		return
	}
	// The fleet root span. Its trace ID derives from the client frame ID
	// and a per-router forward ordinal (fwdSeq bumps whether or not tracing
	// is armed): no rng is touched, and a disabled tracer returns nil spans
	// whose methods are all no-ops. Each attempt gets a fleet.hop child;
	// the forwarded frame carries (trace ID, hop span ID) so the replica's
	// serve.request span parents under its hop.
	tid := trace.Derive(0xf1ee70b5, uint64(f.ID), r.fwdSeq.Add(1))
	root := r.cfg.Tracer.Start("fleet.request", tid)
	root.SetStr("client", from.String())
	hops := make([]*trace.Span, 0, len(prefs))
	hopOpen := make([]bool, 0, len(prefs))
	starts := make([]time.Time, 0, len(prefs))
	closeHop := func(attempt int, outcome string) {
		if attempt < len(hops) && hopOpen[attempt] {
			hops[attempt].SetStr("outcome", outcome)
			hops[attempt].End()
			hopOpen[attempt] = false
		}
	}
	finishRoot := func(flags trace.Flags) {
		for i := range hops {
			closeHop(i, "cancelled")
		}
		root.SetNum("attempts", float64(len(hops)))
		root.Finish(flags)
	}
	origID := f.ID
	var expiry time.Time
	if d := f.Deadline(); d > 0 {
		expiry = time.Now().Add(d)
	}
	deadline := time.Now().Add(r.cfg.ForwardTimeout)
	if !expiry.IsZero() && expiry.Before(deadline) {
		deadline = expiry // the client stops listening before we stop trying
	}
	resCh := make(chan fwdResult, len(prefs))

	// giveUp answers the client when no attempt can succeed anymore: an
	// exhausted deadline budget is StatusExpired (with the lateness), an
	// exhausted candidate list is StatusDegraded.
	giveUp := func() {
		r.fleetSLO.Observe(false)
		if late := lateBy(expiry); late > 0 {
			expiredCount.Inc()
			root.SetStr("outcome", "expired")
			finishRoot(trace.FlagError)
			r.writeTo(conn, from, airproto.ExpiredNack(origID, late))
			return
		}
		shedCount.Inc()
		root.SetStr("outcome", "shed")
		finishRoot(trace.FlagShed)
		r.writeTo(conn, from, airproto.Nack(origID, airproto.StatusDegraded, 0))
	}

	next := 0
	launch := func() bool {
		if next >= len(prefs) {
			return false
		}
		var remaining time.Duration
		if !expiry.IsZero() {
			if remaining = time.Until(expiry); remaining <= 0 {
				return false
			}
		}
		m := prefs[next]
		attempt := next
		next++
		id := r.newID()
		ch := r.await(id)
		fwd := *f
		fwd.ID = id
		if remaining > 0 {
			fwd.SetDeadline(remaining)
		}
		hop := root.Child("fleet.hop")
		hop.SetStr("replica", m.name)
		hop.SetNum("attempt", float64(attempt))
		hops = append(hops, hop)
		hopOpen = append(hopOpen, hop != nil)
		starts = append(starts, time.Now())
		if root != nil {
			// Appending the context never aliases the original frame: the
			// copy's Data shares f's full-capacity backing, so append
			// reallocates. Refusals (oversize payload) just forward untraced.
			airproto.AttachTraceContext(&fwd, uint64(tid), uint64(hop.ID()))
		}
		out, err := fwd.Marshal()
		if err != nil {
			resCh <- fwdResult{nil, m, attempt}
			return true
		}
		forwardCount.Inc()
		if _, err := r.up.WriteToUDP(out, m.addr); err != nil {
			resCh <- fwdResult{nil, m, attempt}
			return true
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer r.settle(id)
			timer := time.NewTimer(time.Until(deadline))
			defer timer.Stop()
			select {
			case resp := <-ch:
				resCh <- fwdResult{resp, m, attempt}
			case <-timer.C:
				resCh <- fwdResult{nil, m, attempt}
			case <-r.stop:
				resCh <- fwdResult{nil, m, attempt}
			}
		}()
		return true
	}

	if !launch() {
		giveUp() // budget already dead on arrival
		return
	}
	outstanding := 1
	hedge := time.NewTimer(r.cfg.HedgeAfter)
	defer hedge.Stop()
	overall := time.NewTimer(time.Until(deadline))
	defer overall.Stop()
	for {
		select {
		case res := <-resCh:
			outstanding--
			now := time.Now()
			failed := res.f == nil || (res.f.IsNack() &&
				(res.f.Code == airproto.StatusDegraded || res.f.Code == airproto.StatusRetryAfter))
			r.det.ReportForward(res.m.name, failed, now)
			if res.attempt < len(starts) {
				r.det.ReportLatency(res.m.name, now.Sub(starts[res.attempt]), !failed, now)
			}
			if !failed {
				// Success — or a fatal NACK (wrong length, bad frame, no
				// trace, expired-at-the-replica), which is the client's
				// answer too: relaying it beats a silent timeout.
				reply := *res.f
				reply.ID = origID
				r.writeTo(conn, from, &reply)
				if res.attempt > 0 {
					hedgedWinCount.Inc()
				}
				t.ObserveInto(forwardSeconds)
				closeHop(res.attempt, "won")
				var flags trace.Flags
				if res.f.IsNack() {
					flags = trace.FlagNack
				}
				finishRoot(flags) // the losing hedged hops close as cancelled
				elapsed := time.Since(start)
				r.fleetSLO.Observe(!res.f.IsNack() && elapsed <= r.cfg.Detector.SLOTarget)
				return
			}
			closeHop(res.attempt, "failed")
			if res.f != nil {
				// Explicit shed NACK: fail over immediately rather than
				// waiting out the hedge timer.
				if launch() {
					failoverCount.Inc()
					outstanding++
				}
			}
			if outstanding == 0 {
				giveUp()
				return
			}
		case <-hedge.C:
			if launch() {
				outstanding++
			}
			hedge.Reset(r.cfg.HedgeAfter)
		case <-overall.C:
			giveUp()
			return
		case <-r.stop:
			return
		}
	}
}

// lateBy reports how far past a nonzero expiry the clock is (0 when the
// expiry is zero or still ahead).
func lateBy(expiry time.Time) time.Duration {
	if expiry.IsZero() {
		return 0
	}
	if late := time.Since(expiry); late > 0 {
		return late
	}
	return 0
}
