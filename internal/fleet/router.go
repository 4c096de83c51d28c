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
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/airproto"
	"repro/internal/checkpoint"
	"repro/internal/netchaos"
	"repro/internal/obs"
	"repro/internal/obs/events"
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
	up  netchaos.PacketConn // upstream socket: every exchange with a replica
	// incar is this coordinator incarnation's random 32-bit nonce, stamped
	// on every push chunk and compared against the nonce replicas report
	// back. It must differ across process restarts (so it is NOT derived
	// from Config.Seed): transfer sequences restart from 1 with the process,
	// and replicas cache per-transfer verdicts keyed by (seq, nonce).
	incar uint32

	mu         sync.Mutex
	ring       *Ring // every member met; the detector alone decides who is routable
	members    map[string]*member
	current    []byte // sealed epoch the fleet converges on (nil before the first publish)
	currentTid uint32

	pubMu     sync.Mutex // one publication (or fleet rollback) at a time
	pubSeq    atomic.Uint32
	persistMu sync.Mutex // one journal write at a time, snapshot to rename

	nextID atomic.Uint32
	pendMu sync.Mutex
	pend   map[uint32]pending // forward attempts by upstream frame ID
	callMu sync.Mutex
	calls  map[callKey][]*waiter

	// fwdSeq numbers every forwarded request; with the client frame ID it
	// derives the deterministic fleet.request trace ID. It bumps whether or
	// not tracing is armed, so arming the tracer never shifts the sequence.
	fwdSeq atomic.Uint64

	inflight  atomic.Int64
	stop      chan struct{}
	closing   sync.RWMutex // forward timers act under its read lock; Close takes it for good
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// pending is the forward attempt a data reply's frame ID resolves to.
type pending struct {
	fw      *forwarding
	attempt int
}

// callKey is what a reply to a call matches on: the replica's address and
// the frame ID the reply echoes. Every replica answers a trace fetch or a
// push chunk under the same ID, so the ID alone cannot tell them apart.
type callKey struct {
	addr netip.AddrPort
	id   uint32
}

// keyOf keys a reply from addr. ReadFromUDP may report an IPv4 source as a
// 16-byte address, so the address is unmapped.
func keyOf(addr *net.UDPAddr, id uint32) callKey {
	ap := addr.AddrPort()
	return callKey{netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), id}
}

// waiter is one blocked call: the replies it takes, and the first of them.
type waiter struct {
	accept func(*airproto.Frame) bool
	got    chan *airproto.Frame // buffered 1
}

// newIncarnation draws a nonzero random 32-bit coordinator nonce. Entropy
// comes from the OS, falling back to the wall clock — never from a config
// seed, which a restarted process would reuse.
func newIncarnation() uint32 {
	var b [4]byte
	if _, err := crand.Read(b[:]); err == nil {
		if n := binary.LittleEndian.Uint32(b[:]); n != 0 {
			return n
		}
	}
	return uint32(time.Now().UnixNano()) | 1
}

// NewRouter resolves the seed replicas, restores any journaled coordinator
// state, binds the upstream socket, and starts the heartbeat and
// reply-dispatch loops. Restored state wins over seed replicas for
// membership; the incarnation nonce is ALWAYS drawn fresh (never restored),
// so replicas still holding the previous incarnation's version mismatch
// and anti-entropy re-converges them onto the journaled epoch.
func NewRouter(cfg Config) (*Router, error) { return newRouter(cfg, nil) }

// newRouter is NewRouter over the given upstream socket (nil: bind one).
func newRouter(cfg Config, up netchaos.PacketConn) (*Router, error) {
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:     cfg,
		det:     NewDetector(cfg.Detector, rng.New(cfg.Seed^0xf1ee7)),
		up:      up,
		incar:   newIncarnation(),
		ring:    NewRing(),
		members: make(map[string]*member),
		pend:    make(map[uint32]pending),
		calls:   make(map[callKey][]*waiter),
		stop:    make(chan struct{}),
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
	if r.up == nil {
		udp, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, err
		}
		r.up = udp
	}
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

// persistState journals the coordinator's core state durably with
// checkpoint.WriteFile (temp file, fsync, rename, directory fsync), so a
// crash leaves the old journal or the new one, never a short file that
// restoreState would refuse. One call at a time snapshots and writes, so
// the last write holds the newest state. Failures are logged, not fatal:
// the fleet runs on its in-memory state and the next mutation retries.
func (r *Router) persistState() {
	if r.cfg.StateDir == "" {
		return
	}
	r.persistMu.Lock()
	defer r.persistMu.Unlock()
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
	if err := checkpoint.WriteFile(r.statePath(), checkpoint.EncodeFleetState(st)); err != nil {
		r.cfg.Logf("fleet: persist state: %v", err)
	}
}

// Close stops the heartbeat loop and the upstream socket. The client-facing
// connection passed to Serve belongs to the caller.
func (r *Router) Close() {
	r.closeOnce.Do(func() {
		r.closing.Lock() // never released: no forward timer acts once Close holds it
		close(r.stop)
		r.up.Close()
	})
	r.wg.Wait()
}

// Members returns the current membership names in sorted order.
func (r *Router) Members() []string {
	r.mu.Lock()
	out := make([]string, 0, len(r.members))
	for name := range r.members {
		out = append(out, name)
	}
	r.mu.Unlock()
	sort.Strings(out)
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

// call sends req to m on the upstream socket and waits up to wait for m's
// reply to it: the first frame from m's address under req's ID that accept
// takes (nil takes any). It returns nil when the write fails, the wait runs
// out or the router closes.
func (r *Router) call(m *member, req *airproto.Frame, wait time.Duration, accept func(*airproto.Frame) bool) *airproto.Frame {
	out, err := req.Marshal()
	if err != nil {
		return nil
	}
	k, w := keyOf(m.addr, req.ID), &waiter{accept: accept, got: make(chan *airproto.Frame, 1)}
	r.callMu.Lock()
	r.calls[k] = append(r.calls[k], w)
	r.callMu.Unlock()
	defer func() {
		r.callMu.Lock()
		if ws := slices.DeleteFunc(r.calls[k], func(x *waiter) bool { return x == w }); len(ws) > 0 {
			r.calls[k] = ws
		} else {
			delete(r.calls, k)
		}
		r.callMu.Unlock()
	}()
	if _, err := r.up.WriteToUDP(out, m.addr); err != nil {
		return nil
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case f := <-w.got:
		return f
	case <-timer.C:
	case <-r.stop:
	}
	return nil
}

// upstreamLoop hands every replica reply to whatever sent it — the reverse
// half of the router's NAT. Only calls send heartbeats, trace fetches and
// push chunks, and only a trace fetch earns StatusNoTrace: those replies go
// to the call waiting on their sender and frame ID. Anything else, a data
// reply above all, goes to the forward attempt that owns its frame ID.
func (r *Router) upstreamLoop() {
	defer r.wg.Done()
	buf := make([]byte, 65535)
	for {
		n, from, err := r.up.ReadFromUDP(buf)
		if err != nil {
			return
		}
		f, err := airproto.Unmarshal(buf[:n])
		if err != nil || f.ID == 0 {
			continue
		}
		switch {
		case f.Kind == airproto.KindHeartbeat, f.Kind == airproto.KindTrace, f.Kind == airproto.KindEpochAck,
			f.IsNack() && f.Code == airproto.StatusNoTrace:
			r.deliver(from, f)
		default:
			r.dispatch(f)
		}
	}
}

// deliver hands a call's reply to the first call waiting on its sender and
// frame ID that takes it and has no reply yet.
func (r *Router) deliver(from *net.UDPAddr, f *airproto.Frame) {
	r.callMu.Lock()
	defer r.callMu.Unlock()
	for _, w := range r.calls[keyOf(from, f.ID)] {
		if w.accept == nil || w.accept(f) {
			select {
			case w.got <- f:
				return
			default: // answered already
			}
		}
	}
}

// dispatch hands one data-plane reply to the forward attempt that sent its
// frame ID. The entry goes with its first reply, so a duplicate finds
// nothing.
func (r *Router) dispatch(f *airproto.Frame) {
	r.pendMu.Lock()
	p := r.pend[f.ID]
	if p.fw != nil {
		delete(r.pend, f.ID)
	}
	r.pendMu.Unlock()
	if fw := p.fw; fw != nil {
		fw.mu.Lock()
		fw.unlock(fw.result(p.attempt, f))
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

// heartbeat runs one liveness call to a member and feeds the outcome to
// the detector. A live reply also carries the member's replicated-epoch
// sequence, which drives anti-entropy: a stale member gets a catch-up push.
func (r *Router) heartbeat(m *member) {
	f := r.call(m, airproto.Heartbeat(r.newID()), r.cfg.HeartbeatTimeout, nil)
	select {
	case <-r.stop:
		return // closing: no verdict
	default:
	}
	if f == nil {
		r.observeMember(m, false)
		return
	}
	if seq, nonce, ok := f.FleetVersion(); ok && f.Kind == airproto.KindHeartbeat {
		m.fleetVer.Store(uint64(nonce)<<32 | seq)
		// The reply may piggyback the replica's obs snapshot. A blob
		// mangled in flight fails its CRC and is simply skipped — the
		// member's last good snapshot stands until a clean one lands.
		if blob := f.Snapshot(); blob != nil {
			if snap, err := obs.DecodeSnapshot(blob); err == nil {
				m.snap.Store(&snap)
			}
		}
	}
	r.observeMember(m, true)
	r.maybeCatchUp(m)
}

// observeMember feeds one heartbeat outcome to the detector and records
// its eviction and recovery edges. Routing follows the detector's state on
// its own: liveRoute skips members that are not Alive.
func (r *Router) observeMember(m *member, ok bool) {
	prev := r.det.State(m.name)
	st := r.det.Observe(m.name, ok, time.Now())
	if st == prev {
		return
	}
	if st == Evicted {
		r.evicted(m, "missed heartbeats and all probes")
	} else if st == Alive {
		r.cfg.Logf("fleet: replica %s recovered (%s -> %s)", m.name, prev, st)
	}
}

// evict forces a member to Evicted, which takes it out of routing (the
// record and its ring points stay, so a rejoin is cheap). Idempotent.
func (r *Router) evict(m *member, why string) {
	if r.det.Evict(m.name) != Evicted {
		r.evicted(m, why)
	}
}

// evicted records one member's eviction edge.
func (r *Router) evicted(m *member, why string) {
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
// The push goes out in PushCatchUp mode, the one mode in which a replica
// re-applies a transfer it once applied and has since moved off. One
// catch-up per member at a time; the member's next heartbeat reply shows
// whether it landed.
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
		ack, err := r.pushEpoch(m, tid, cur, airproto.PushCatchUp)
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
// registers the member and its serving address (the datagram's source), a
// rejoin revives an evicted or suspect member, and either way a replica
// reporting a stale fleet version gets a catch-up push.
func (r *Router) handleJoin(f *airproto.Frame, from *net.UDPAddr) {
	name := from.String()
	fleetSeq, fleetNonce, _ := f.FleetVersion()
	r.mu.Lock()
	m := r.members[name]
	fresh := m == nil
	if fresh {
		m = &member{name: name, addr: from}
		r.members[name] = m
		r.ring.Add(name)
	}
	curTid := r.currentTid
	r.mu.Unlock()

	m.fleetVer.Store(uint64(fleetNonce)<<32 | fleetSeq)
	if prev := r.det.Revive(name); fresh || prev != Alive {
		joinCount.Inc()
		r.cfg.Logf("fleet: replica %s joined (reported epoch %d, fleet at %d)", name, fleetSeq, curTid)
		events.Default().Emit(events.FleetMember, "replica joined",
			events.Str("member", name),
			events.Num("reported_seq", float64(fleetSeq)),
			events.Num("fleet_seq", float64(curTid)))
	}
	if fresh {
		// Off the client read loop, which sends every forward's first attempt.
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.persistState()
		}()
	}
	r.maybeCatchUp(m)
}

// liveRoute returns up to n Alive members in ring order from key.
func (r *Router) liveRoute(key uint64, n int) []*member {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*member, 0, n)
	for _, name := range r.ring.Route(key, r.ring.Len()) {
		if r.det.State(name) == Alive {
			if out = append(out, r.members[name]); len(out) == n {
				break
			}
		}
	}
	return out
}

// Live returns the number of members the detector currently routes to.
func (r *Router) Live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for name := range r.members {
		if r.det.State(name) == Alive {
			n++
		}
	}
	return n
}

// Serve answers client frames on conn until it is closed (the caller owns
// shutdown, exactly like airServer.serve). Data requests are forwarded to
// replicas; this loop sends each forward's first attempt. Stats and trace
// requests are answered by the router itself (fleet-merged counters,
// stitched cross-replica traces) on the control plane, outside admission;
// joins update membership; everything else is dropped. conn is any
// netchaos.PacketConn — a bare *net.UDPConn in production, or a
// chaos-wrapped one when the front link itself is under fault injection.
func (r *Router) Serve(conn netchaos.PacketConn) error {
	// One read buffer for the socket's lifetime: Unmarshal copies the
	// payload out, so nothing a forward or a goroutine keeps aliases it.
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
			r.handleJoin(f, from)
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
			r.forward(conn, f, from)
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

// forwarding is one client request on its way through the fleet: Serve
// starts it (forward), the upstream loop hands it each reply (dispatch),
// and one timer fires its hedges and its deadline (fire). Decisions are
// taken under mu; socket writes wait until mu is released. done is set
// once, with the answer, so a reply landing inside its attempt's write, a
// duplicate reply or a reply racing the timer cannot answer twice.
type forwarding struct {
	r        *Router
	conn     netchaos.PacketConn
	from     *net.UDPAddr
	req      *airproto.Frame // the client's frame, under the client's ID
	prefs    []*member       // candidates, primary first
	expiry   time.Time       // the client's deadline budget, pinned on arrival (zero: none)
	deadline time.Time       // when the router stops waiting: ForwardTimeout or the expiry
	start    obs.Timer
	root     *trace.Span

	mu    sync.Mutex
	timer *time.Timer
	att   []attempt // cap len(prefs), so an append never moves one
	open  int       // attempts sent and not yet settled
	done  bool
}

// attempt i is the copy of the request sent to prefs[i].
type attempt struct {
	id   uint32 // upstream frame ID
	hop  *trace.Span
	open bool
}

// settle closes an open attempt and its hop span with an outcome.
func (fw *forwarding) settle(a *attempt, outcome string) {
	a.open, fw.open = false, fw.open-1
	a.hop.SetStr("outcome", outcome)
	a.hop.End()
}

// effect is the one socket write a decision leaves for after the lock:
// attempt i's frame (nil if it would not marshal), or the client's answer.
type effect struct {
	to     *net.UDPAddr
	out    []byte
	i      int
	answer *airproto.Frame
}

// forward starts routing one client request: the consistent-hash
// preference list for the client's address gives the primary and the
// failover order. A degraded or retry-after NACK fails over at once; a slow
// candidate is hedged after HedgeAfter, and the first reply wins, going
// back under the client's frame ID: clients see the fleet as one server.
//
// A deadline budget is pinned to an absolute expiry on arrival, and every
// attempt re-stamps what remains of it, so a replica sees how much time the
// client actually has left. Once it is gone the router launches nothing
// more and answers StatusExpired itself.
func (r *Router) forward(conn netchaos.PacketConn, f *airproto.Frame, from *net.UDPAddr) {
	client := from.String()
	prefs := r.liveRoute(hashString(client), r.cfg.MaxAttempts)
	if len(prefs) == 0 || r.inflight.Load() >= int64(r.cfg.InflightPerReplica*r.Live()) {
		// Router-level load shedding: fleet health sets the cap, so a
		// shrinking fleet sheds early instead of queueing forwards that
		// will only time out.
		shedCount.Inc()
		r.writeTo(conn, from, airproto.Nack(f.ID, airproto.StatusDegraded, 0))
		return
	}
	r.inflight.Add(1)
	now := time.Now()
	fw := &forwarding{r: r, conn: conn, from: from, req: f, prefs: prefs,
		deadline: now.Add(r.cfg.ForwardTimeout), start: obs.StartTimer(),
		att: make([]attempt, 0, len(prefs))}
	if d := f.Deadline(); d > 0 {
		// The client stops listening before we stop trying.
		fw.expiry, fw.deadline = now.Add(d), now.Add(min(d, r.cfg.ForwardTimeout))
	}
	// Trace IDs derive from the client frame ID and a forward ordinal, never
	// from rng; a disabled tracer returns nil spans, whose methods no-op.
	fw.root = r.cfg.Tracer.Start("fleet.request", trace.Derive(0xf1ee70b5, uint64(f.ID), r.fwdSeq.Add(1)))
	fw.root.SetStr("client", client)
	fw.mu.Lock()
	e := fw.launch(now)
	fw.timer = time.AfterFunc(fw.nextFire(now), fw.fire)
	if e.to == nil {
		e = fw.giveUp(now) // budget already dead on arrival
	}
	fw.unlock(e)
}

// fire is the forward's timer: before the deadline it hedges the next
// candidate; at the deadline every open attempt fails, and the last to fail
// gives up. Once Close has begun it does nothing.
func (fw *forwarding) fire() {
	if !fw.r.closing.TryRLock() {
		return
	}
	defer fw.r.closing.RUnlock()
	fw.mu.Lock()
	var e effect
	switch now := time.Now(); {
	case fw.done:
	case now.Before(fw.deadline):
		e = fw.launch(now)
		fw.timer.Reset(fw.nextFire(now))
	default:
		for i := range fw.att {
			if x := fw.result(i, nil); x.answer != nil {
				e = x
			}
		}
	}
	fw.unlock(e)
}

// nextFire is the wait until the next hedge, or until the deadline once no
// candidate is left.
func (fw *forwarding) nextFire(now time.Time) time.Duration {
	if len(fw.att) < len(fw.prefs) {
		return min(fw.r.cfg.HedgeAfter, fw.deadline.Sub(now))
	}
	return fw.deadline.Sub(now)
}

// unlock releases mu, then performs the decision's write. An attempt that
// cannot be sent fails, which may give up.
func (fw *forwarding) unlock(e effect) {
	fw.mu.Unlock()
	if e.to != nil {
		if e.out != nil {
			if _, err := fw.r.up.WriteToUDP(e.out, e.to); err == nil {
				return
			}
		}
		fw.mu.Lock()
		fw.unlock(fw.result(e.i, nil))
	} else if e.answer != nil {
		fw.r.writeTo(fw.conn, fw.from, e.answer)
	}
}

// launch builds the next candidate's attempt, unless the candidates or the
// budget are spent. The attempt is registered before it is written, so its
// reply may land while the write is still in progress. Callers hold mu, as
// for every method below.
func (fw *forwarding) launch(now time.Time) effect {
	i, remaining := len(fw.att), fw.expiry.Sub(now)
	if i == len(fw.prefs) || !fw.expiry.IsZero() && remaining <= 0 {
		return effect{}
	}
	fwd := *fw.req
	if !fw.expiry.IsZero() {
		fwd.SetDeadline(remaining)
	}
	m := fw.prefs[i]
	fwd.ID = fw.r.newID()
	hop := fw.root.Child("fleet.hop")
	hop.SetStr("replica", m.name)
	hop.SetNum("attempt", float64(i))
	// The hop carries the router's own trace context or none, never a
	// context the client put on its frame.
	fwd.Trace, fwd.ParentSpan = uint64(fw.root.TraceID()), uint64(hop.ID())
	fw.att = append(fw.att, attempt{id: fwd.ID, hop: hop, open: true})
	fw.open++
	fw.r.pendMu.Lock()
	fw.r.pend[fwd.ID] = pending{fw: fw, attempt: i}
	fw.r.pendMu.Unlock()
	out, err := fwd.Marshal()
	if err == nil {
		forwardCount.Inc()
	}
	return effect{to: m.addr, out: out, i: i}
}

// result takes attempt i's outcome: its reply f, or nil when it could not
// be sent or the deadline passed. A success or a fatal NACK (wrong length,
// bad frame, expired at the replica) is the client's answer; a shed NACK
// fails over at once; when the last open attempt fails, the forward gives
// up. A settled attempt, or an answered forward, takes nothing more.
func (fw *forwarding) result(i int, f *airproto.Frame) effect {
	a := &fw.att[i]
	if fw.done || !a.open {
		return effect{}
	}
	now := time.Now()
	failed := f == nil || (f.IsNack() &&
		(f.Code == airproto.StatusDegraded || f.Code == airproto.StatusRetryAfter))
	if !failed {
		answer := *f
		answer.ID = fw.req.ID
		if i > 0 {
			hedgedWinCount.Inc()
		}
		fw.start.ObserveInto(forwardSeconds)
		fw.settle(a, "won")
		var flags trace.Flags
		if f.IsNack() {
			flags = trace.FlagNack
		}
		fw.finish(flags) // the losing hedged hops close as cancelled
		return effect{answer: &answer}
	}
	fw.settle(a, "failed")
	if f != nil {
		if e := fw.launch(now); e.to != nil {
			failoverCount.Inc()
			return e
		}
	}
	if fw.open > 0 {
		return effect{}
	}
	return fw.giveUp(now)
}

// giveUp answers the client when no attempt can succeed anymore: an
// exhausted deadline budget is StatusExpired (with the lateness), an
// exhausted candidate list is StatusDegraded.
func (fw *forwarding) giveUp(now time.Time) effect {
	if !fw.expiry.IsZero() && !now.Before(fw.expiry) {
		expiredCount.Inc()
		fw.root.SetStr("outcome", "expired")
		fw.finish(trace.FlagError)
		return effect{answer: airproto.ExpiredNack(fw.req.ID, now.Sub(fw.expiry))}
	}
	shedCount.Inc()
	fw.root.SetStr("outcome", "shed")
	fw.finish(trace.FlagShed)
	return effect{answer: airproto.Nack(fw.req.ID, airproto.StatusDegraded, 0)}
}

// finish marks the forward answered, stops its timer, drops its pending
// entries so late replies find nothing, and closes open hops as cancelled.
func (fw *forwarding) finish(flags trace.Flags) {
	fw.done = true
	fw.timer.Stop()
	fw.r.pendMu.Lock()
	for i := range fw.att {
		delete(fw.r.pend, fw.att[i].id)
		if fw.att[i].open {
			fw.settle(&fw.att[i], "cancelled")
		}
	}
	fw.r.pendMu.Unlock()
	fw.root.SetNum("attempts", float64(len(fw.att)))
	fw.root.Finish(flags)
	fw.r.inflight.Add(-1)
}
