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
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/airproto"
	"repro/internal/checkpoint"
	"repro/internal/netchaos"
	"repro/internal/obs"
	"repro/internal/obs/trace"
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

// Router fronts the fleet: it routes client frames across the replicas by
// consistent hash with failover and hedging, heartbeats every member, and
// replicates epochs with a canary gate (see Publish). It is the shell of
// the core, which takes every decision: Serve, the upstream read loop, a
// timer loop and Publish call it under mu, and one goroutine journals.
type Router struct {
	up   netchaos.PacketConn // upstream socket: every exchange with a replica
	path string              // the coordinator's journal ("" without StateDir)

	mu     sync.Mutex
	c      *core
	closed bool        // no core call acts once Close has begun
	timer  *time.Timer // fires at armed, never later than the core's next deadline
	armed  time.Time
	// The journal writer's queue: the newest state not yet journaled, and
	// the verdicts to deliver once it is.
	jstate    *checkpoint.FleetState
	jverdicts []verdict
	jkick     chan struct{}

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
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
// state, binds the upstream socket, and starts the upstream, timer and
// journal loops. Restored state wins over seed replicas for membership; the
// incarnation nonce is ALWAYS drawn fresh (never restored), so replicas
// still holding the previous incarnation's version mismatch and
// anti-entropy re-converges them onto the journaled epoch.
func NewRouter(cfg Config) (*Router, error) { return newRouter(cfg, nil) }

// newRouter is NewRouter over the given upstream socket (nil: bind one).
func newRouter(cfg Config, up netchaos.PacketConn) (*Router, error) {
	now := time.Now()
	c := newCore(cfg, newIncarnation(), now)
	r := &Router{up: up, c: c, jkick: make(chan struct{}, 1), stop: make(chan struct{})}
	for _, rep := range cfg.Replicas {
		addr, err := net.ResolveUDPAddr("udp", rep.Addr)
		if err != nil {
			return nil, fmt.Errorf("fleet: replica %q: %w", rep.Addr, err)
		}
		name := rep.Name
		if name == "" {
			name = addr.String()
		}
		c.add(name, addr)
	}
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			return nil, fmt.Errorf("fleet: state dir: %w", err)
		}
		r.path = filepath.Join(cfg.StateDir, "fleet-state.ckpt")
		if b, err := os.ReadFile(r.path); err == nil {
			if err := c.restore(b); err != nil {
				return nil, err
			}
		} else if !os.IsNotExist(err) { // a missing journal is a cold start
			return nil, fmt.Errorf("fleet: read state: %w", err)
		}
	}
	if r.up == nil {
		udp, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, err
		}
		r.up = udp
	}
	r.armed = c.next()
	r.timer = time.NewTimer(r.armed.Sub(now))
	r.wg.Add(3)
	go r.upstreamLoop()
	go r.timerLoop()
	go r.journalLoop()
	return r, nil
}

// step makes one core call under mu with the time read once, queues what
// it left for the journal, pulls the timer in, and after releasing mu
// writes the datagrams. buf is the caller's spare buffer; it returns the next.
func (r *Router) step(buf []datagram, call func(c *core, now time.Time)) []datagram {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return buf
	}
	now := time.Now()
	c := r.c
	call(c, now)
	outs := c.out
	c.out = buf[:0]
	if c.dirty || len(c.verdicts) > 0 {
		if c.dirty && r.path != "" {
			r.jstate = c.state()
		}
		r.jverdicts = append(r.jverdicts, c.verdicts...)
		c.dirty, c.verdicts = false, c.verdicts[:0]
		select {
		case r.jkick <- struct{}{}:
		default:
		}
	}
	if next := c.next(); next.Before(r.armed) {
		r.armed = next
		r.timer.Reset(next.Sub(now))
	}
	r.mu.Unlock()
	for _, s := range outs {
		err := errUnmarshalable
		if s.b != nil && s.client == nil {
			_, err = r.up.WriteToUDP(s.b, s.to)
		} else if s.b != nil {
			_, err = s.client.(netchaos.PacketConn).WriteToUDP(s.b, s.to)
		}
		if err != nil && s.w != nil {
			r.step(nil, func(c *core, now time.Time) { c.unsent(now, s.w) })
		} else if err != nil {
			c.cfg.Logf("fleet: reply to %s: %v", s.to, err)
		}
	}
	return outs
}

var errUnmarshalable = errors.New("unmarshalable frame")

// upstreamLoop hands every replica reply to the core.
func (r *Router) upstreamLoop() {
	defer r.wg.Done()
	buf := make([]byte, 65535)
	var outs []datagram
	for {
		n, from, err := r.up.ReadFromUDP(buf)
		if err != nil {
			return
		}
		if f, err := airproto.Unmarshal(buf[:n]); err == nil {
			outs = r.step(outs, func(c *core, now time.Time) { c.reply(now, from, f) })
		}
	}
}

// timerLoop lets the core act on whatever is due, and re-arms.
func (r *Router) timerLoop() {
	defer r.wg.Done()
	var outs []datagram
	for {
		select {
		case <-r.stop:
			return
		case <-r.timer.C:
		}
		outs = r.step(outs, func(c *core, now time.Time) {
			c.advance(now)
			r.armed = c.next()
			r.timer.Reset(r.armed.Sub(now))
		})
	}
}

// journalLoop journals the newest state with checkpoint.WriteFile (fsync,
// rename), then delivers the verdicts queued with it. A failed write is
// logged; the next change retries. Close drains the queue once more.
func (r *Router) journalLoop() {
	defer r.wg.Done()
	for stopped := false; !stopped; {
		select {
		case <-r.stop:
			stopped = true
		case <-r.jkick:
		}
		r.mu.Lock()
		st, vs := r.jstate, r.jverdicts
		r.jstate, r.jverdicts = nil, nil
		r.mu.Unlock()
		if st != nil {
			if err := checkpoint.WriteFile(r.path, checkpoint.EncodeFleetState(st)); err != nil {
				r.c.cfg.Logf("fleet: persist state: %v", err)
			}
		}
		for _, v := range vs {
			v.tag.(chan error) <- v.err
		}
	}
}

// Close stops the router's loops and the upstream socket. The
// client-facing connection passed to Serve belongs to the caller.
func (r *Router) Close() {
	r.closeOnce.Do(func() {
		r.mu.Lock()
		r.closed = true
		r.mu.Unlock()
		close(r.stop)
		r.up.Close()
		r.timer.Stop()
	})
	r.wg.Wait()
}

// Serve answers client frames on conn until it is closed (the caller owns
// shutdown, exactly like airServer.serve); see core.client. conn may be
// chaos-wrapped when the front link itself is under fault injection.
func (r *Router) Serve(conn netchaos.PacketConn) error {
	buf := make([]byte, 65535)
	var outs []datagram
	for {
		n, from, err := conn.ReadFromUDP(buf)
		if err != nil {
			return err
		}
		f, err := airproto.Unmarshal(buf[:n])
		if err != nil {
			f = nil
		}
		outs = r.step(outs, func(c *core, now time.Time) { c.client(now, conn, from, f) })
	}
}

// Members returns the current membership names in sorted order.
func (r *Router) Members() (names []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.c.sorted() {
		names = append(names, m.name)
	}
	return names
}

// CurrentTid returns the fleet sequence of the last committed publication
// (0 before the first).
func (r *Router) CurrentTid() uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.c.currentTid
}

// Incarnation returns this incarnation's nonce, the high half of every
// fleet version it publishes; it is never derived from Config.Seed.
func (r *Router) Incarnation() uint32 { return r.c.incar }

// MemberFleetSeq returns the last replicated-epoch sequence a member
// reported via heartbeat or join (ok=false for an unknown member).
func (r *Router) MemberFleetSeq(name string) (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.c.members[name]; m != nil {
		return m.fleetVer & 0xffffffff, true
	}
	return 0, false
}

// Live returns the number of members the detector currently routes to.
func (r *Router) Live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.c.live()
}

// FleetSnapshot returns the latest per-replica obs snapshots (keyed by
// member name; replicas that have not piggybacked one yet are absent) and
// their bucket-wise merge. The merge is associative/commutative, so the
// result is independent of heartbeat arrival order.
func (r *Router) FleetSnapshot() (merged obs.Snapshot, per map[string]obs.Snapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.c.fleetSnapshot()
}

// ErrRefused marks a permanent Publish verdict: the epoch itself was judged
// bad — it would not decode, the canary rejected it, or a fan-out replica
// refused it — and retrying the same bytes can never succeed. Publish
// errors NOT wrapping ErrRefused are transient transport failures (no live
// replicas yet, canary unreachable, chunk ack timeouts, a router closing):
// the fleet is unchanged or already rolled back, and the same epoch should
// be offered again. Callers gate retry-vs-skip on errors.Is(err, ErrRefused).
var ErrRefused = errors.New("epoch refused")

var errClosed = errors.New("fleet: router closed")

// Publish replicates one sealed checkpoint epoch across the fleet:
//
//  1. Validate — the bytes must decode as a sealed epoch (the journal
//     format) before a single chunk ships.
//  2. Canary — the first live replica in ring order (keyed by the transfer
//     sequence) applies the epoch in PushCanary mode and reports its
//     prediction agreement on held-out probes. A rejection or an agreement
//     below CanaryFrac rolls the canary, and the fleet, back to the prior
//     epoch under a fresh sequence.
//  3. Fan-out — every other live replica gets it in PushCommit mode at
//     once. A replica that never finishes is evicted and caught up later;
//     one that REFUSES the epoch triggers a fleet-wide rollback.
//
// Every completed Publish leaves the live replicas converged on one fleet
// sequence, and returns once the state it committed is journaled.
func (r *Router) Publish(sealed []byte) error {
	ep, err := checkpoint.DecodeEpoch(sealed)
	if err != nil {
		return fmt.Errorf("fleet: refusing to publish: %w (%w)", err, ErrRefused)
	}
	done := make(chan error, 1)
	r.step(nil, func(c *core, now time.Time) { c.publish(now, ep.Seq, sealed, done) })
	select {
	case err := <-done:
		return err
	case <-r.stop:
		return errClosed
	}
}
