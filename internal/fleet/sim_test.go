package fleet

import (
	"bytes"
	"container/heap"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"net"
	"net/netip"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/airproto"
	"repro/internal/checkpoint"
	"repro/internal/cplx"
	"repro/internal/netchaos"
	"repro/internal/ota"
	"repro/internal/rng"
)

// The seed sweep runs the router's core, the code the Router shell drives,
// on one goroutine in virtual time: the sweep owns the clock, hands the
// core every datagram and every deadline in time order, and jumps the
// clock to whichever comes next. A datagram between the router and a
// replica passes a netchaos.Lane per link direction while chaos is on; the
// client's links are clean. Nothing reads the wall clock, so a seed
// replays exactly.

// simEpochs are the sweep's three sealed epochs: two good ones and one
// the canary refuses. Solving a deployment takes milliseconds, so every
// seed shares them.
var simEpochs = sync.OnceValue(func() [3][]byte {
	var out [3][]byte
	for i := range out {
		src := rng.New(uint64(100 + i))
		w := cplx.NewMat(3, 8)
		for j := range w.Data {
			w.Data[j] = complex(src.Normal(0, 1), src.Normal(0, 1))
		}
		d, err := ota.NewDeployment(w, ota.NewOptions(src.Split()), src)
		if err != nil {
			panic(err)
		}
		out[i] = checkpoint.EncodeEpoch(&checkpoint.Epoch{Seq: uint64(i + 1), Reason: "deploy", State: d.State()})
	}
	return out
})

// The sweep's ports: replicas at simReplicaPort+i, the router's client
// socket at simFrontPort, the client at simClientPort, and each router
// incarnation's upstream socket at simUpstreamPort+k.
const (
	simReplicaPort  = 7000
	simFrontPort    = 8000
	simClientPort   = 8100
	simUpstreamPort = 9000
)

// simEvent is one entry of the sweep's queue: a datagram's arrival or one
// of the sweep's own ticks.
type simEvent struct {
	at  time.Time
	seq uint64 // FIFO among events due at once
	fn  func()
}

type simQueue []*simEvent

func (q simQueue) Len() int { return len(q) }
func (q simQueue) Less(i, j int) bool {
	return q[i].at.Before(q[j].at) || q[i].at.Equal(q[j].at) && q[i].seq < q[j].seq
}
func (q simQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *simQueue) Push(x any)   { *q = append(*q, x.(*simEvent)) }
func (q *simQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// simReplica is one replica of the sweep: a real Agent and a stub data
// plane behind one address.
type simReplica struct {
	i     int
	addr  *net.UDPAddr
	agent *Agent
	up    bool
	hist  []uint64 // the agent's fleet version after each frame it handled, when it changed
}

func (rep *simReplica) version() uint64 {
	seq, nonce := rep.agent.FleetVersion()
	return uint64(nonce)<<32 | seq
}

// sim is one seed's fleet: the router's core, three replicas and a client,
// over a virtual network.
type sim struct {
	seed    uint64
	src     *rng.Source // the episode's choices
	netSrc  *rng.Source // link latencies
	rates   netchaos.Rates
	lanes   map[[2]netip.AddrPort]*netchaos.Lane
	calm    bool
	now     time.Time
	queue   simQueue
	nextSeq uint64
	joins   bool        // replicas announce themselves with KindJoin, as metaai-serve -join does
	trail   hash.Hash64 // every datagram and its arrival time, when set
	front   *net.UDPAddr
	client  *net.UDPAddr

	cfg      Config
	core     *core
	upstream *net.UDPAddr // the running incarnation's upstream socket
	ups      int
	nonces   map[uint32]bool
	journal  []byte // the last coordinator state the core asked to journal

	reps    [3]*simReplica
	retired []*simReplica // crashed replicas, whose histories still count

	load      bool
	nextReq   uint32
	answers   map[uint32]int
	pubAt     map[string]bool // every epoch handed to publish: true if the canary must refuse it
	pubTid    uint32          // the transfer the running publication runs as
	verdict   *error
	unpub     int             // applies of bytes the router never published
	committed map[uint64]bool // every (incarnation, sequence) the router committed
	refused   map[uint64]bool // every (incarnation, sequence) of a refused transfer
	catchups  int             // catch-ups the core started
	errs      []string
}

func (s *sim) fail(format string, args ...any) { s.errs = append(s.errs, fmt.Sprintf(format, args...)) }

// simConfig is the router's configuration in the sweep: metaai-fleet's
// shipped timings, which cost nothing in virtual time.
func simConfig(seed uint64) Config {
	cfg := Config{Seed: seed}
	for i := 0; i < 3; i++ {
		cfg.Replicas = append(cfg.Replicas, Replica{Addr: memAddrOf(simReplicaPort + i).String()})
	}
	return cfg
}

func newSim(seed uint64, rate float64, joins bool, trail bool) *sim {
	s := &sim{seed: seed, src: rng.New(seed ^ 0x51a1), netSrc: rng.New(seed ^ 0x1a7e), rates: netchaos.Mix(rate),
		lanes: make(map[[2]netip.AddrPort]*netchaos.Lane), now: time.Unix(1_700_000_000, 0), joins: joins,
		front: memAddrOf(simFrontPort), client: memAddrOf(simClientPort), cfg: simConfig(seed),
		nonces: make(map[uint32]bool), answers: make(map[uint32]int), pubAt: make(map[string]bool),
		committed: make(map[uint64]bool), refused: make(map[uint64]bool)}
	if trail {
		s.trail = fnv.New64a()
	}
	for i, ep := range simEpochs() {
		s.pubAt[string(ep)] = i == 1
	}
	for i := range s.reps {
		s.startReplica(i)
	}
	s.startRouter()
	s.every(simLoadEvery, func() bool {
		if s.load {
			s.nextReq++
			s.write(s.client, s.front, &airproto.Frame{ID: s.nextReq, Data: []complex128{1, 2}})
		}
		return true
	})
	return s
}

// simLoadEvery is the client's request period while load is on.
const simLoadEvery = 20 * time.Millisecond

// at schedules fn at time t.
func (s *sim) at(t time.Time, fn func()) {
	s.nextSeq++
	heap.Push(&s.queue, &simEvent{t, s.nextSeq, fn})
}

// every runs fn each period until it returns false.
func (s *sim) every(period time.Duration, fn func() bool) {
	var tick func()
	tick = func() {
		if fn() {
			s.at(s.now.Add(period), tick)
		}
	}
	s.at(s.now.Add(period), tick)
}

// send carries one datagram: through its link's lane while chaos is on,
// then after a latency drawn per datagram.
func (s *sim) send(from, to *net.UDPAddr, b []byte) {
	pkts := []netchaos.Packet{{Data: b, Addr: to}}
	if !s.calm && from.Port != simClientPort && to.Port != simClientPort {
		link := [2]netip.AddrPort{apOf(from), apOf(to)}
		l := s.lanes[link]
		if l == nil {
			l = netchaos.NewLane(s.rates, s.seed^uint64(from.Port)<<32^uint64(to.Port))
			s.lanes[link] = l
		}
		pkts = l.Apply(b, to)
	}
	for _, p := range pkts {
		s.deliver(from, p)
	}
}

func (s *sim) deliver(from *net.UDPAddr, p netchaos.Packet) {
	b := append([]byte(nil), p.Data...)
	s.at(s.now.Add(time.Duration(50+s.netSrc.IntN(500))*time.Microsecond), func() {
		s.arrive(from, p.Addr, b)
	})
}

func (s *sim) write(from, to *net.UDPAddr, f *airproto.Frame) {
	if b, err := f.Marshal(); err == nil {
		s.send(from, to, b)
	}
}

// quiet switches chaos off and delivers every datagram a lane still holds,
// lane by lane in address order.
func (s *sim) quiet() {
	s.calm = true
	links := make([][2]netip.AddrPort, 0, len(s.lanes))
	for link := range s.lanes {
		links = append(links, link)
	}
	sort.Slice(links, func(i, j int) bool {
		return links[i][0].Port() < links[j][0].Port() || links[i][0] == links[j][0] && links[i][1].Port() < links[j][1].Port()
	})
	for _, link := range links {
		for _, p := range s.lanes[link].Flush() {
			s.deliver(net.UDPAddrFromAddrPort(link[0]), p)
		}
	}
}

// arrive hands one datagram to the endpoint bound at its destination; a
// datagram to no endpoint (a crashed replica, a dead incarnation's
// upstream socket) is lost.
func (s *sim) arrive(from, to *net.UDPAddr, b []byte) {
	if s.trail != nil {
		fmt.Fprintf(s.trail, "%d %d>%d %x\n", s.now.UnixMicro(), from.Port, to.Port, b)
	}
	f, err := airproto.Unmarshal(b)
	switch port := to.Port; {
	case port == s.upstream.Port && err == nil:
		s.step(func() { s.core.reply(s.now, from, f) })
	case port == simFrontPort:
		if err != nil {
			f = nil
		}
		s.step(func() { s.core.client(s.now, s.front, from, f) })
		if f != nil && f.Kind == airproto.KindJoin && s.core.det.State(from.String()) != Alive {
			if _, _, ok := f.FleetVersion(); ok { // one that fails its digest is dropped
				s.fail("a join left member %s %v", from, s.core.det.State(from.String()))
			}
		}
	case port == simClientPort && err == nil:
		s.answers[f.ID]++
	case port >= simReplicaPort && port < simReplicaPort+len(s.reps) && err == nil:
		rep := s.reps[port-simReplicaPort]
		if !rep.up || f.IsNack() {
			return
		}
		if f.Kind == airproto.KindData {
			s.write(rep.addr, from, &airproto.Frame{ID: f.ID, Label: int32(rep.i), Data: []complex128{1}})
			return
		}
		reply, ok := rep.agent.HandleFrame(f)
		if v := rep.version(); len(rep.hist) == 0 || rep.hist[len(rep.hist)-1] != v {
			rep.hist = append(rep.hist, v)
		}
		if ok {
			s.write(rep.addr, from, reply)
		}
	}
}

// step makes one core call and applies what it returned, as the Router
// shell does: it writes the datagrams, journals the state and takes the
// verdicts.
func (s *sim) step(call func()) {
	c := s.core
	before := c.catchups
	call()
	s.catchups += max(0, c.catchups-before)
	for len(c.out) > 0 {
		outs := c.out
		c.out = nil
		for _, d := range outs {
			switch {
			case d.b == nil:
				c.unsent(s.now, d.w)
			case d.client == nil:
				s.send(s.upstream, d.to, d.b)
			default:
				s.send(s.front, d.to, d.b)
			}
		}
	}
	if c.dirty {
		s.journal, c.dirty = checkpoint.EncodeFleetState(c.state()), false
	}
	for _, v := range c.verdicts {
		s.judge(v.err)
	}
	c.verdicts = c.verdicts[:0]
}

// run advances virtual time until cond holds or limit has passed,
// delivering datagrams, the sweep's ticks and the core's deadlines in
// time order. It reports whether cond held.
func (s *sim) run(limit time.Duration, cond func() bool) bool {
	end := s.now.Add(limit)
	for !cond() {
		next, ev := s.core.next(), false
		if len(s.queue) > 0 && !s.queue[0].at.After(next) {
			next, ev = s.queue[0].at, true
		}
		if next.After(end) {
			s.now = end
			return false
		}
		s.now = next
		if ev {
			heap.Pop(&s.queue).(*simEvent).fn()
		} else {
			s.step(func() { s.core.advance(s.now) })
		}
	}
	return true
}

// pause runs up to 500ms, so heartbeats and catch-ups interleave.
func (s *sim) pause() {
	s.run(time.Duration(s.src.IntN(500))*time.Millisecond, func() bool { return false })
}

func (s *sim) waitFor(what string, cond func() bool) bool {
	if !s.run(time.Minute, cond) {
		s.fail("%s did not happen within a virtual minute", what)
		return false
	}
	return true
}

// apply is every agent's ApplyFunc: the epoch must be one the router was
// asked to publish, and the canary refuses the bad one.
func (s *sim) apply(sealed []byte, mode uint8, tid uint32) (float64, error) {
	bad, ok := s.pubAt[string(sealed)]
	if !ok {
		s.unpub++
		return 0, errors.New("never published")
	}
	if bad && mode == airproto.PushCanary {
		return 0.5, nil
	}
	return 1, nil
}

// startReplica starts replica i with a fresh agent; with joins on it
// announces itself to the router every 2s, as metaai-serve -join does.
func (s *sim) startReplica(i int) {
	rep := &simReplica{i: i, addr: memAddrOf(simReplicaPort + i), agent: NewAgent(s.apply), up: true}
	s.reps[i] = rep
	id := uint32(0)
	if s.joins {
		s.every(2*time.Second, func() bool {
			if id++; rep.up {
				seq, nonce := rep.agent.FleetVersion()
				s.write(rep.addr, s.front, airproto.Join(id, seq, nonce))
			}
			return rep.up
		})
	}
}

// crash stops replica i without ceremony: its agent's state is gone.
func (s *sim) crash(i int) {
	s.reps[i].up = false
	s.retired = append(s.retired, s.reps[i])
}

// startRouter starts a router incarnation, with a fresh nonce, on a fresh
// upstream socket: the seed replicas, then the journaled state restored
// through the code NewRouter uses.
func (s *sim) startRouter() {
	nonce := uint32(s.src.Uint64()) | 1
	for s.nonces[nonce] {
		nonce += 2
	}
	s.nonces[nonce] = true
	s.upstream = memAddrOf(simUpstreamPort + s.ups)
	s.ups++
	s.core = newCore(s.cfg, nonce, s.now)
	for _, rep := range s.cfg.Replicas {
		addr, _ := net.ResolveUDPAddr("udp", rep.Addr)
		s.core.add(addr.String(), addr)
	}
	if s.journal != nil {
		if err := s.core.restore(s.journal); err != nil {
			s.fail("restore: %v", err)
		}
	}
	s.noteCommitted()
}

// noteCommitted records the router's committed fleet version.
func (s *sim) noteCommitted() {
	if tid := s.core.currentTid; tid != 0 {
		s.committed[s.core.ver(tid)] = true
	}
}

// answered reports whether every request sent so far has an answer.
func (s *sim) answered() bool { return len(s.answers) >= int(s.nextReq) }

// restartRouter stops the router once every request it accepted is
// answered, and starts the next incarnation from the journal.
func (s *sim) restartRouter() {
	s.load = false
	s.waitFor("every request to be answered", s.answered)
	s.startRouter()
	s.load = true
}

// publish offers one epoch until the router reaches a verdict on it: a
// good epoch until it commits, the bad one until it is refused. A
// transient failure (an unreachable canary, a lost verdict, no live
// replica) is offered again within half a second, as metaai-fleet does.
// Verdicts and agreements carry a digest, so chaos can delay a verdict but
// not flip it: a good epoch must never be refused, nor the bad one commit.
func (s *sim) publish(i int) {
	sealed := simEpochs()[i]
	bad := s.pubAt[string(sealed)]
	for end := s.now.Add(5 * time.Minute); s.now.Before(end); {
		s.verdict, s.pubTid = nil, s.core.pubSeq+1
		s.step(func() { s.core.publish(s.now, uint64(i+1), sealed, nil) })
		if !s.waitFor(fmt.Sprintf("a verdict on epoch %d", i+1), func() bool { return s.verdict != nil }) {
			return
		}
		switch err := *s.verdict; {
		case err == nil && bad:
			s.fail("the canary passed bad epoch %d", i+1)
			return
		case errors.Is(err, ErrRefused) && !bad:
			s.fail("good epoch %d refused: %v", i+1, err)
			return
		case err == nil || errors.Is(err, ErrRefused):
			return
		}
		s.pause()
	}
	s.fail("publication of epoch %d never reached a verdict", i+1)
}

// judge takes a publication's verdict at the instant the core returns it,
// before any heartbeat can repair the fleet: every member the router
// routes to must hold the version the router records for it, and none may
// hold a refused transfer. A member evicted mid-push may lag.
func (s *sim) judge(err error) {
	c := s.core
	s.verdict = &err
	if errors.Is(err, ErrRefused) {
		s.refused[c.ver(s.pubTid)] = true
	}
	s.noteCommitted()
	for _, rep := range s.reps {
		name := rep.addr.String()
		m := c.members[name]
		if !rep.up || m == nil || c.det.State(name) != Alive {
			continue
		}
		if v := rep.version(); s.refused[v] {
			s.fail("at verdict %v, routed member %s holds refused transfer %d", err, name, v&0xffffffff)
		} else if v != m.fleetVer {
			s.fail("at verdict %v, the router records routed member %s at %x, it holds %x", err, name, m.fleetVer, v)
		}
	}
}

// converged reports whether every running replica holds the router's
// (incarnation, committed sequence), the router records each at that
// version, and the router routes to exactly the running replicas.
func (s *sim) converged() bool {
	c := s.core
	want := c.ver(c.currentTid)
	running := 0
	for _, rep := range s.reps {
		if !rep.up {
			continue
		}
		running++
		name := rep.addr.String()
		if m := c.members[name]; rep.version() != want || m == nil || m.fleetVer != want || c.det.State(name) != Alive {
			return false
		}
	}
	return c.live() == running
}

// settle switches chaos off, waits for the fleet to converge, and then
// holds it for a second, four heartbeats, in which the core must start no
// catch-up.
func (s *sim) settle(what string) {
	s.quiet()
	s.run(time.Millisecond, func() bool { return false }) // every datagram in flight lands
	if s.waitFor(fmt.Sprintf("the fleet to converge %s", what), s.converged) {
		before := s.catchups
		s.run(time.Second, func() bool { return false })
		if n := s.catchups - before; n > 0 {
			s.fail("the core started %d catch-ups after the fleet converged %s", n, what)
		}
	}
}

// runSeed runs one seed's episode: client load beside three publications
// (good, canary-refused, good), one replica crashed and restarted with a
// fresh agent, and on some seeds a router restart from its journal. On
// some seeds the replicas announce themselves; on the rest the router
// knows them only from its seed list, as in e2ebench. Chaos pauses after
// each publication until the fleet converges. Then chaos stops and the
// invariants are checked. It returns the sim, whose errs say what broke.
func runSeed(seed uint64, trail bool) *sim {
	src := rng.New(seed)
	rate := 0.12 * src.Float64()
	joins := src.IntN(2) == 0
	s := newSim(seed, rate, joins, trail)
	// Steps 0-2 are the publications; the crash, the restart and the router
	// restart land before or after any of them.
	victim := src.IntN(3)
	crashAt := src.IntN(4)
	restartAt := crashAt + src.IntN(4-crashAt)
	routerAt := -1
	if src.IntN(3) == 0 {
		routerAt = src.IntN(4)
	}
	defer func() {
		for i := range s.errs {
			s.errs[i] = fmt.Sprintf("chaos %.3f, joins %v, crash %d at step %d, restart at %d, router restart at %d: %s",
				rate, joins, victim, crashAt, restartAt, routerAt, s.errs[i])
		}
	}()
	if !s.waitFor("three live replicas", func() bool { return s.core.live() == 3 }) {
		return s
	}
	s.load = true
	for step := 0; step <= 3; step++ {
		if step == crashAt {
			s.crash(victim)
			s.pause()
		}
		if step == restartAt {
			s.startReplica(victim)
			s.pause()
		}
		if step == routerAt {
			s.restartRouter()
			s.pause()
		}
		if step < 3 {
			s.publish(step)
			s.settle(fmt.Sprintf("after publication %d", step+1))
			s.calm = false
			s.pause()
		}
	}
	s.load = false
	s.quiet()
	s.waitFor("every request to be answered", s.answered)
	s.settle("at the end")
	s.check()
	return s
}

// check asserts the sweep's invariants on the state the episode left.
func (s *sim) check() {
	for id := uint32(1); id <= s.nextReq; id++ {
		if n := s.answers[id]; n != 1 {
			s.fail("request %d answered %d times, want once", id, n)
			break
		}
	}
	if len(s.answers) != int(s.nextReq) {
		s.fail("answers for %d request IDs, %d sent", len(s.answers), s.nextReq)
	}
	if n := s.core.inflight; n != 0 {
		s.fail("%d forwards still in flight", n)
	}
	if s.unpub > 0 {
		s.fail("agents applied %d epochs the router never published", s.unpub)
	}
	for _, rep := range append(s.retired, s.reps[:]...) {
		var floor uint64 // the highest committed version held so far under v's nonce
		for _, v := range rep.hist {
			if v>>32 != floor>>32 {
				floor = 0
			} else if v < floor {
				s.fail("a replica's fleet version fell from committed %d to %d within nonce %#x (history %x)",
					floor&0xffffffff, v&0xffffffff, v>>32, rep.hist)
				break
			}
			if s.committed[v] && v > floor {
				floor = v
			}
		}
	}
}

// TestFleetSeedSweep runs the router's core over a virtual network with
// chaos on every router-replica link, one subtest per seed (fewer with
// -short), and asserts for each seed:
//   - every client request is answered exactly once, and no forward is
//     left in flight;
//   - at the instant each publication's verdict comes back, every member
//     the router routes to holds the version the router records for it,
//     and none holds a refused transfer;
//   - after each publication, with chaos paused, and once chaos stops,
//     every running replica reports the router's (incarnation, committed
//     sequence), the router records each at that version, and exactly the
//     running replicas are live; then the core starts no catch-up;
//   - within one coordinator nonce, a replica's fleet version never falls
//     below a committed version it held. A version a failed publication
//     left behind (a canary or fan-out replica whose verdict never reached
//     the router) is repaired by anti-entropy onto the committed one, which
//     may be lower;
//   - every epoch an agent applies is byte-identical to one handed to
//     Publish.
func TestFleetSeedSweep(t *testing.T) {
	seeds := 256
	if testing.Short() {
		seeds = 32
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			for _, e := range runSeed(seed, false).errs {
				t.Errorf("%s (replay: go test -run 'TestFleetSeedSweep/seed=%d$' ./internal/fleet)", e, seed)
			}
		})
	}
}

// TestFleetSeedReplay runs a sample of seeds twice each: both runs must
// deliver the same datagrams at the same virtual times and end in the same
// state.
func TestFleetSeedReplay(t *testing.T) {
	for seed := uint64(1); seed <= 256; seed += 37 {
		a, b := runSeed(seed, true), runSeed(seed, true)
		if a.trail.Sum64() != b.trail.Sum64() || a.now != b.now || a.nextReq != b.nextReq ||
			fmt.Sprint(a.errs) != fmt.Sprint(b.errs) || !bytes.Equal(a.journal, b.journal) {
			t.Errorf("seed %d ran twice ended at %v and %v after %d and %d requests: logs differ", seed, a.now, b.now, a.nextReq, b.nextReq)
		}
	}
}
