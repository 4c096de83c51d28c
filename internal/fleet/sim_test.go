package fleet

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/airproto"
	"repro/internal/checkpoint"
	"repro/internal/cplx"
	"repro/internal/netchaos"
	"repro/internal/obs/trace"
	"repro/internal/ota"
	"repro/internal/rng"
)

// memNet is an in-memory datagram network. Every endpoint is a
// netchaos.PacketConn at a fixed address. A datagram passes the
// netchaos.Lane of its link and direction while chaos is on (quiet switches
// it off, noisy back on); only the links of the clean endpoint carry no
// chaos.
type memNet struct {
	seed  uint64
	rates netchaos.Rates
	clean netip.AddrPort

	mu    sync.Mutex
	ends  map[netip.AddrPort]*memEnd
	lanes map[[2]netip.AddrPort]*netchaos.Lane
	calm  bool
}

func newMemNet(seed uint64, rates netchaos.Rates, clean *net.UDPAddr) *memNet {
	return &memNet{seed: seed, rates: rates, clean: apOf(clean), ends: make(map[netip.AddrPort]*memEnd),
		lanes: make(map[[2]netip.AddrPort]*netchaos.Lane)}
}

// memAddrOf is the address of host port p. net.IPv4 returns the 16-byte
// form, as ReadFromUDP may for an IPv4 source.
func memAddrOf(p int) *net.UDPAddr { return &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: p} }

// apOf is an address as a map key, unmapped as the router's call keys are.
func apOf(a *net.UDPAddr) netip.AddrPort { return keyOf(a, 0).addr }

// listen binds an endpoint at addr.
func (n *memNet) listen(addr *net.UDPAddr) *memEnd {
	e := &memEnd{n: n, addr: addr, in: make(chan memPacket, 4096), done: make(chan struct{})}
	n.mu.Lock()
	n.ends[apOf(addr)] = e
	n.mu.Unlock()
	return e
}

// send carries one datagram from one address to another.
func (n *memNet) send(from, to *net.UDPAddr, b []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	pkts := []netchaos.Packet{{Data: b, Addr: to}}
	link := [2]netip.AddrPort{apOf(from), apOf(to)}
	if !n.calm && link[0] != n.clean && link[1] != n.clean {
		l := n.lanes[link]
		if l == nil {
			l = netchaos.NewLane(n.rates, n.seed^uint64(link[0].Port())<<32^uint64(link[1].Port()))
			n.lanes[link] = l
		}
		pkts = l.Apply(b, to)
	}
	for _, p := range pkts {
		n.deliver(from, p)
	}
}

// deliver queues a datagram at its endpoint, or drops it when no endpoint
// is bound there or its queue is full. Callers hold mu.
func (n *memNet) deliver(from *net.UDPAddr, p netchaos.Packet) {
	if e := n.ends[apOf(p.Addr)]; e != nil {
		select {
		case e.in <- memPacket{append([]byte(nil), p.Data...), from}:
		default:
		}
	}
}

// quiet switches chaos off and delivers every datagram a lane still holds.
func (n *memNet) quiet() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.calm = true
	for link, l := range n.lanes {
		for _, p := range l.Flush() {
			n.deliver(net.UDPAddrFromAddrPort(link[0]), p)
		}
	}
}

// noisy switches chaos back on.
func (n *memNet) noisy() {
	n.mu.Lock()
	n.calm = false
	n.mu.Unlock()
}

type memPacket struct {
	b    []byte
	from *net.UDPAddr
}

// memEnd is one endpoint of a memNet.
type memEnd struct {
	n    *memNet
	addr *net.UDPAddr
	in   chan memPacket
	done chan struct{}
	once sync.Once
}

func (e *memEnd) ReadFromUDP(b []byte) (int, *net.UDPAddr, error) {
	select {
	case p := <-e.in:
		return copy(b, p.b), p.from, nil
	case <-e.done:
		return 0, nil, net.ErrClosed
	}
}

func (e *memEnd) WriteToUDP(b []byte, to *net.UDPAddr) (int, error) {
	select {
	case <-e.done:
		return 0, net.ErrClosed
	default:
	}
	e.n.send(e.addr, to, b)
	return len(b), nil
}

func (e *memEnd) SetReadDeadline(time.Time) error { return nil }
func (e *memEnd) LocalAddr() net.Addr             { return e.addr }

func (e *memEnd) Close() error {
	e.once.Do(func() {
		e.n.mu.Lock()
		if e.n.ends[apOf(e.addr)] == e {
			delete(e.n.ends, apOf(e.addr))
		}
		e.n.mu.Unlock()
		close(e.done)
	})
	return nil
}

// write marshals f and sends it from e to to.
func (e *memEnd) write(f *airproto.Frame, to *net.UDPAddr) {
	if out, err := f.Marshal(); err == nil {
		e.WriteToUDP(out, to)
	}
}

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

// simReplica is one replica of the sweep: a real Agent and a stub data
// plane behind one socket, announcing itself to the router with KindJoin
// the way metaai-serve -join does.
type simReplica struct {
	agent *Agent
	end   *memEnd
	stop  chan struct{}
	wg    sync.WaitGroup

	mu   sync.Mutex
	hist []uint64 // the agent's fleet version after each frame it handled, when it changed
}

// sim is one seed's fleet: the shipped Router over a memNet, three
// replicas, and a client.
type sim struct {
	seed  uint64
	src   *rng.Source
	net   *memNet
	cfg   Config
	pubAt map[string]bool // every epoch handed to Publish: true if the canary must refuse it

	router  *Router
	front   *memEnd
	serving chan error
	ups     int

	reps    [3]*simReplica
	retired []*simReplica // crashed replicas, whose histories still count

	client   *memEnd
	nextReq  uint32
	loadStop chan struct{}
	loadDone chan struct{}

	mu        sync.Mutex
	answers   map[uint32]int
	unpub     int             // applies of bytes the router never published
	committed map[uint64]bool // every (incarnation, sequence) the router committed
	errs      []string
}

// fail records one broken invariant or stuck episode.
func (s *sim) fail(format string, args ...any) {
	s.mu.Lock()
	s.errs = append(s.errs, fmt.Sprintf(format, args...))
	s.mu.Unlock()
}

// simPatience bounds every wait for progress in the sweep. A seed on a quiet
// host needs well under a second; the slack is for a host running the race
// detector over every package at once.
const simPatience = 30 * time.Second

// simConfig is the router's configuration in the sweep: every timeout is
// scaled down so a seed runs in well under a second.
func simConfig(seed uint64, dir string) Config {
	cfg := Config{
		HeartbeatEvery:   10 * time.Millisecond,
		HeartbeatTimeout: 10 * time.Millisecond,
		Detector:         DetectorConfig{ProbeBase: 10 * time.Millisecond, ProbeMax: 40 * time.Millisecond},
		ForwardTimeout:   300 * time.Millisecond,
		HedgeAfter:       20 * time.Millisecond,
		ChunkBytes:       2048,
		PublishTimeout:   10 * time.Millisecond,
		Seed:             seed,
		StateDir:         dir,
		Tracer:           &trace.Tracer{},
	}
	for i := 0; i < 3; i++ {
		cfg.Replicas = append(cfg.Replicas, Replica{Addr: memAddrOf(simReplicaPort + i).String()})
	}
	return cfg
}

func newSim(seed uint64, rate float64, dir string) (*sim, error) {
	s := &sim{seed: seed, src: rng.New(seed ^ 0x51a1), net: newMemNet(seed, netchaos.Mix(rate), memAddrOf(simClientPort)),
		cfg: simConfig(seed, dir), pubAt: make(map[string]bool),
		answers: make(map[uint32]int), committed: make(map[uint64]bool)}
	for i, ep := range simEpochs() {
		s.pubAt[string(ep)] = i == 1
	}
	for i := range s.reps {
		s.startReplica(i)
	}
	s.client = s.net.listen(memAddrOf(simClientPort))
	go s.readAnswers()
	return s, s.startRouter()
}

// apply is every agent's ApplyFunc: the epoch must be one the router was
// asked to publish, and the canary refuses the bad one.
func (s *sim) apply(sealed []byte, mode uint8, tid uint32) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
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

func (s *sim) startReplica(i int) {
	addr := memAddrOf(simReplicaPort + i)
	rep := &simReplica{agent: NewAgent(s.apply), end: s.net.listen(addr), stop: make(chan struct{})}
	s.reps[i] = rep
	rep.wg.Add(2)
	go func() {
		defer rep.wg.Done()
		buf := make([]byte, 65535)
		for {
			n, from, err := rep.end.ReadFromUDP(buf)
			if err != nil {
				return
			}
			f, err := airproto.Unmarshal(buf[:n])
			if err != nil || f.IsNack() {
				continue
			}
			if f.Kind == airproto.KindData {
				rep.end.write(&airproto.Frame{ID: f.ID, Label: int32(i), Data: []complex128{1}}, from)
				continue
			}
			reply, ok := rep.agent.HandleFrame(f)
			seq, nonce := rep.agent.FleetVersion()
			if v := uint64(nonce)<<32 | seq; len(rep.hist) == 0 || rep.hist[len(rep.hist)-1] != v {
				rep.mu.Lock()
				rep.hist = append(rep.hist, v)
				rep.mu.Unlock()
			}
			if ok {
				rep.end.write(reply, from)
			}
		}
	}()
	go func() {
		defer rep.wg.Done()
		t := time.NewTicker(25 * time.Millisecond)
		defer t.Stop()
		for id := uint32(1); ; id++ {
			seq, nonce := rep.agent.FleetVersion()
			rep.end.write(airproto.Join(id, seq, nonce), memAddrOf(simFrontPort))
			select {
			case <-rep.stop:
				return
			case <-t.C:
			}
		}
	}()
}

// up reports whether the replica runs: it has not crashed.
func (rep *simReplica) up() bool {
	select {
	case <-rep.stop:
		return false
	default:
		return true
	}
}

// crash stops replica i without ceremony: its socket closes and its
// agent's state is gone.
func (s *sim) crash(i int) {
	rep := s.reps[i]
	close(rep.stop)
	rep.end.Close()
	rep.wg.Wait()
	s.retired = append(s.retired, rep)
}

// startRouter starts a router incarnation from the state directory, on a
// fresh upstream socket, serving the fixed client-facing address.
func (s *sim) startRouter() error {
	up := s.net.listen(memAddrOf(simUpstreamPort + s.ups))
	s.ups++
	r, err := newRouter(s.cfg, up)
	if err != nil {
		return err
	}
	s.router, s.front, s.serving = r, s.net.listen(memAddrOf(simFrontPort)), make(chan error, 1)
	go func() { s.serving <- r.Serve(s.front) }()
	s.noteCommitted()
	return nil
}

// noteCommitted records the router's committed fleet version. Only Publish
// (a commit or a rollback) and a restart from the state directory move it.
func (s *sim) noteCommitted() {
	if tid := s.router.CurrentTid(); tid != 0 {
		s.mu.Lock()
		s.committed[uint64(s.router.Incarnation())<<32|uint64(tid)] = true
		s.mu.Unlock()
	}
}

// restartRouter closes the router once every request it accepted is
// answered, and starts the next incarnation.
func (s *sim) restartRouter() error {
	s.pauseLoad()
	s.awaitAnswers()
	s.stopRouter()
	if err := s.startRouter(); err != nil {
		return err
	}
	s.resumeLoad()
	return nil
}

func (s *sim) stopRouter() {
	s.front.Close()
	<-s.serving
	s.router.Close()
}

// resumeLoad sends one client request every millisecond until pauseLoad.
func (s *sim) resumeLoad() {
	s.loadStop, s.loadDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(s.loadDone)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.loadStop:
				return
			case <-t.C:
			}
			s.nextReq++
			s.client.write(&airproto.Frame{ID: s.nextReq, Data: []complex128{1, 2}}, memAddrOf(simFrontPort))
		}
	}()
}

func (s *sim) pauseLoad() {
	close(s.loadStop)
	<-s.loadDone
}

func (s *sim) readAnswers() {
	buf := make([]byte, 65535)
	for {
		n, _, err := s.client.ReadFromUDP(buf)
		if err != nil {
			return
		}
		if f, err := airproto.Unmarshal(buf[:n]); err == nil {
			s.mu.Lock()
			s.answers[f.ID]++
			s.mu.Unlock()
		}
	}
}

// awaitAnswers waits until every request sent so far has an answer.
func (s *sim) awaitAnswers() {
	s.waitFor("every request to be answered", simPatience, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.answers) >= int(s.nextReq)
	})
}

func (s *sim) waitFor(what string, limit time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			s.fail("timed out waiting for %s", what)
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// publish offers one epoch until the router reaches a verdict on it: a
// good epoch until it commits, the bad one until it is refused or commits.
// A transient failure (an unreachable canary, a lost verdict) is offered
// again, as metaai-fleet does. Chaos can flip a bit of an ack's verdict or
// agreement, so a good epoch may be refused and the bad one may commit.
func (s *sim) publish(i int) {
	sealed := simEpochs()[i]
	bad := s.pubAt[string(sealed)]
	for deadline := time.Now().Add(simPatience); time.Now().Before(deadline); {
		err := s.router.Publish(sealed)
		s.noteCommitted()
		if err == nil || bad && errors.Is(err, ErrRefused) {
			return
		}
		time.Sleep(time.Duration(s.src.IntN(10)) * time.Millisecond)
	}
	s.fail("publication of epoch %d never reached a verdict", i+1)
}

// pause sleeps up to 30ms, so heartbeats and catch-ups interleave.
func (s *sim) pause() { time.Sleep(time.Duration(s.src.IntN(30)) * time.Millisecond) }

// runSeed runs one seed's episode: client load beside three publications
// (good, canary-refused, good), one replica crashed and restarted with a
// fresh agent, and on some seeds a router restart from its state directory.
// Chaos pauses after each publication until the fleet converges. Then chaos
// stops and the invariants are checked. It returns what broke.
func runSeed(seed uint64, dir string) []string {
	src := rng.New(seed)
	rate := 0.12 * src.Float64()
	s, err := newSim(seed, rate, dir)
	if err != nil {
		return []string{err.Error()}
	}
	defer s.shutdown()
	if !s.waitFor("three live replicas", simPatience, func() bool { return s.router.Live() == 3 }) {
		s.stopRouter()
		return s.errs
	}
	s.resumeLoad()
	// Steps 0-2 are the publications; the crash, the restart and the router
	// restart land before or after any of them.
	victim := src.IntN(3)
	crashAt := src.IntN(4)
	restartAt := crashAt + src.IntN(4-crashAt)
	routerAt := -1
	if src.IntN(3) == 0 {
		routerAt = src.IntN(4)
	}
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
			if err := s.restartRouter(); err != nil {
				return []string{err.Error()}
			}
			s.pause()
		}
		if step < 3 {
			s.publish(step)
			s.net.quiet()
			s.waitFor(fmt.Sprintf("the fleet to converge after publication %d", step+1), simPatience, s.converged)
			s.net.noisy()
			s.pause()
		}
	}
	s.net.quiet()
	s.pauseLoad()
	s.awaitAnswers()
	r := s.router
	s.waitFor("the fleet to converge", simPatience, s.converged)
	time.Sleep(20 * time.Millisecond) // room for a second answer to land
	s.stopRouter()
	s.check(r)
	for i := range s.errs {
		s.errs[i] = fmt.Sprintf("chaos %.3f, crash %d at step %d, restart at %d, router restart at %d: %s",
			rate, victim, crashAt, restartAt, routerAt, s.errs[i])
	}
	return s.errs
}

// converged reports whether every running replica holds the router's
// (incarnation, committed sequence), the router records each at that
// version, and the router routes to exactly the running replicas.
func (s *sim) converged() bool {
	r := s.router
	want := r.ver(r.CurrentTid())
	running := 0
	for _, rep := range s.reps {
		if !rep.up() {
			continue
		}
		running++
		name := rep.end.addr.String()
		r.mu.Lock()
		m := r.members[name]
		r.mu.Unlock()
		if seq, nonce := rep.agent.FleetVersion(); uint64(nonce)<<32|seq != want ||
			m == nil || m.fleetVer.Load() != want || r.det.State(name) != Alive {
			return false
		}
	}
	return r.Live() == running
}

// shutdown stops the replicas and the client.
func (s *sim) shutdown() {
	for _, rep := range s.reps {
		close(rep.stop)
		rep.end.Close()
		rep.wg.Wait()
	}
	s.client.Close()
}

// check asserts the sweep's invariants on the state the episode left.
func (s *sim) check(r *Router) {
	s.mu.Lock()
	answers, sent, unpub, committed := s.answers, s.nextReq, s.unpub, s.committed
	s.mu.Unlock()
	for id := uint32(1); id <= sent; id++ {
		if n := answers[id]; n != 1 {
			s.fail("request %d answered %d times, want once", id, n)
			break
		}
	}
	if len(answers) != int(sent) {
		s.fail("answers for %d request IDs, %d sent", len(answers), sent)
	}
	if n := r.inflight.Load(); n != 0 {
		s.fail("%d forwards still in flight", n)
	}
	if unpub > 0 {
		s.fail("agents applied %d epochs the router never published", unpub)
	}
	for _, rep := range append(s.retired, s.reps[:]...) {
		rep.mu.Lock()
		hist := rep.hist
		rep.mu.Unlock()
		var floor uint64 // the highest committed version held so far under v's nonce
		for _, v := range hist {
			if v>>32 != floor>>32 {
				floor = 0
			} else if v < floor {
				s.fail("a replica's fleet version fell from committed %d to %d within nonce %#x (history %x)",
					floor&0xffffffff, v&0xffffffff, v>>32, hist)
				break
			}
			if committed[v] && v > floor {
				floor = v
			}
		}
	}
}

// TestFleetSeedSweep runs the shipped Router over an in-memory network
// with chaos on every router-replica link, across many seeds (fewer with
// -short), and asserts for each seed:
//   - every client request is answered exactly once, and no forward is
//     left in flight;
//   - after each publication, with chaos paused, and once chaos stops,
//     every running replica reports the router's (incarnation, committed
//     sequence), the router records each at that version, and exactly the
//     running replicas are live;
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
	const parallel = 32
	errs := make([][]string, seeds)
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for i := range errs {
		dir := t.TempDir()
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			errs[i] = runSeed(uint64(i+1), dir)
			<-sem
		}()
	}
	wg.Wait()
	failed := 0
	for i, e := range errs {
		if len(e) > 0 {
			failed++
			t.Errorf("seed %d: %s", i+1, strings.Join(e, "; "))
		}
	}
	if failed > 0 {
		t.Errorf("%d of %d seeds failed", failed, seeds)
	}
}
