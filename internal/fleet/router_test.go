package fleet

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/airproto"
	"repro/internal/obs/trace"
)

// TestRouterForwardDropsClientTraceContext: with the router's tracer off, a
// client's traced data frame is forwarded with no trace context, so the
// replica derives its own trace instead of opening spans under IDs the
// client chose.
func TestRouterForwardDropsClientTraceContext(t *testing.T) {
	seen := make(chan *airproto.Frame, 1)
	addr := serveReplica(t, NewAgent(nil), func(f *airproto.Frame, reply func(*airproto.Frame)) {
		select {
		case seen <- f:
		default:
		}
		reply(&airproto.Frame{ID: f.ID, Label: 3, Data: []complex128{1}})
	})
	router, err := NewRouter(Config{
		Replicas:         []Replica{{Name: "a", Addr: addr.String()}},
		HeartbeatEvery:   10 * time.Millisecond,
		HeartbeatTimeout: 500 * time.Millisecond,
		Seed:             1,
		Tracer:           &trace.Tracer{}, // the zero Tracer is disabled
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	front, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- router.Serve(front) }()
	defer func() {
		front.Close()
		<-served
	}()
	waitUntil(t, "the replica to turn live", func() bool { return router.Live() == 1 })

	client, err := net.DialUDP("udp", nil, front.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	out, err := (&airproto.Frame{ID: 5, Trace: 0xfeed, ParentSpan: 0xbeef, Data: []complex128{1, 2}}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(out); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, airproto.MaxDatagram)
	n, err := client.Read(buf)
	if err != nil {
		t.Fatalf("no reply through the router: %v", err)
	}
	resp, err := airproto.Unmarshal(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if resp.IsNack() || resp.ID != 5 || resp.Label != 3 {
		t.Fatalf("client got %+v, want the replica's reply to request 5", resp)
	}
	fwd := <-seen
	if fwd.Trace != 0 || fwd.ParentSpan != 0 {
		t.Fatalf("replica got trace context (%#x, %#x), want none", fwd.Trace, fwd.ParentSpan)
	}
}

// The TestForward cases pin the router's forward decisions (failover on an
// explicit NACK, hedging a slow primary, giving up on a dead budget or an
// exhausted candidate list, answering each request once) over real
// sockets, with the tracer off.

// dataPlane is a stub replica's answer to each forwarded data frame.
type dataPlane = func(f *airproto.Frame, reply func(*airproto.Frame))

// answer replies to f with a one-sample result labelled label, after
// delay (at once when delay is 0) and copies times.
func answer(label int32, delay time.Duration, copies int) dataPlane {
	return func(f *airproto.Frame, reply func(*airproto.Frame)) {
		send := func() {
			for i := 0; i < copies; i++ {
				reply(&airproto.Frame{ID: f.ID, Label: label, Data: []complex128{1}})
			}
		}
		if delay > 0 {
			time.AfterFunc(delay, send)
			return
		}
		send()
	}
}

// degraded NACKs every data frame with StatusDegraded.
func degraded(f *airproto.Frame, reply func(*airproto.Frame)) {
	reply(airproto.Nack(f.ID, airproto.StatusDegraded, 0))
}

// forwardRig starts a router (tracer off) over two stub replicas, and the
// client socket it is tested through. primary and secondary are the data
// planes of the replicas the ring picks first and second for the client's
// address. It returns once both replicas are live.
func forwardRig(t *testing.T, hedgeAfter time.Duration, primary, secondary dataPlane) (client *net.UDPConn, front *net.UDPAddr) {
	t.Helper()
	client, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	ring := NewRing()
	ring.Add("a")
	ring.Add("b")
	order := ring.Route(hashString(client.LocalAddr().String()), 2)
	planes := map[string]dataPlane{order[0]: primary, order[1]: secondary}
	var replicas []Replica
	for _, name := range []string{"a", "b"} {
		addr := serveReplica(t, NewAgent(nil), planes[name])
		replicas = append(replicas, Replica{Name: name, Addr: addr.String()})
	}
	router, err := NewRouter(Config{
		Replicas:         replicas,
		HeartbeatEvery:   10 * time.Millisecond,
		HeartbeatTimeout: 500 * time.Millisecond,
		HedgeAfter:       hedgeAfter,
		Seed:             1,
		Tracer:           &trace.Tracer{}, // the zero Tracer is disabled
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- router.Serve(conn) }()
	t.Cleanup(func() {
		conn.Close()
		<-served
		router.Close()
	})
	waitUntil(t, "both replicas to turn live", func() bool { return router.Live() == 2 })
	return client, conn.LocalAddr().(*net.UDPAddr)
}

// send writes one client frame to the router.
func send(t *testing.T, client *net.UDPConn, front *net.UDPAddr, f *airproto.Frame) {
	t.Helper()
	out, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WriteToUDP(out, front); err != nil {
		t.Fatal(err)
	}
}

// collect reads the client's datagrams until want of them have arrived,
// then for grace longer, and returns every frame it read. It fails the test
// if the first want take more than 5s.
func collect(t *testing.T, client *net.UDPConn, want int, grace time.Duration) []*airproto.Frame {
	t.Helper()
	var got []*airproto.Frame
	buf := make([]byte, airproto.MaxDatagram)
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		n, _, err := client.ReadFromUDP(buf)
		if err != nil {
			if len(got) < want {
				t.Fatalf("%d of %d answers arrived: %v", len(got), want, err)
			}
			return got
		}
		f, err := airproto.Unmarshal(buf[:n])
		if err != nil {
			t.Fatalf("undecodable answer: %v", err)
		}
		got = append(got, f)
		if len(got) == want {
			client.SetReadDeadline(time.Now().Add(grace))
		}
	}
}

// TestForwardFailsOverOnNack: the primary's explicit StatusDegraded NACK
// launches the secondary at once, without waiting for the hedge timer.
func TestForwardFailsOverOnNack(t *testing.T) {
	client, front := forwardRig(t, 10*time.Second, degraded, answer(2, 0, 1))
	failovers := failoverCount.Value()
	send(t, client, front, &airproto.Frame{ID: 7, Data: []complex128{1, 2}})
	got := collect(t, client, 1, 100*time.Millisecond)
	if len(got) != 1 || got[0].IsNack() || got[0].ID != 7 || got[0].Label != 2 {
		t.Fatalf("client got %v, want exactly the secondary's reply to request 7", frames(got))
	}
	if d := failoverCount.Value() - failovers; d != 1 {
		t.Fatalf("fleet.failovers rose by %d, want 1", d)
	}
}

// TestForwardHedgesSlowPrimary: a primary slower than HedgeAfter is hedged;
// the secondary's reply wins, and the primary's late reply goes nowhere.
func TestForwardHedgesSlowPrimary(t *testing.T) {
	client, front := forwardRig(t, 50*time.Millisecond, answer(1, 300*time.Millisecond, 1), answer(2, 0, 1))
	failovers, wins := failoverCount.Value(), hedgedWinCount.Value()
	send(t, client, front, &airproto.Frame{ID: 7, Data: []complex128{1, 2}})
	got := collect(t, client, 1, 400*time.Millisecond) // past the primary's reply
	if len(got) != 1 || got[0].IsNack() || got[0].ID != 7 || got[0].Label != 2 {
		t.Fatalf("client got %v, want exactly the secondary's reply to request 7", frames(got))
	}
	if d := hedgedWinCount.Value() - wins; d != 1 {
		t.Fatalf("fleet.hedged_wins rose by %d, want 1", d)
	}
	if d := failoverCount.Value() - failovers; d != 0 {
		t.Fatalf("fleet.failovers rose by %d on a hedge, want 0", d)
	}
}

// TestForwardExpiresDeadBudget: when the client's deadline budget runs out
// before any replica answers, the router answers StatusExpired itself, once.
func TestForwardExpiresDeadBudget(t *testing.T) {
	slow := answer(1, 200*time.Millisecond, 1)
	client, front := forwardRig(t, 0, slow, slow)
	expired := expiredCount.Value()
	req := &airproto.Frame{ID: 7, Data: []complex128{1, 2}}
	req.SetDeadline(30 * time.Millisecond)
	send(t, client, front, req)
	got := collect(t, client, 1, 300*time.Millisecond) // past the replicas' replies
	if len(got) != 1 || !got[0].IsNack() || got[0].Code != airproto.StatusExpired || got[0].ID != 7 {
		t.Fatalf("client got %v, want exactly one StatusExpired NACK for request 7", frames(got))
	}
	if d := expiredCount.Value() - expired; d != 1 {
		t.Fatalf("fleet.expired rose by %d, want 1", d)
	}
}

// TestForwardShedsWhenEveryReplicaNacks: once every candidate has NACKed,
// the client gets one StatusDegraded NACK.
func TestForwardShedsWhenEveryReplicaNacks(t *testing.T) {
	client, front := forwardRig(t, 10*time.Second, degraded, degraded)
	shed := shedCount.Value()
	send(t, client, front, &airproto.Frame{ID: 7, Data: []complex128{1, 2}})
	got := collect(t, client, 1, 100*time.Millisecond)
	if len(got) != 1 || !got[0].IsNack() || got[0].Code != airproto.StatusDegraded || got[0].ID != 7 {
		t.Fatalf("client got %v, want exactly one StatusDegraded NACK for request 7", frames(got))
	}
	if d := shedCount.Value() - shed; d != 1 {
		t.Fatalf("fleet.shed rose by %d, want 1", d)
	}
}

// TestForwardKeepsReplicasRoutableAfterNackBurst: replicas that shed a
// burst of requests are busy, not dead. Once both have NACKed 32 requests
// and then answer again, the next request gets a replica's reply, not a
// StatusDegraded NACK from the router itself.
func TestForwardKeepsReplicasRoutableAfterNackBurst(t *testing.T) {
	var busy atomic.Bool
	busy.Store(true)
	plane := func(f *airproto.Frame, reply func(*airproto.Frame)) {
		if busy.Load() {
			degraded(f, reply)
		} else {
			answer(1, 0, 1)(f, reply)
		}
	}
	client, front := forwardRig(t, 10*time.Second, plane, plane)
	for id := uint32(1); id <= 32; id++ {
		send(t, client, front, &airproto.Frame{ID: id, Data: []complex128{1, 2}})
		if got := collect(t, client, 1, 0); len(got) != 1 || got[0].Code != airproto.StatusDegraded || got[0].ID != id {
			t.Fatalf("client got %v, want one StatusDegraded NACK for request %d", frames(got), id)
		}
	}
	busy.Store(false)
	send(t, client, front, &airproto.Frame{ID: 33, Data: []complex128{1, 2}})
	got := collect(t, client, 1, 100*time.Millisecond)
	if len(got) != 1 || got[0].IsNack() || got[0].ID != 33 || got[0].Label != 1 {
		t.Fatalf("client got %v, want exactly a replica's reply to request 33", frames(got))
	}
}

// TestForwardAnswersEachRequestOnce: replicas that send every reply twice
// still get each client request answered exactly once.
func TestForwardAnswersEachRequestOnce(t *testing.T) {
	const requests = 500
	client, front := forwardRig(t, 0, answer(1, 0, 2), answer(2, 0, 2))
	// The reader drains the socket while requests go out: its default
	// receive buffer holds only a few hundred small datagrams.
	var mu sync.Mutex
	answers := make(map[uint32]int)
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, airproto.MaxDatagram)
		for {
			n, _, err := client.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if f, err := airproto.Unmarshal(buf[:n]); err == nil {
				mu.Lock()
				answers[f.ID]++
				mu.Unlock()
			}
		}
	}()
	for id := uint32(1); id <= requests; id++ {
		send(t, client, front, &airproto.Frame{ID: id, Data: []complex128{1, 2}})
		time.Sleep(200 * time.Microsecond)
	}
	waitUntil(t, "every request to be answered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(answers) >= requests
	})
	time.Sleep(100 * time.Millisecond) // room for a second answer to land
	client.SetReadDeadline(time.Now())
	<-done
	for id := uint32(1); id <= requests; id++ {
		if answers[id] != 1 {
			t.Fatalf("request %d answered %d times, want once", id, answers[id])
		}
	}
	if len(answers) != requests {
		t.Fatalf("answers for %d distinct IDs, want %d", len(answers), requests)
	}
}

// frames renders frames for a failure message.
func frames(fs []*airproto.Frame) []airproto.Frame {
	out := make([]airproto.Frame, len(fs))
	for i, f := range fs {
		out[i] = *f
	}
	return out
}

// memConn is an in-memory netchaos.PacketConn: a read takes the next
// datagram queued on in (and fails once in is closed), and a write hands
// its datagram and destination to write.
type memConn struct {
	in    chan []byte
	write func(b []byte, to *net.UDPAddr) error
	once  sync.Once
}

var memAddr = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}

func (c *memConn) ReadFromUDP(b []byte) (int, *net.UDPAddr, error) {
	d, ok := <-c.in
	if !ok {
		return 0, nil, net.ErrClosed
	}
	return copy(b, d), memAddr, nil
}

func (c *memConn) WriteToUDP(b []byte, to *net.UDPAddr) (int, error) {
	if err := c.write(b, to); err != nil {
		return 0, err
	}
	return len(b), nil
}

func (c *memConn) SetReadDeadline(time.Time) error { return nil }
func (c *memConn) LocalAddr() net.Addr             { return memAddr }
func (c *memConn) Close() error                    { c.once.Do(func() { close(c.in) }); return nil }

// TestForwardAnswersOnceWhenReplyLandsInsideWrite: an upstream socket that
// delivers each forwarded frame's reply before its write returns — once,
// twice, or once and then failing the write — still gets every request
// answered exactly once, with the replica's answer, and leaves no forward
// in flight.
func TestForwardAnswersOnceWhenReplyLandsInsideWrite(t *testing.T) {
	const requests = 50
	for _, tc := range []struct {
		name    string
		replies int
		fail    bool
	}{{"one reply", 1, false}, {"two replies", 2, false}, {"reply then failed write", 1, true}} {
		t.Run(tc.name, func(t *testing.T) {
			var r *Router
			up := &memConn{in: make(chan []byte), write: func(b []byte, to *net.UDPAddr) error {
				f, err := airproto.Unmarshal(b)
				if err != nil || f.Kind != airproto.KindData {
					return nil
				}
				for i := 0; i < tc.replies; i++ {
					r.step(nil, func(c *core, now time.Time) {
						c.reply(now, to, &airproto.Frame{ID: f.ID, Label: 1, Data: []complex128{1}})
					})
				}
				if tc.fail {
					return errors.New("write failed after its reply landed")
				}
				return nil
			}}
			var err error
			r, err = newRouter(Config{
				Replicas:       []Replica{{Name: "a", Addr: "127.0.0.1:1"}, {Name: "b", Addr: "127.0.0.1:2"}},
				HeartbeatEvery: time.Hour, // no heartbeats: the members stay Alive
				Seed:           1,
				Tracer:         &trace.Tracer{},
			}, up)
			if err != nil {
				t.Fatal(err)
			}
			answers := make(chan *airproto.Frame, 2*requests)
			client := &memConn{in: make(chan []byte, requests), write: func(b []byte, _ *net.UDPAddr) error {
				f, err := airproto.Unmarshal(b)
				if err != nil {
					t.Errorf("undecodable answer: %v", err)
					return nil
				}
				answers <- f
				return nil
			}}
			served := make(chan error, 1)
			go func() { served <- r.Serve(client) }()
			t.Cleanup(func() { client.Close(); r.Close() }) // both idempotent
			for id := uint32(1); id <= requests; id++ {
				out, err := (&airproto.Frame{ID: id, Data: []complex128{1, 2}}).Marshal()
				if err != nil {
					t.Fatal(err)
				}
				client.in <- out
			}
			got := make(map[uint32]int)
			for len(got) < requests {
				select {
				case f := <-answers:
					if f.IsNack() || f.Label != 1 {
						t.Fatalf("request %d answered %+v, want the replica's reply", f.ID, *f)
					}
					got[f.ID]++
				case <-time.After(5 * time.Second):
					t.Fatalf("%d of %d requests answered", len(got), requests)
				}
			}
			client.Close()
			<-served // every answer is written on Serve's goroutine
			r.Close()
			for len(answers) > 0 {
				got[(<-answers).ID]++
			}
			for id := uint32(1); id <= requests; id++ {
				if got[id] != 1 {
					t.Fatalf("request %d answered %d times, want once", id, got[id])
				}
			}
			if n := r.c.inflight; n != 0 {
				t.Fatalf("%d forwards still in flight", n)
			}
		})
	}
}

// BenchmarkRouterForward times sequential round trips client → router →
// stub replica → client over loopback, with the tracer off. Allocations
// count the client, the router and the stub together.
func BenchmarkRouterForward(b *testing.B) {
	addr := serveReplica(b, NewAgent(nil), answer(1, 0, 1))
	router, err := NewRouter(Config{
		Replicas: []Replica{{Name: "a", Addr: addr.String()}},
		Seed:     1,
		Tracer:   &trace.Tracer{},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer router.Close()
	front, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- router.Serve(front) }()
	defer func() {
		front.Close()
		<-served
	}()
	client, err := net.DialUDP("udp", nil, front.LocalAddr().(*net.UDPAddr))
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	req, err := (&airproto.Frame{ID: 1, Data: make([]complex128, 64)}).Marshal()
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, airproto.MaxDatagram)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Write(req); err != nil {
			b.Fatal(err)
		}
		client.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := client.Read(buf); err != nil {
			b.Fatalf("round trip %d: %v", i, err)
		}
	}
}

// TestPersistStateKeepsNewest: concurrent persists, each after its own
// membership and pubSeq change, leave a journal that a restarted router
// restores as the newest state — every member and the last pubSeq. A
// stale write landing last shows only in some interleavings, so the race
// runs several rounds.
func TestPersistStateKeepsNewest(t *testing.T) {
	const rounds, writers = 8, 32
	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		start := func() *Router {
			up := &memConn{in: make(chan []byte), write: func([]byte, *net.UDPAddr) error { return nil }}
			r, err := newRouter(Config{StateDir: dir, HeartbeatEvery: time.Hour, Seed: 1, Tracer: &trace.Tracer{}}, up)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		r := start()
		var wg sync.WaitGroup
		gate := make(chan struct{})
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-gate // all at once, so snapshots and writes overlap
				addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1000 + w}
				r.step(nil, func(c *core, _ time.Time) {
					c.add(addr.String(), addr)
					c.pubSeq++
					c.dirty = true
				})
			}()
		}
		close(gate)
		wg.Wait()
		r.Close()
		restored := start()
		members, pubSeq := len(restored.Members()), restored.c.pubSeq
		restored.Close()
		if members != writers || pubSeq != writers {
			t.Fatalf("round %d restored %d members at pubSeq %d, want %d at %d", round, members, pubSeq, writers, writers)
		}
	}
}

// memNet is an in-memory datagram network of endpoints at fixed
// addresses, each a netchaos.PacketConn.
type memNet struct {
	mu   sync.Mutex
	ends map[netip.AddrPort]*memEnd
}

func newMemNet() *memNet { return &memNet{ends: make(map[netip.AddrPort]*memEnd)} }

// memAddrOf is the address of host port p. net.IPv4 returns the 16-byte
// form, as ReadFromUDP may for an IPv4 source.
func memAddrOf(p int) *net.UDPAddr { return &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: p} }

// apOf is an address as a map key, unmapped as the router's keys are.
func apOf(a *net.UDPAddr) netip.AddrPort { return keyOf(a, 0).addr }

// listen binds an endpoint at addr.
func (n *memNet) listen(addr *net.UDPAddr) *memEnd {
	e := &memEnd{n: n, addr: addr, in: make(chan memPacket, 4096), done: make(chan struct{})}
	n.mu.Lock()
	n.ends[apOf(addr)] = e
	n.mu.Unlock()
	return e
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

// WriteToUDP queues a copy of b at the endpoint bound at to, or drops it
// when none is bound there or its queue is full.
func (e *memEnd) WriteToUDP(b []byte, to *net.UDPAddr) (int, error) {
	select {
	case <-e.done:
		return 0, net.ErrClosed
	default:
	}
	e.n.mu.Lock()
	defer e.n.mu.Unlock()
	if dst := e.n.ends[apOf(to)]; dst != nil {
		select {
		case dst.in <- memPacket{append([]byte(nil), b...), e.addr}:
		default:
		}
	}
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

// recvFrame takes the next datagram queued at e.
func recvFrame(t *testing.T, e *memEnd) (*airproto.Frame, *net.UDPAddr) {
	t.Helper()
	select {
	case p := <-e.in:
		f, err := airproto.Unmarshal(p.b)
		if err != nil {
			t.Fatal(err)
		}
		return f, p.from
	case <-time.After(5 * time.Second):
		t.Fatalf("nothing arrived at %v", e.addr)
	}
	return nil, nil
}

// memRouter starts a router, heartbeats off so its members stay Alive, over
// an in-memory upstream socket to the given replica endpoints.
func memRouter(t *testing.T, n *memNet, up int, reps ...*memEnd) *Router {
	t.Helper()
	var replicas []Replica
	for _, e := range reps {
		replicas = append(replicas, Replica{Name: e.addr.String(), Addr: e.addr.String()})
	}
	r, err := newRouter(Config{Replicas: replicas, HeartbeatEvery: time.Hour, Seed: 1, Tracer: &trace.Tracer{}},
		n.listen(memAddrOf(up)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// TestCallMatchesSenderAndKind pins how a replica's reply finds its waiter.
// Every replica answers a trace fetch under the same frame ID, so two
// concurrent fetches must each get their own replica's document. And a
// push's transfer sequence can equal a live forward's frame ID, so a data
// reply and an EpochAck under that ID must each reach only their own
// waiter: the data reply the forward, the ack the push chunk's call.
func TestCallMatchesSenderAndKind(t *testing.T) {
	n := newMemNet()
	t.Run("fan-out", func(t *testing.T) {
		a, b := n.listen(memAddrOf(7100)), n.listen(memAddrOf(7101))
		r := memRouter(t, n, 9100, a, b)
		docs := make([][]byte, 2)
		var wg sync.WaitGroup
		for i, e := range []*memEnd{a, b} {
			wg.Add(1)
			r.step(nil, func(c *core, now time.Time) {
				c.fetchSegment(now, c.members[e.addr.String()], 0x5eed_0000_51ab, 0, func(_ time.Time, doc []byte) {
					docs[i] = doc
					wg.Done()
				})
			})
		}
		// Once both requests have arrived both calls wait; b answers first.
		fa, toA := recvFrame(t, a)
		fb, toB := recvFrame(t, b)
		if fa.ID != fb.ID {
			t.Fatalf("fetches went out as frames %d and %d, want one ID", fa.ID, fb.ID)
		}
		b.write(airproto.TraceReply(fb.ID, []byte("from b")), toB)
		a.write(airproto.TraceReply(fa.ID, []byte("from a")), toA)
		wg.Wait()
		if string(docs[0]) != "from a" || string(docs[1]) != "from b" {
			t.Fatalf("fetches from a and b got %q and %q", docs[0], docs[1])
		}
	})
	t.Run("data reply and epoch ack", func(t *testing.T) {
		a := n.listen(memAddrOf(7200))
		r := memRouter(t, n, 9200, a)
		front, client := n.listen(memAddrOf(8200)), n.listen(memAddrOf(8201))
		served := make(chan error, 1)
		go func() { served <- r.Serve(front) }()
		defer func() { front.Close(); <-served }()
		for _, ackFirst := range []bool{true, false} {
			r.mu.Lock()
			tid, incar := r.c.nextID+1, r.c.incar // the forward's attempt goes out under the next ID
			r.mu.Unlock()
			client.write(&airproto.Frame{ID: 5, Data: []complex128{1, 2}}, front.addr)
			fwd, toA := recvFrame(t, a)
			if fwd.Kind != airproto.KindData || fwd.ID != tid {
				t.Fatalf("forward went out as %+v, want a data frame under ID %d", *fwd, tid)
			}
			verdict := make(chan *airproto.Frame, 1)
			r.step(nil, func(c *core, now time.Time) {
				c.push(now, c.members[a.addr.String()], tid, []byte("epoch"), airproto.PushCommit,
					func(_ time.Time, ack *airproto.Frame, _ error) { verdict <- ack })
			})
			if chunk, _ := recvFrame(t, a); chunk.Kind != airproto.KindEpochPush || chunk.ID != tid {
				t.Fatalf("push went out as %+v, want a chunk of transfer %d", *chunk, tid)
			}
			replies := []*airproto.Frame{
				airproto.EpochAck(tid, 0, airproto.AckApplied, 1, incar),
				{ID: tid, Label: 7, Data: []complex128{1}},
			}
			if !ackFirst {
				replies[0], replies[1] = replies[1], replies[0]
			}
			for _, f := range replies {
				a.write(f, toA)
			}
			if ack := <-verdict; ack == nil || ack.Kind != airproto.KindEpochAck || ack.Code != airproto.AckApplied {
				t.Fatalf("push returned %+v, want the replica's AckApplied", ack)
			}
			if got, _ := recvFrame(t, client); got.Kind != airproto.KindData || got.ID != 5 || got.Label != 7 {
				t.Fatalf("client got %+v, want the replica's data reply to request 5", *got)
			}
			select {
			case p := <-client.in:
				t.Fatalf("client got a second answer: %x", p.b)
			case <-time.After(20 * time.Millisecond):
			}
		}
	})
}
