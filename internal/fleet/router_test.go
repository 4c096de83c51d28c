package fleet

import (
	"errors"
	"net"
	"sync"
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
// its datagram to write.
type memConn struct {
	in    chan []byte
	write func(b []byte) error
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

func (c *memConn) WriteToUDP(b []byte, _ *net.UDPAddr) (int, error) {
	if err := c.write(b); err != nil {
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
			up := &memConn{in: make(chan []byte), write: func(b []byte) error {
				f, err := airproto.Unmarshal(b)
				if err != nil || f.Kind != airproto.KindData {
					return nil
				}
				for i := 0; i < tc.replies; i++ {
					r.dispatch(&airproto.Frame{ID: f.ID, Label: 1, Data: []complex128{1}})
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
			client := &memConn{in: make(chan []byte, requests), write: func(b []byte) error {
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
			if n := r.inflight.Load(); n != 0 {
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
			up := &memConn{in: make(chan []byte), write: func([]byte) error { return nil }}
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
				r.mu.Lock()
				r.members[addr.String()] = &member{name: addr.String(), addr: addr}
				r.mu.Unlock()
				r.pubSeq.Add(1)
				r.persistState()
			}()
		}
		close(gate)
		wg.Wait()
		r.Close()
		restored := start()
		members, pubSeq := len(restored.Members()), restored.pubSeq.Load()
		restored.Close()
		if members != writers || pubSeq != writers {
			t.Fatalf("round %d restored %d members at pubSeq %d, want %d at %d", round, members, pubSeq, writers, writers)
		}
	}
}
