package main

import (
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/airproto"
	"repro/internal/cplx"
	"repro/internal/faults"
	"repro/internal/mobility"
	"repro/internal/ota"
	"repro/internal/rng"
)

// testDeployment builds a small deployable random-weight system — 4 classes
// over 16 symbols — so server tests never pay for model training.
func testDeployment(t testing.TB, seed uint64) *ota.Deployment {
	t.Helper()
	src := rng.New(seed)
	w := cplx.NewMat(4, 16)
	wsrc := rng.New(7)
	for i := range w.Data {
		w.Data[i] = cplx.Expi(wsrc.Phase()) * complex(0.5+wsrc.Float64(), 0)
	}
	d, err := ota.NewDeployment(w, ota.NewOptions(src.Split()), src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func testSymbols(u int, seed uint64) []complex128 {
	src := rng.New(seed)
	x := make([]complex128, u)
	for i := range x {
		x[i] = cplx.Expi(src.Phase())
	}
	return x
}

// startServer runs an airServer on a loopback port and returns its address
// plus a shutdown func that stops it and waits for serve to return.
func startServer(t *testing.T, srv *airServer) (*net.UDPAddr, func()) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.serve(conn) }()
	return conn.LocalAddr().(*net.UDPAddr), func() {
		conn.Close()
		<-done
	}
}

func dialServer(t *testing.T, addr *net.UDPAddr) *net.UDPConn {
	t.Helper()
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// awaitServed waits up to 10s for served() to reach want, then asserts it
// equals want exactly. processBatch counts a request as served only after
// its reply's WriteToUDP returns, so a client can hold the reply before the
// counter moves.
func awaitServed(t *testing.T, served func() int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for served() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := served(); got != want {
		t.Fatalf("served %d data frames, want %d", got, want)
	}
}

func TestServeHotSwapZeroRequestLoss(t *testing.T) {
	// The degraded-mode acceptance test: a damaged deployment serves a
	// concurrent client load while the health monitor trips and the
	// supervisor hot-swaps in the healed deployment. Every single request
	// must receive a data-frame answer — zero loss across the swap. Run
	// under -race: the swap publishes whole epochs through an atomic
	// pointer while 4 workers keep serving.
	d := testDeployment(t, 11)
	inj, err := faults.New(d, faults.Rates{StuckAtomFrac: 0.3}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	// A monitor with an unreachable threshold trips as soon as its window
	// fills, forcing the heal to race the client load deterministically.
	srv := newAirServer(serverConfig{
		deployment: inj.Deployment(),
		injector:   inj,
		monitor:    mobility.NewMonitor(math.MaxFloat64, 8),
		workers:    4,
		queue:      64,
		healEvery:  5 * time.Millisecond,
		sessionSrc: rng.New(99),
		logf:       t.Logf,
	})
	addr, shutdown := startServer(t, srv)
	defer shutdown()

	const clients, perClient = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.DialUDP("udp", nil, addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			for i := 0; i < perClient; i++ {
				id := uint32(c*perClient + i + 1)
				req := &airproto.Frame{ID: id, Data: testSymbols(d.InputLen(), uint64(id))}
				out, _ := req.Marshal()
				if _, err := conn.Write(out); err != nil {
					errs <- err
					return
				}
				conn.SetReadDeadline(time.Now().Add(10 * time.Second))
				resp, err := readMatching(conn, id)
				if err != nil {
					errs <- fmt.Errorf("request %d lost: %w", id, err)
					return
				}
				if resp.IsNack() {
					errs <- fmt.Errorf("request %d NACKed with status %d", id, resp.Code)
					return
				}
				if len(resp.Data) != d.Classes() {
					errs <- fmt.Errorf("request %d: %d accumulators, want %d", id, len(resp.Data), d.Classes())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	awaitServed(t, srv.served.Load, clients*perClient)
	if srv.shed.Load() != 0 {
		t.Fatalf("server shed %d requests under a within-queue load", srv.shed.Load())
	}
	// A fast client load can drain before the supervisor's next tick; the
	// monitor window stays full, so the heal is still guaranteed — wait for
	// it instead of racing it. Poll the atomic swap count, not Healed(): the
	// supervisor sets the injector's plain healed flag and only then
	// publishes the swap, so reading Healed() after the swap shows is
	// ordered after that write.
	deadline := time.Now().Add(10 * time.Second)
	for srv.swaps.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.swaps.Load() == 0 {
		t.Fatal("no epoch swap was published")
	}
	if !inj.Healed() {
		t.Fatal("health monitor never triggered the masked-atom heal")
	}
}

func TestServeNacksMalformedAndWrongLength(t *testing.T) {
	d := testDeployment(t, 12)
	srv := newAirServer(serverConfig{deployment: d, workers: 1, sessionSrc: rng.New(99)})
	addr, shutdown := startServer(t, srv)
	defer shutdown()
	conn := dialServer(t, addr)

	// Garbage bytes: rejection must come back as a bad-frame NACK with the
	// unattributable ID 0, not silence.
	if _, err := conn.Write([]byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := readMatching(conn, 0)
	if err != nil {
		t.Fatalf("malformed frame got no NACK: %v", err)
	}
	if !resp.IsNack() || resp.Code != airproto.StatusBadFrame {
		t.Fatalf("malformed frame answered with %+v, want StatusBadFrame NACK", resp)
	}

	// Wrong symbol count: the NACK echoes the request ID and carries the
	// deployed U in the Label field.
	req := &airproto.Frame{ID: 77, Data: testSymbols(d.InputLen()+3, 5)}
	out, _ := req.Marshal()
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err = readMatching(conn, 77)
	if err != nil {
		t.Fatalf("wrong-length frame got no NACK: %v", err)
	}
	if !resp.IsNack() || resp.Code != airproto.StatusWrongLen {
		t.Fatalf("wrong-length frame answered with %+v, want StatusWrongLen NACK", resp)
	}
	if int(resp.Label) != d.InputLen() {
		t.Fatalf("NACK advertises U=%d, deployment has U=%d", resp.Label, d.InputLen())
	}

	// A traced data frame cut inside its trace extension, and one whose
	// trace ID is 0: both are malformed, so each earns a bad-frame NACK
	// instead of vanishing into the fleet-control dispatch.
	traced, _ := (&airproto.Frame{ID: 78, Data: testSymbols(d.InputLen(), 6), Trace: 1, ParentSpan: 2}).Marshal()
	zeroTrace := append([]byte(nil), traced...)
	for i := airproto.HeaderLen; i < airproto.HeaderLen+8; i++ {
		zeroTrace[i] = 0
	}
	for _, bad := range [][]byte{traced[:airproto.HeaderLen+10], zeroTrace} {
		if _, err := conn.Write(bad); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		resp, err := readMatching(conn, 0)
		if err != nil {
			t.Fatalf("malformed traced frame got no NACK: %v", err)
		}
		if !resp.IsNack() || resp.Code != airproto.StatusBadFrame {
			t.Fatalf("malformed traced frame answered with %+v, want StatusBadFrame NACK", resp)
		}
	}
	if srv.nacked.Load() != 4 {
		t.Fatalf("nacked counter = %d, want 4", srv.nacked.Load())
	}
}

// fakeResponder runs a scripted UDP peer: for each inbound request it calls
// script with the request and the attempt number, sending back whatever
// frames the script returns.
func fakeResponder(t *testing.T, script func(req *airproto.Frame, n int) []*airproto.Frame) (*net.UDPAddr, *atomic.Int64) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	received := new(atomic.Int64)
	go func() {
		buf := make([]byte, 65535)
		for n := 0; ; n++ {
			nb, from, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			req, err := airproto.Unmarshal(buf[:nb])
			if err != nil {
				continue
			}
			received.Store(int64(n + 1))
			for _, f := range script(req, n) {
				out, _ := f.Marshal()
				conn.WriteToUDP(out, from)
			}
		}
	}()
	return conn.LocalAddr().(*net.UDPAddr), received
}

func TestExchangeDiscardsMismatchedID(t *testing.T) {
	// A delayed reply to an earlier request (different ID) arrives first;
	// exchange must keep reading and return the matching frame, not the
	// stale one.
	addr, _ := fakeResponder(t, func(req *airproto.Frame, n int) []*airproto.Frame {
		stale := &airproto.Frame{ID: req.ID + 1000, Data: []complex128{9}}
		good := &airproto.Frame{ID: req.ID, Data: []complex128{1, 2}}
		return []*airproto.Frame{stale, good}
	})
	conn := dialServer(t, addr)
	req := &airproto.Frame{ID: 5, Data: []complex128{1}}
	resp, err := exchange(conn, req, 5*time.Second, 0, time.Millisecond, 3, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 5 || len(resp.Data) != 2 {
		t.Fatalf("exchange returned the stale frame: %+v", resp)
	}
}

func TestExchangeDrainsStaleZeroIDNack(t *testing.T) {
	// An earlier unparseable request was rejected with a zero-ID NACK (the
	// server cannot name a frame it could not parse) that the probe never
	// consumed. The historical bug: readMatching must accept zero-ID NACKs,
	// so the buffered stale rejection was read as the NEXT request's answer,
	// turning a perfectly good exchange into a fatal bad-frame failure.
	// exchange now drains the socket before every send. With a single
	// attempt this test fails on the old code.
	srvConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srvConn.Close() })
	go func() {
		buf := make([]byte, 65535)
		for {
			n, from, err := srvConn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			req, err := airproto.Unmarshal(buf[:n])
			if err != nil {
				continue
			}
			out, _ := (&airproto.Frame{ID: req.ID, Data: []complex128{1, 2, 3}}).Marshal()
			srvConn.WriteToUDP(out, from)
		}
	}()
	client := dialServer(t, srvConn.LocalAddr().(*net.UDPAddr))

	// Plant the leftover rejection in the client's receive buffer before the
	// exchange starts.
	stale, _ := airproto.Nack(0, airproto.StatusBadFrame, 0).Marshal()
	if _, err := srvConn.WriteToUDP(stale, client.LocalAddr().(*net.UDPAddr)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the stale datagram land

	resp, err := exchange(client, &airproto.Frame{ID: 41, Data: []complex128{1}},
		2*time.Second, 0, time.Millisecond, 1, rng.New(1))
	if err != nil {
		t.Fatalf("stale zero-ID NACK failed the exchange: %v", err)
	}
	if resp.IsNack() || resp.ID != 41 || len(resp.Data) != 3 {
		t.Fatalf("exchange returned %+v, want the data frame for ID 41", resp)
	}
}

func TestExchangeBacksOffOnDegradedNack(t *testing.T) {
	// First two attempts are answered with a retryable StatusDegraded NACK;
	// the third succeeds. exchange must retry through the NACKs.
	addr, received := fakeResponder(t, func(req *airproto.Frame, n int) []*airproto.Frame {
		if n < 2 {
			return []*airproto.Frame{airproto.Nack(req.ID, airproto.StatusDegraded, 0)}
		}
		return []*airproto.Frame{{ID: req.ID, Data: []complex128{3}}}
	})
	conn := dialServer(t, addr)
	req := &airproto.Frame{ID: 9, Data: []complex128{1}}
	resp, err := exchange(conn, req, 2*time.Second, 0, time.Millisecond, 3, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if resp.IsNack() || resp.ID != 9 {
		t.Fatalf("exchange returned %+v after backoff, want the data frame", resp)
	}
	if got := received.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
}

func TestExchangeWrongLenIsFatal(t *testing.T) {
	// A wrong-length rejection cannot be fixed by retrying: exchange must
	// fail immediately, reporting the deployed U, after a single attempt.
	addr, received := fakeResponder(t, func(req *airproto.Frame, n int) []*airproto.Frame {
		return []*airproto.Frame{airproto.Nack(req.ID, airproto.StatusWrongLen, 784)}
	})
	conn := dialServer(t, addr)
	req := &airproto.Frame{ID: 2, Data: []complex128{1}}
	_, err := exchange(conn, req, 2*time.Second, 0, time.Millisecond, 3, rng.New(1))
	if err == nil {
		t.Fatal("exchange succeeded against a WrongLen NACK")
	}
	if !strings.Contains(err.Error(), "U=784") {
		t.Fatalf("error does not advertise the deployed U: %v", err)
	}
	if got := received.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1 (no retry on a fatal NACK)", got)
	}
}

func TestExchangeTimesOutThroughAttempts(t *testing.T) {
	// A silent server exhausts all attempts; the error names the attempt
	// count.
	addr, received := fakeResponder(t, func(req *airproto.Frame, n int) []*airproto.Frame {
		return nil
	})
	conn := dialServer(t, addr)
	req := &airproto.Frame{ID: 3, Data: []complex128{1}}
	start := time.Now()
	_, err := exchange(conn, req, 50*time.Millisecond, 0, time.Millisecond, 3, rng.New(1))
	if err == nil {
		t.Fatal("exchange succeeded against a silent server")
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("error does not report the attempts: %v", err)
	}
	if got := received.Load(); got != 3 {
		t.Fatalf("server saw %d sends, want 3", got)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("backoff took implausibly long")
	}
}
