package main

import (
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/airproto"
	"repro/internal/fleet"
)

func TestRouteKeyIsFNV1a(t *testing.T) {
	// FNV-1a 64 reference values: the fleet ring hashes client addresses
	// with exactly this function.
	for s, want := range map[string]uint64{"": 0xcbf29ce484222325, "a": 0xaf63dc4c8601ec8c} {
		if got := routeKey(s); got != want {
			t.Errorf("routeKey(%q) = %#x, want %#x", s, got, want)
		}
	}
}

func TestBindSplitPutsEachSocketOnItsReplica(t *testing.T) {
	replicas := []string{"127.0.0.1:40001", "127.0.0.1:40002"}
	socks, err := bindSplit(replicas)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range socks {
			s.Close()
		}
	}()
	ring := fleet.NewRing()
	for _, r := range replicas {
		ring.Add(r)
	}
	for i, s := range socks {
		if got := ring.Route(routeKey(s.LocalAddr().String()), 1)[0]; got != replicas[i] {
			t.Errorf("socket %d (%s) routes to %s, want %s", i, s.LocalAddr(), got, replicas[i])
		}
	}
}

func reply(label int32, data ...complex128) *airproto.Frame {
	return &airproto.Frame{Kind: airproto.KindData, ID: 1, Label: label, Data: data}
}

func TestCheckReply(t *testing.T) {
	pred, err := checkReply(reply(2, 1, -3i, 2), 2, 3)
	if err != nil || pred != 1 {
		t.Errorf("checkReply = %d, %v; want class 1 (the largest |acc|)", pred, err)
	}
	for name, f := range map[string]*airproto.Frame{
		"nack":        {Kind: airproto.KindNack, ID: 1, Label: 2},
		"label":       reply(1, 1, 2, 3),
		"length":      reply(2, 1, 2),
		"nan":         reply(2, 1, complex(math.NaN(), 0), 3),
		"infinite re": reply(2, 1, complex(math.Inf(1), 0), 3),
	} {
		if _, err := checkReply(f, 2, 3); err == nil {
			t.Errorf("%s: checkReply accepted an invalid reply", name)
		}
	}
}

// testClient is a client with no sockets, for driving a phase directly.
func testClient() *client {
	c := &corpus{labels: []int{0, 1}, classes: 2}
	for i := range c.labels {
		f := airproto.Frame{Kind: airproto.KindData, Label: int32(i), Data: []complex128{1, 2}}
		b, _ := f.Marshal()
		c.frames = append(c.frames, b)
	}
	return &client{corpus: c, waiters: map[uint32]chan *airproto.Frame{}}
}

func TestOpenPhaseAccounting(t *testing.T) {
	c := testClient()
	ph := c.newOpenPhase([]int{2, 0, 3}, time.Millisecond, []int{0, 1})
	ph.start = time.Now()
	for i := 0; i < 5; i++ {
		ph.sentAt[i] = ph.due[i]
		ph.sent.Add(1)
	}
	marshal := func(f *airproto.Frame) []byte {
		b, err := f.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	at := func(d time.Duration) time.Time { return ph.start.Add(d) }
	id := func(i int) uint32 { return ph.base + uint32(i) }
	label := func(i int) int32 { return int32(ph.labels[ph.sample[i]]) }
	// Request 0: answered in 1ms, correctly (class = label).
	r0 := &airproto.Frame{ID: id(0), Label: label(0), Data: []complex128{0, 0}}
	r0.Data[label(0)] = 5
	ph.deliver(c, id(0), marshal(r0), at(time.Millisecond))
	// Request 1: answered 20ms late, wrongly.
	r1 := &airproto.Frame{ID: id(1), Label: label(1), Data: []complex128{0, 0}}
	r1.Data[1-label(1)] = 5
	ph.deliver(c, id(1), marshal(r1), at(20*time.Millisecond))
	// Request 2: shed.
	ph.deliver(c, id(2), marshal(airproto.Nack(id(2), airproto.StatusDegraded, 0)), at(3*time.Millisecond))
	// Requests 3 and 4: lost. A second reply to request 0 is a duplicate.
	ph.deliver(c, id(0), marshal(r0), at(4*time.Millisecond))
	if ph.deliver(c, id(5), marshal(r0), at(time.Millisecond)) {
		t.Error("a reply for an ID the phase never sent was accepted")
	}

	o := ph.result(10 * time.Millisecond)
	if o.Sent != 5 || o.OK != 2 || o.Nacked != 1 || o.Lost != 2 || o.NackCodes[airproto.StatusDegraded] != 1 {
		t.Errorf("tally %+v, want 5 sent = 2 ok + 1 nacked (degraded) + 2 lost", o.tally)
	}
	if o.Correct != 1 || o.InSLO != 1 || o.sloAttainment() != 0.2 {
		t.Errorf("correct %d, in SLO %d, attainment %v; want 1, 1, 0.2", o.Correct, o.InSLO, o.sloAttainment())
	}
	if len(o.Lat) != 2 || o.Lat[0] != 1000 || o.Lat[1] != 20000 {
		t.Errorf("latencies %v, want [1000 20000] us from due", o.Lat)
	}
	if errs := c.failures(); len(errs) != 1 || !strings.Contains(errs[0], "duplicate") {
		t.Errorf("failures %q, want exactly the duplicate reply", errs)
	}
}

// TestClosedLoopAccounting drives the closed loop against an in-process
// UDP server that answers request 3 twice and request 5 only after the
// client has written it off.
func TestClosedLoopAccounting(t *testing.T) {
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go func() {
		buf := make([]byte, 65535)
		for {
			n, from, err := srv.ReadFromUDP(buf)
			if err != nil {
				return
			}
			req, err := airproto.Unmarshal(buf[:n])
			if err != nil {
				continue
			}
			rep := &airproto.Frame{Kind: airproto.KindData, ID: req.ID, Label: req.Label, Data: []complex128{0, 0}}
			rep.Data[req.Label] = 1
			out, _ := rep.Marshal()
			switch req.ID {
			case 3:
				srv.WriteToUDP(out, from)
				srv.WriteToUDP(out, from)
			case 5:
				time.AfterFunc(replyTimeout+100*time.Millisecond, func() { srv.WriteToUDP(out, from) })
			default:
				srv.WriteToUDP(out, from)
			}
		}
	}()
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	tc := testClient()
	c := newClient([]*net.UDPConn{sock}, tc.corpus, true)
	defer c.close()

	o := c.closedLoop([]int{0, 1}, srv.LocalAddr().(*net.UDPAddr), replyTimeout+300*time.Millisecond, time.Second, nil)
	if o.Sent < 6 || o.Sent != o.OK+o.Nacked+o.Lost || o.Lost != 1 || o.Nacked != 0 {
		t.Errorf("tally %+v, want every request answered but request 5 (lost)", o.tally)
	}
	if o.Correct != o.OK || o.InSLO != o.OK || len(o.Lat) != o.OK {
		t.Errorf("correct %d, in SLO %d, %d latencies; want all %d answered", o.Correct, o.InSLO, len(o.Lat), o.OK)
	}
	if errs := c.failures(); len(errs) != 1 || !strings.Contains(errs[0], "duplicate reply for request 3") {
		t.Errorf("failures %q, want exactly the duplicate reply to request 3", errs)
	}
	if n := c.stale.Load(); n != 1 {
		t.Errorf("%d stale replies, want 1: request 5's late reply", n)
	}
}
