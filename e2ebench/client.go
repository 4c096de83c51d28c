package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/cmplx"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/airproto"
	"repro/internal/fleet"
	"repro/internal/nn"
)

// corpus holds the request frames the client sends: every encoded test
// sample marshalled once as a KindData frame carrying its label. A send
// copies a frame and patches its ID field in place.
type corpus struct {
	frames  [][]byte
	labels  []int
	classes int
}

func newCorpus(test *nn.EncodedSet) (*corpus, error) {
	c := &corpus{labels: test.Labels, classes: test.Classes}
	for i, x := range test.X {
		f := airproto.Frame{Kind: airproto.KindData, Label: int32(test.Labels[i]), Data: x}
		b, err := f.Marshal()
		if err != nil {
			return nil, err
		}
		c.frames = append(c.frames, b)
	}
	if len(c.frames) == 0 {
		return nil, errors.New("empty test set")
	}
	return c, nil
}

// putID overwrites the ID field of a marshalled frame.
func putID(b []byte, id uint32) { binary.LittleEndian.PutUint32(b[2:6], id) }

// frameID reads the ID field of a datagram of at least HeaderLen bytes.
func frameID(b []byte) uint32 { return binary.LittleEndian.Uint32(b[2:6]) }

// checkReply validates one data reply to a request labelled label: kind
// Data, the label echoed, and one finite accumulator per class. It returns
// the top-1 class, the argmax of |acc|.
func checkReply(f *airproto.Frame, label, classes int) (int, error) {
	if f.Kind != airproto.KindData {
		return 0, fmt.Errorf("reply %d: kind %d, want data", f.ID, f.Kind)
	}
	if int(f.Label) != label {
		return 0, fmt.Errorf("reply %d: label %d echoed for a request labelled %d", f.ID, f.Label, label)
	}
	if len(f.Data) != classes {
		return 0, fmt.Errorf("reply %d: %d accumulators, want %d", f.ID, len(f.Data), classes)
	}
	best, arg := -1.0, 0
	for i, v := range f.Data {
		if cmplx.IsNaN(v) || cmplx.IsInf(v) {
			return 0, fmt.Errorf("reply %d: accumulator %d is %v", f.ID, i, v)
		}
		if m := cmplx.Abs(v); m > best {
			best, arg = m, i
		}
	}
	return arg, nil
}

// routeKey is the key the fleet router routes a client by: FNV-1a over
// the client's address string (the fleet ring's own hash).
func routeKey(addr string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	return h.Sum64()
}

// bindSplit opens one client socket per replica, choosing source ports so
// that socket i's primary on the router's consistent-hash ring is
// replicas[i]. Without this, the kernel's ephemeral ports decide the
// replica split and one replica can take most of the load.
func bindSplit(replicas []string) ([]*net.UDPConn, error) {
	ring := fleet.NewRing()
	for _, r := range replicas {
		ring.Add(r)
	}
	socks := make([]*net.UDPConn, len(replicas))
	var spare []*net.UDPConn // rejected sockets stay bound so no port repeats
	defer func() {
		for _, s := range spare {
			s.Close()
		}
	}()
	for tries, filled := 0, 0; filled < len(socks); tries++ {
		if tries == 1000 {
			for _, s := range socks {
				if s != nil {
					s.Close()
				}
			}
			return nil, errors.New("no source port split the client across every replica")
		}
		s, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, err
		}
		primary := ring.Route(routeKey(s.LocalAddr().String()), 1)[0]
		placed := false
		for i, r := range replicas {
			if r == primary && socks[i] == nil {
				socks[i], placed = s, true
				filled++
			}
		}
		if !placed {
			spare = append(spare, s)
		}
	}
	return socks, nil
}

// Request outcomes stored per request (the low byte; the next byte holds
// the predicted class or the NACK status code).
const (
	stPending uint32 = iota
	stOK
	stNack
	stSendErr
	stWrittenOff // closed loop: unanswered after replyTimeout, counted lost
)

// tally is the reply accounting of one load phase.
type tally struct {
	Sent, OK, Nacked, Lost int
	Correct                int           // data replies whose top-1 class matches the label
	NackCodes              map[uint8]int // NACKs by airproto status code
}

func (t *tally) add(o tally) {
	t.Sent += o.Sent
	t.OK += o.OK
	t.Nacked += o.Nacked
	t.Lost += o.Lost
	t.Correct += o.Correct
	for code, n := range o.NackCodes {
		if t.NackCodes == nil {
			t.NackCodes = map[uint8]int{}
		}
		t.NackCodes[code] += n
	}
}

// waitBit marks the IDs of control exchanges (stats reads and set-up
// probes) so replies to them never collide with data request IDs.
const waitBit = 1 << 31

// client is the load generator of every workload. For the open loop of
// the fleet workloads, one reader goroutine per socket receives every
// reply, so a stalled fleet never holds back the sender. replica-closed's
// closed loop reads inline instead: the goroutine that sends also reads,
// because with one request outstanding nothing else is in flight, and the
// hand-off from a reader goroutine added 8-23 µs to a ~95 µs p50 on a
// 2-vCPU VM. Either way every datagram goes through handle: data replies
// land in the current phase's per-request slots, control replies go to
// whoever waits on their ID.
type client struct {
	socks  []*net.UDPConn
	corpus *corpus
	inline bool   // no reader goroutines; only one goroutine uses the client
	buf    []byte // inline reads

	issued  atomic.Uint32 // highest data request ID sent so far
	nextCtl atomic.Uint32
	phase   atomic.Pointer[loadPhase]
	stale   atomic.Int64 // replies that arrived after their request was written off

	mu      sync.Mutex
	waiters map[uint32]chan *airproto.Frame
	errs    []string // validation failures

	wg sync.WaitGroup
}

func newClient(socks []*net.UDPConn, c *corpus, inline bool) *client {
	cl := &client{socks: socks, corpus: c, inline: inline, waiters: make(map[uint32]chan *airproto.Frame)}
	if inline {
		cl.buf = make([]byte, 65535)
		return cl
	}
	for _, s := range socks {
		cl.wg.Add(1)
		go cl.readLoop(s)
	}
	return cl
}

// close stops the readers and waits for them.
func (c *client) close() {
	for _, s := range c.socks {
		s.Close()
	}
	c.wg.Wait()
}

func (c *client) fail(format string, args ...any) {
	c.mu.Lock()
	if len(c.errs) < 20 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

func (c *client) failures() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.errs...)
}

func (c *client) readLoop(s *net.UDPConn) {
	defer c.wg.Done()
	buf := make([]byte, 65535)
	for {
		n, _, err := s.ReadFromUDP(buf)
		now := time.Now()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				c.fail("read: %v", err)
			}
			return
		}
		c.handle(buf[:n], now)
	}
}

// readUntil is the inline client's receive: it reads socket sock on the
// calling goroutine, handling every datagram, until done reports true or
// deadline passes, and reports done's last answer.
func (c *client) readUntil(sock int, deadline time.Time, done func() bool) bool {
	s := c.socks[sock]
	if err := s.SetReadDeadline(deadline); err != nil {
		c.fail("set read deadline: %v", err)
		return done()
	}
	for !done() {
		n, _, err := s.ReadFromUDP(c.buf)
		now := time.Now()
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				c.fail("read: %v", err)
			}
			return done()
		}
		c.handle(c.buf[:n], now)
	}
	return true
}

// handle dispatches one received datagram.
func (c *client) handle(b []byte, now time.Time) {
	if len(b) < airproto.HeaderLen {
		c.fail("short datagram of %d bytes", len(b))
		return
	}
	id := frameID(b)
	if id&waitBit != 0 {
		f, err := airproto.Unmarshal(b)
		if err != nil {
			c.fail("control reply: %v", err)
			return
		}
		c.mu.Lock()
		ch := c.waiters[id]
		c.mu.Unlock()
		if ch == nil {
			c.stale.Add(1) // its caller already gave up
			return
		}
		select {
		case ch <- f:
		default:
			c.fail("duplicate reply for control exchange %#x", id)
		}
		return
	}
	ph := c.phase.Load()
	if ph == nil || !ph.deliver(c, id, b, now) {
		if id == 0 || id > c.issued.Load() {
			c.fail("reply for request ID %d, which was never sent", id)
		} else {
			c.stale.Add(1)
		}
	}
}

// call sends one control frame (a stats read or a set-up probe) and waits
// up to timeout for the reply with the same ID.
func (c *client) call(sock int, to *net.UDPAddr, f *airproto.Frame, timeout time.Duration) (*airproto.Frame, error) {
	id := waitBit | c.nextCtl.Add(1)
	f.ID = id
	out, err := f.Marshal()
	if err != nil {
		return nil, err
	}
	ch := make(chan *airproto.Frame, 1)
	c.mu.Lock()
	c.waiters[id] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.waiters, id)
		c.mu.Unlock()
	}()
	if _, err := c.socks[sock].WriteToUDP(out, to); err != nil {
		return nil, err
	}
	if c.inline {
		if c.readUntil(sock, time.Now().Add(timeout), func() bool { return len(ch) > 0 }) {
			return <-ch, nil
		}
		return nil, os.ErrDeadlineExceeded
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case r := <-ch:
		return r, nil
	case <-t.C:
		return nil, os.ErrDeadlineExceeded
	}
}

// loadPhase is one load phase: its schedule and per-request slots. The
// sender fills sentAt and wroteAt (and, in the closed loop, due); the
// readers fill recvAt and state. Times are nanoseconds since start.
type loadPhase struct {
	start   time.Time
	base    uint32 // the ID of request 0
	due     []int64
	sample  []int // corpus index per request
	labels  []int // corpus labels
	sentAt  []int64
	wroteAt []int64

	closed bool // one request outstanding; lateness is the turnaround

	sent    atomic.Int64 // requests written so far; IDs below base+sent are outstanding
	replied atomic.Int64
	recvAt  []atomic.Int64
	state   []atomic.Uint32
}

// newOpenPhase lays out a phase from a per-tick schedule.
func (c *client) newOpenPhase(sched []int, tick time.Duration, order []int) *loadPhase {
	total := 0
	for _, n := range sched {
		total += n
	}
	ph := c.newPhase(total, order)
	ph.due = ph.due[:0]
	for k, n := range sched {
		for j := 0; j < n; j++ {
			ph.due = append(ph.due, int64(k)*int64(tick))
		}
	}
	return ph
}

// newPhase lays out n requests that cycle through the corpus in order,
// continuing from the last request ID issued.
func (c *client) newPhase(n int, order []int) *loadPhase {
	ph := &loadPhase{
		base:    c.issued.Load() + 1,
		labels:  c.corpus.labels,
		due:     make([]int64, n),
		sample:  make([]int, n),
		sentAt:  make([]int64, n),
		wroteAt: make([]int64, n),
		recvAt:  make([]atomic.Int64, n),
		state:   make([]atomic.Uint32, n),
	}
	for i := range ph.sample {
		ph.sample[i] = order[(int(ph.base)+i)%len(order)]
	}
	return ph
}

// deliver records one data reply or NACK; it reports false when the ID is
// not one of this phase's outstanding requests. A reply to a request only
// ever reaches the socket the request left on, so one reader owns each
// request's slots. The closed loop's write-off happens on that reader's
// goroutine too.
func (ph *loadPhase) deliver(c *client, id uint32, b []byte, now time.Time) bool {
	i := int64(id) - int64(ph.base)
	if i < 0 || i >= ph.sent.Load() {
		return false
	}
	switch ph.state[i].Load() {
	case stPending:
	case stWrittenOff:
		c.stale.Add(1)
		return true
	default:
		c.fail("duplicate reply for request %d", id)
		return true
	}
	f, err := airproto.Unmarshal(b)
	if err != nil {
		c.fail("reply %d: %v", id, err)
		return true
	}
	var st uint32
	if f.IsNack() {
		st = stNack | uint32(f.Code)<<8
	} else {
		pred, err := checkReply(f, ph.labels[ph.sample[i]], c.corpus.classes)
		if err != nil {
			c.fail("%v", err)
			return true
		}
		st = stOK | uint32(pred)<<8
	}
	ph.recvAt[i].Store(now.Sub(ph.start).Nanoseconds())
	ph.state[i].Store(st)
	ph.replied.Add(1)
	return true
}

// run sends the phase on its schedule: the requests of tick k are due at
// start + k·tick and go out back to back as one burst, alternating over
// the sockets. It then waits for every reply or until replyTimeout after
// the last due time, whichever is first.
func (c *client) run(ph *loadPhase, to *net.UDPAddr, replyTimeout time.Duration) {
	bufs := make([][]byte, len(c.socks))
	for i := range bufs {
		bufs[i] = make([]byte, len(c.corpus.frames[0]))
	}
	ph.start = time.Now().Add(2 * time.Millisecond)
	c.phase.Store(ph)
	for i := range ph.due {
		sleepUntil(ph.start.Add(time.Duration(ph.due[i])))
		s := i % len(c.socks)
		b := bufs[s][:0]
		b = append(b, c.corpus.frames[ph.sample[i]]...)
		id := ph.base + uint32(i)
		putID(b, id)
		ph.sentAt[i] = time.Since(ph.start).Nanoseconds()
		c.issued.Store(id)
		ph.sent.Add(1)
		if _, err := c.socks[s].WriteToUDP(b, to); err != nil {
			ph.state[i].Store(stSendErr)
		}
		ph.wroteAt[i] = time.Since(ph.start).Nanoseconds()
	}
	var last int64
	if n := len(ph.due); n > 0 {
		last = ph.due[n-1]
	}
	limit := ph.start.Add(time.Duration(last) + replyTimeout)
	for ph.replied.Load() < ph.sent.Load() && time.Now().Before(limit) {
		time.Sleep(time.Millisecond)
	}
	c.phase.Store(nil)
}

// sleepUntil sleeps until t on the kernel's high-resolution timer. Go's
// own timers park a sub-millisecond sleep for about a millisecond, which
// would make every tick late by half a tick on average.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
		// EINTR (the runtime's preemption signal): sleep the rest.
	}
}

// outcome is the measured result of one load phase.
type outcome struct {
	tally
	Lat   []float64 // µs from due (open loop) or send (closed loop) to reply, data replies only
	Late  []float64 // µs from due to send (closed loop: from the previous reply)
	InSLO int       // data replies within the workload's latency limit
}

func (o *outcome) merge(p outcome) {
	o.tally.add(p.tally)
	o.Lat = append(o.Lat, p.Lat...)
	o.Late = append(o.Late, p.Late...)
	o.InSLO += p.InSLO
}

// sloAttainment is the share of sent requests answered with data within
// the limit; NACKs, losses and late replies all count as misses.
func (o outcome) sloAttainment() float64 {
	if o.Sent == 0 {
		return 0
	}
	return float64(o.InSLO) / float64(o.Sent)
}

// result collects a finished phase against latency limit slo.
func (ph *loadPhase) result(slo time.Duration) outcome {
	o := outcome{tally: tally{NackCodes: map[uint8]int{}}}
	n := int(ph.sent.Load())
	for i := 0; i < n; i++ {
		o.Sent++
		switch {
		case !ph.closed:
			o.Late = append(o.Late, float64(ph.sentAt[i]-ph.due[i])/1e3)
		case i > 0 && ph.state[i-1].Load()&0xff == stOK:
			o.Late = append(o.Late, float64(ph.sentAt[i]-ph.recvAt[i-1].Load())/1e3)
		}
		st := ph.state[i].Load()
		switch st & 0xff {
		case stOK:
			o.OK++
			lat := ph.recvAt[i].Load() - ph.due[i]
			o.Lat = append(o.Lat, float64(lat)/1e3)
			if lat <= slo.Nanoseconds() {
				o.InSLO++
			}
			if int(st>>8) == ph.labels[ph.sample[i]] {
				o.Correct++
			}
		case stNack:
			o.Nacked++
			o.NackCodes[uint8(st>>8)]++
		default:
			o.Lost++
		}
	}
	return o
}
