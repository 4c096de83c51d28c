package main

import (
	"net"
	"time"
)

// reqSample is one traced request's client-side timeline.
type reqSample struct {
	id     uint32
	sample int // corpus index
	sock   int
	due    time.Time // open loop: the scheduled send; closed loop: the send
	sent   time.Time
	wrote  time.Time
	recv   time.Time
}

const (
	sampleEvery = 64   // the closed loop's trace sampling stride
	closedChunk = 8192 // requests per closed-loop phase
)

// closedLoop runs replica-closed's loop on an inline client's first socket
// for dur: one request outstanding, the next sent as soon as the one before it
// is answered or written off after replyTimeout. The loop runs as a chain
// of phases of closedChunk requests, so its length needs no bound up front.
// Latency counts from the send; lateness is the client's own turnaround
// from the previous reply to the next send. When samples is non-nil, every
// sampleEvery-th answered request's timeline is appended to it, up to
// maxSamples.
func (c *client) closedLoop(order []int, to *net.UDPAddr, dur, slo time.Duration, samples *[]reqSample) outcome {
	o := outcome{tally: tally{NackCodes: map[uint8]int{}}}
	end := time.Now().Add(dur)
	for time.Now().Before(end) {
		ph := c.newPhase(closedChunk, order)
		c.runClosed(ph, to, end)
		o.merge(ph.result(slo))
		if samples != nil {
			*samples = append(*samples, phaseSamples(ph, sampleEvery, 1, maxSamples-len(*samples))...)
		}
	}
	return o
}

// runClosed sends ph's requests one at a time until they are all sent or
// end passes. A request's due time is its send.
func (c *client) runClosed(ph *loadPhase, to *net.UDPAddr, end time.Time) {
	buf := make([]byte, len(c.corpus.frames[0]))
	ph.closed = true
	ph.start = time.Now()
	c.phase.Store(ph)
	defer c.phase.Store(nil)
	for i := range ph.due {
		now := time.Now()
		if !now.Before(end) {
			return
		}
		b := append(buf[:0], c.corpus.frames[ph.sample[i]]...)
		id := ph.base + uint32(i)
		putID(b, id)
		ph.due[i] = now.Sub(ph.start).Nanoseconds()
		ph.sentAt[i] = ph.due[i]
		c.issued.Store(id)
		ph.sent.Add(1)
		if _, err := c.socks[0].WriteToUDP(b, to); err != nil {
			ph.state[i].Store(stSendErr)
			continue
		}
		ph.wroteAt[i] = time.Since(ph.start).Nanoseconds()
		if !c.readUntil(0, now.Add(replyTimeout), func() bool { return ph.state[i].Load() != stPending }) {
			ph.state[i].Store(stWrittenOff)
		}
	}
}
