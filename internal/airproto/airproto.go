// Package airproto is the little UDP wire protocol the deployment demos
// speak: one little-endian frame per datagram. Data frames carry complex
// vectors — modulated symbols on the uplink (sensor → air), per-class
// accumulators on the downlink (air → edge). One datagram per transmission
// keeps the protocol as dumb as the commodity IoT transmitters the paper
// targets.
//
// Frame layout (little endian):
//
//	uint8   kind     KindData, KindNack, KindStats, KindTrace, or one of
//	                 the fleet kinds (KindHeartbeat, KindJoin,
//	                 KindEpochPush, KindEpochAck — see fleet.go)
//	uint8   code     status code; on data frames, the client's remaining
//	                 deadline budget in DeadlineUnit ticks (0 = no deadline)
//	uint32  id       sample/transmission identifier
//	int32   label    data: ground-truth label for accounting (-1 if unknown)
//	                 nack: detail value (e.g. the deployed U for StatusWrongLen)
//	uint16  n        body length, in units the kind decides
//	body
//
// The kind decides the body. KindData and KindStats carry n complex
// samples, each a (float32 re, float32 im) pair, in Frame.Data. Every
// other kind carries n raw bytes in Frame.Payload, laid out by the kind's
// builder and read back by its accessors in this package (fleet.go,
// trace.go); no other package knows a byte layout. A data frame with
// distributed-trace context (Frame.Trace, Frame.ParentSpan) goes out as
// wire kind KindDataTraced, with a 16-byte extension — trace ID, then
// parent span ID, uint64 each — between the header and the samples.
// Unmarshal hands it back as KindData with both fields set.
//
// NACK frames give clients an explicit failure signal instead of silence:
// a malformed or mis-sized request is answered with KindNack and a status
// code, and a degraded server sheds load with StatusDegraded — "healthy
// request, busy air, retry with backoff" — which clients must treat
// differently from a bad frame of their own making.
package airproto

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Frame kinds.
const (
	// KindData is a payload frame: symbols uplink, accumulators downlink.
	KindData uint8 = 0
	// KindNack is a status/negative-acknowledgement frame; Code says why and
	// Label carries the code-specific detail.
	KindNack uint8 = 1
	// KindStats is a serving-counter exchange: a client sends an empty
	// KindStats frame and the server answers with one whose Data carries the
	// StatsVector counters (real parts only) — served transmissions, heals,
	// epoch swaps, rollbacks, canary rejections, and the current epoch
	// sequence. It gives probes a health read without the HTTP sidecar.
	KindStats uint8 = 2
	// KindTrace is a retained-trace fetch: the client sends an empty
	// KindTrace frame whose ID/Label fields carry the low/high halves of a
	// 64-bit trace ID (see TraceRequest), and the server answers with one
	// whose Payload carries the trace's Chrome-format JSON export (see
	// TraceReply). A server with tracing disabled or no such retained trace
	// answers KindNack/StatusNoTrace. It lets `metaai-serve -probe -trace
	// <id>` pull a trace over the air when the HTTP sidecar is unreachable.
	KindTrace uint8 = 3
	// KindHeartbeat is the fleet router's liveness probe: an empty request,
	// answered with the replica's fleet version (see fleet.go).
	KindHeartbeat uint8 = 4
	// KindJoin is a replica's membership announcement to the fleet router,
	// sent from its serving socket so the source address doubles as the
	// routing address (see fleet.go).
	KindJoin uint8 = 5
	// KindEpochPush carries one chunk of a sealed checkpoint epoch from the
	// coordinator to a replica (see fleet.go).
	KindEpochPush uint8 = 6
	// KindEpochAck acknowledges a push chunk; the completing chunk's ack
	// carries the apply verdict and canary agreement (see fleet.go).
	KindEpochAck uint8 = 7
	// KindDataTraced is the wire kind of a KindData frame carrying
	// distributed-trace context (Frame.Trace, Frame.ParentSpan) — what a
	// fleet router forwards when it is tracing the request, so the replica's
	// serve.request span parents under the router's hop span. It exists
	// only on the wire: Marshal emits it for a traced KindData frame and
	// Unmarshal returns KindData. The reply is an ordinary KindData frame.
	// Pre-fleet replicas reject the kind at Unmarshal, so a tracing router
	// must only be pointed at replicas that speak it.
	KindDataTraced uint8 = 8
)

// maxKind is the highest wire kind this build speaks; anything above it is
// rejected at both Marshal and Unmarshal so unknown kinds never cross the
// wire silently.
const maxKind = KindDataTraced

// StatsVector indexes the counters a KindStats response carries in Data.
const (
	StatServed = iota
	StatHeals
	StatSwaps
	StatRollbacks
	StatCanaryRejects
	StatEpochSeq
	StatShed
	StatExpired
	StatsVectorLen
)

// Stats is the counter set a KindStats reply carries. A replica answers
// the legacy counters alone (StatsVersionReplica); a router answers them as
// fleet-wide sums and adds its own counters in Fleet (StatsVersionFleet).
type Stats struct {
	Served, Heals, Swaps, Rollbacks, CanaryRejects, EpochSeq, Shed, Expired int64

	Fleet *FleetStats // nil from a replica
}

// FleetStats is the router's part of a StatsVersionFleet reply.
type FleetStats struct {
	Live, Forwards, Failovers, HedgedWins, Shed, Expired int64

	P99Micros float64 // the merged serve.request p99
}

// slots is the float layout StatsReply writes and DecodeStats reads: each
// counter's slot index, the fleet extension's in FleetStats order after the
// legacy vector. The p99 is the one fractional slot.
func (s *Stats) slots() []*int64 {
	p := []*int64{StatServed: &s.Served, StatHeals: &s.Heals, StatSwaps: &s.Swaps,
		StatRollbacks: &s.Rollbacks, StatCanaryRejects: &s.CanaryRejects,
		StatEpochSeq: &s.EpochSeq, StatShed: &s.Shed, StatExpired: &s.Expired}
	if f := s.Fleet; f != nil {
		p = append(p, &f.Live, &f.Forwards, &f.Failovers, &f.HedgedWins, &f.Shed, &f.Expired)
	}
	return p
}

// StatsReply encodes s as the answer to KindStats request id, every value
// in the real part of its slot.
func StatsReply(id uint32, s *Stats) *Frame {
	f := &Frame{Kind: KindStats, Code: StatsVersionReplica, ID: id, Data: make([]complex128, StatsVectorLen)}
	if s.Fleet != nil {
		f.Code, f.Data = StatsVersionFleet, make([]complex128, FleetStatsVectorLen)
		f.Data[FleetStatP99Micros] = complex(s.Fleet.P99Micros, 0)
	}
	for i, p := range s.slots() {
		f.Data[i] = complex(float64(*p), 0)
	}
	return f
}

// DecodeStats reads a KindStats reply. The legacy counters decode from
// every version; Fleet is set only from a StatsVersionFleet reply.
func DecodeStats(f *Frame) (*Stats, error) {
	if f.Kind != KindStats || len(f.Data) < StatsVectorLen {
		return nil, fmt.Errorf("malformed stats reply (kind %d, %d values)", f.Kind, len(f.Data))
	}
	s := &Stats{}
	if f.Code == StatsVersionFleet && len(f.Data) >= FleetStatsVectorLen {
		s.Fleet = &FleetStats{P99Micros: real(f.Data[FleetStatP99Micros])}
	}
	for i, p := range s.slots() {
		*p = int64(real(f.Data[i]))
	}
	return s, nil
}

// Status codes carried by NACK frames.
const (
	// StatusBadFrame: the request failed to parse; sender should fix, not
	// retry.
	StatusBadFrame uint8 = 1
	// StatusWrongLen: the symbol count does not match the deployed U; the
	// NACK's Label carries the expected U. Sender should re-encode, not
	// retry.
	StatusWrongLen uint8 = 2
	// StatusDegraded: the service is degraded or shedding load; the request
	// was well-formed and a retry with backoff is expected to succeed.
	StatusDegraded uint8 = 3
	// StatusNoTrace: a KindTrace request named a trace the server does not
	// retain (never traced, sampled out, or evicted). Not retryable.
	StatusNoTrace uint8 = 4
	// StatusExpired: the request's deadline budget ran out before the server
	// (or router) would have started inference, so the work was dropped
	// unstarted — goal-oriented shedding, not a failure of the frame. The
	// NACK's Label carries how far past the deadline the request was, in
	// milliseconds. Retryable with a fresh budget if the result still
	// matters.
	StatusExpired uint8 = 5
	// StatusRetryAfter: admission control is browning out non-control
	// traffic because the serving latency exceeds its SLO; the NACK's Label
	// carries a suggested wait in milliseconds before retrying. The request
	// was well-formed — back off at least the hint, then retry.
	StatusRetryAfter uint8 = 6
)

// HeaderLen is the byte length of the fixed frame header.
const HeaderLen = 12

// MaxDatagram is the largest frame Marshal produces: the most payload one
// IPv4 UDP datagram carries (65,535 bytes less the 20-byte IP and 8-byte
// UDP headers). The kernel refuses to send anything larger.
const MaxDatagram = 65507

// traceExtLen is the trace-context extension a KindDataTraced frame
// carries between its header and its samples.
const traceExtLen = 16

// MaxVector is the largest sample vector one frame carries. It leaves room
// for the trace extension, so a router can trace any data frame it accepts.
const MaxVector = (MaxDatagram - HeaderLen - traceExtLen) / 8

// MaxPayload is the largest byte payload one frame carries.
const MaxPayload = MaxDatagram - HeaderLen

// Frame is one protocol message.
type Frame struct {
	Kind  uint8
	Code  uint8
	ID    uint32
	Label int32
	// Data is the sample body of KindData and KindStats frames.
	Data []complex128
	// Payload is the byte body of every other kind.
	Payload []byte
	// Trace and ParentSpan are the distributed-trace context of a KindData
	// frame a fleet router forwards: the router's trace ID and the hop span
	// the replica's serve.request span parents under. Trace 0 means
	// untraced.
	Trace      uint64
	ParentSpan uint64
}

// carriesSamples reports whether frames of kind carry complex samples in
// Data rather than raw bytes in Payload.
func carriesSamples(kind uint8) bool { return kind == KindData || kind == KindStats }

// Nack builds a status frame answering request id with the given code;
// detail rides the Label field (StatusWrongLen puts the deployed U there).
func Nack(id uint32, code uint8, detail int32) *Frame {
	return &Frame{Kind: KindNack, Code: code, ID: id, Label: detail}
}

// IsNack reports whether the frame is a status/negative acknowledgement.
func (f *Frame) IsNack() bool { return f.Kind == KindNack }

// Marshal serializes the frame.
func (f *Frame) Marshal() ([]byte, error) {
	return f.MarshalAppend(make([]byte, 0, HeaderLen+traceExtLen+8*len(f.Data)+len(f.Payload)))
}

// MarshalAppend serializes the frame onto buf and returns the extended
// slice, reusing buf's capacity — the zero-alloc variant for reply loops
// that recycle a scratch buffer (pass buf[:0] to overwrite it). The wire
// bytes are identical to Marshal's.
func (f *Frame) MarshalAppend(buf []byte) ([]byte, error) {
	if f.Kind >= maxKind {
		return nil, fmt.Errorf("airproto: cannot marshal frame kind %d", f.Kind)
	}
	n := len(f.Payload)
	if carriesSamples(f.Kind) {
		if n > 0 {
			return nil, fmt.Errorf("airproto: kind %d carries samples, not a payload", f.Kind)
		}
		if n = len(f.Data); n > MaxVector {
			return nil, fmt.Errorf("airproto: vector length %d exceeds %d", n, MaxVector)
		}
	} else if len(f.Data) > 0 {
		return nil, fmt.Errorf("airproto: kind %d carries a payload, not samples", f.Kind)
	} else if n > MaxPayload {
		return nil, fmt.Errorf("airproto: payload of %d bytes exceeds %d", n, MaxPayload)
	}
	kind := f.Kind
	if f.Trace != 0 || f.ParentSpan != 0 {
		if f.Kind != KindData || f.Trace == 0 {
			return nil, fmt.Errorf("airproto: trace context needs a data frame and a nonzero trace ID")
		}
		kind = KindDataTraced
	}
	buf = append(buf, kind, f.Code)
	buf = binary.LittleEndian.AppendUint32(buf, f.ID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Label))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(n))
	if kind == KindDataTraced {
		buf = binary.LittleEndian.AppendUint64(buf, f.Trace)
		buf = binary.LittleEndian.AppendUint64(buf, f.ParentSpan)
	}
	for _, v := range f.Data {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(real(v))))
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(imag(v))))
	}
	return append(buf, f.Payload...), nil
}

// Unmarshal parses one datagram into a frame. The frame copies what it
// keeps, so the caller may reuse b at once.
func Unmarshal(b []byte) (*Frame, error) {
	if len(b) < HeaderLen {
		return nil, fmt.Errorf("airproto: short frame (%d bytes)", len(b))
	}
	f := &Frame{
		Kind:  b[0],
		Code:  b[1],
		ID:    binary.LittleEndian.Uint32(b[2:6]),
		Label: int32(binary.LittleEndian.Uint32(b[6:10])),
	}
	if f.Kind > maxKind {
		return nil, fmt.Errorf("airproto: unknown frame kind %d", f.Kind)
	}
	n := int(binary.LittleEndian.Uint16(b[10:12]))
	body := b[HeaderLen:]
	if f.Kind == KindDataTraced {
		if len(body) < traceExtLen {
			return nil, fmt.Errorf("airproto: traced frame cut inside its trace extension (%d bytes)", len(b))
		}
		f.Kind = KindData
		f.Trace = binary.LittleEndian.Uint64(body[0:8])
		f.ParentSpan = binary.LittleEndian.Uint64(body[8:16])
		if f.Trace == 0 {
			return nil, fmt.Errorf("airproto: traced frame with trace ID 0")
		}
		body = body[traceExtLen:]
	}
	if !carriesSamples(f.Kind) {
		if n > MaxPayload {
			return nil, fmt.Errorf("airproto: payload length %d exceeds %d", n, MaxPayload)
		}
		if len(body) < n {
			return nil, fmt.Errorf("airproto: truncated frame: %d bytes for a %d-byte payload", len(b), n)
		}
		if n > 0 {
			f.Payload = append([]byte(nil), body[:n]...)
		}
		return f, nil
	}
	if n > MaxVector {
		return nil, fmt.Errorf("airproto: vector length %d exceeds %d", n, MaxVector)
	}
	if len(body) < 8*n {
		return nil, fmt.Errorf("airproto: truncated frame: %d bytes for n=%d", len(b), n)
	}
	f.Data = make([]complex128, n)
	off := 0
	for i := range f.Data {
		re := math.Float32frombits(binary.LittleEndian.Uint32(body[off : off+4]))
		im := math.Float32frombits(binary.LittleEndian.Uint32(body[off+4 : off+8]))
		f.Data[i] = complex(float64(re), float64(im))
		off += 8
	}
	return f, nil
}
