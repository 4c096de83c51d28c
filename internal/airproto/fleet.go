package airproto

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Fleet control frames. The router/coordinator tier (internal/fleet) speaks
// three more exchanges over the same dumb-datagram protocol the data path
// uses, so a replica needs exactly one socket for serving, liveness, and
// replication. Every fleet frame carries raw bytes in Payload:
//
//   - KindHeartbeat: the router pings each replica with an empty frame;
//     the reply carries the replica's fleet version — (transfer seq,
//     coordinator nonce) of the last replicated epoch it applied, two
//     uint32s — then, optionally, its encoded obs snapshot for the router's
//     merged fleet view. The router reads the version for anti-entropy;
//     liveness is the reply arriving at all.
//
//   - KindJoin: a replica announces itself to the router from its serving
//     socket — the datagram's source address IS the address clients get
//     routed to. The payload is the same fleet version, so a stale replica
//     gets its catch-up push at once. The router does not reply.
//
//   - KindEpochPush / KindEpochAck: epoch replication. The bytes are a
//     sealed internal/checkpoint epoch — CRC envelope and all, so the wire
//     format IS the journal format and a replica can journal what it
//     applied byte-for-byte. Sealed epochs outgrow one datagram, so the
//     push is chunked: every chunk frame carries (index, total) in Label and
//     a 16-byte chunk header — byte offset, total length, coordinator
//     nonce, and a CRC32 over every header field and the bytes, uint32
//     each — before the chunk bytes. The replica acks every chunk; the ack
//     for the final, completing chunk carries the apply verdict, the
//     measured canary prediction agreement, and echoes the nonce.
//
// Chunks are idempotent and may arrive duplicated or out of order; the
// (transfer ID, nonce) pair keys reassembly. The nonce exists because
// transfer IDs are a coordinator-local counter that restarts from 1 with
// the coordinator process: a replica that caches the final verdict of
// transfer 1 from one coordinator incarnation must not answer a NEW
// incarnation's transfer 1 — different bytes — from that cache. Each
// coordinator incarnation draws a random nonce at startup and stamps it on
// everything it sends; replicas report the nonce of their applied epoch
// back (heartbeats, joins), so fleet convergence is decided on the
// (nonce, seq) pair, never on a counter that two incarnations both start
// at 1.

// Push modes carried in a KindEpochPush frame's Code field.
const (
	// PushCommit: apply unconditionally after CRC + semantic validation.
	PushCommit uint8 = 0
	// PushCanary: measure prediction agreement against the current serving
	// epoch on the held-out probes, apply, and report the agreement — the
	// coordinator gates the fleet-wide fan-out on it.
	PushCanary uint8 = 1
	// PushRollback: apply an OLDER epoch; the replica journals it with
	// reason "fleet-rollback" instead of "replicate".
	PushRollback uint8 = 2
)

// Ack verdicts carried in a KindEpochAck frame's Code field.
const (
	// AckChunk acknowledges receipt of one non-completing chunk.
	AckChunk uint8 = 0
	// AckApplied: the transfer completed, decoded, validated, and is now
	// the replica's serving epoch.
	AckApplied uint8 = 1
	// AckRejected: the transfer completed but the replica refused it —
	// corrupt seal, failed validation, or a deployment that would not
	// build. The epoch must not be trusted anywhere.
	AckRejected uint8 = 2
)

// Payload layouts of the fleet kinds, in bytes.
const (
	versionLen     = 8  // fleet version: seq, nonce
	chunkHeaderLen = 16 // push chunk: offset, total length, nonce, CRC32
	verdictLen     = 12 // completing ack: agreement (float64 bits), nonce
)

// MaxChunkBytes is the largest sealed-epoch slice one push frame carries.
const MaxChunkBytes = MaxPayload - chunkHeaderLen

// Heartbeat builds the router's liveness ping.
func Heartbeat(id uint32) *Frame {
	return &Frame{Kind: KindHeartbeat, ID: id}
}

// HeartbeatReply builds a replica's answer to a heartbeat: its fleet
// version — the sequence of the last replicated epoch it applied and the
// nonce of the coordinator incarnation that pushed it, (0, 0) until a push
// lands — followed by snapshot, an encoded obs.Snapshot for the router's
// merged fleet metrics (nil for none). A snapshot too big for the datagram
// is left off: liveness must never lose to telemetry.
func HeartbeatReply(id uint32, seq uint64, nonce uint32, snapshot []byte) *Frame {
	p := make([]byte, 0, versionLen+len(snapshot))
	p = appendVersion(p, seq, nonce)
	if len(p)+len(snapshot) <= MaxPayload {
		p = append(p, snapshot...)
	}
	return &Frame{Kind: KindHeartbeat, ID: id, Payload: p}
}

// Join builds a replica's membership announcement, carrying its fleet
// version (see HeartbeatReply).
func Join(id uint32, seq uint64, nonce uint32) *Frame {
	return &Frame{Kind: KindJoin, ID: id, Payload: appendVersion(nil, seq, nonce)}
}

func appendVersion(b []byte, seq uint64, nonce uint32) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(seq))
	return binary.LittleEndian.AppendUint32(b, nonce)
}

// FleetVersion reads the fleet version a heartbeat reply or join carries;
// ok is false when the payload is too short to hold one (a heartbeat
// ping).
func (f *Frame) FleetVersion() (seq uint64, nonce uint32, ok bool) {
	if len(f.Payload) < versionLen {
		return 0, 0, false
	}
	return uint64(binary.LittleEndian.Uint32(f.Payload)), binary.LittleEndian.Uint32(f.Payload[4:]), true
}

// Snapshot returns the obs snapshot blob a heartbeat reply piggybacks, or
// nil when it carries none.
func (f *Frame) Snapshot() []byte {
	if len(f.Payload) <= versionLen {
		return nil
	}
	return f.Payload[versionLen:]
}

// chunkDigest is a push frame's integrity check: a CRC32 over every header
// field it carries — transfer ID, mode, (index, total), and the offset,
// total length and nonce of its chunk header — plus the chunk bytes. Frames
// have no payload checksum of their own, so without this a single
// corrupted datagram can tear a multi-chunk reassembly or land garbage
// bytes at a valid offset — the receiver only discovers it when the sealed
// epoch's own CRC fails at apply time, wasting the entire transfer.
func chunkDigest(f *Frame) uint32 {
	var hdr [9]byte
	binary.LittleEndian.PutUint32(hdr[0:], f.ID)
	hdr[4] = f.Code
	binary.LittleEndian.PutUint32(hdr[5:], uint32(f.Label))
	crc := crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, f.Payload[:12])
	return crc32.Update(crc, crc32.IEEETable, f.Payload[chunkHeaderLen:])
}

// EpochChunk builds one replication chunk: slice index of total, carrying
// chunk bytes at byte offset into a totalLen-byte sealed epoch, stamped
// with the coordinator's incarnation nonce. The offset rides the chunk
// header so reassembly never has to infer a stride — chunks of any size
// land at their exact position even when duplicated or reordered — and the
// header's CRC32 lets a receiver tell a chunk mangled on the wire from a
// clean one and discard it for re-send.
func EpochChunk(transfer uint32, mode uint8, index, total int, chunk []byte, offset, totalLen int, nonce uint32) (*Frame, error) {
	if len(chunk) > MaxChunkBytes {
		return nil, fmt.Errorf("airproto: chunk of %d bytes exceeds %d", len(chunk), MaxChunkBytes)
	}
	if index < 0 || total < 1 || index >= total || total > 0xffff {
		return nil, fmt.Errorf("airproto: chunk index %d of %d out of range", index, total)
	}
	if offset < 0 || offset+len(chunk) > totalLen || int64(totalLen) > math.MaxUint32 {
		return nil, fmt.Errorf("airproto: chunk [%d, %d) outside %d-byte transfer", offset, offset+len(chunk), totalLen)
	}
	p := make([]byte, chunkHeaderLen, chunkHeaderLen+len(chunk))
	binary.LittleEndian.PutUint32(p[0:], uint32(offset))
	binary.LittleEndian.PutUint32(p[4:], uint32(totalLen))
	binary.LittleEndian.PutUint32(p[8:], nonce)
	f := &Frame{
		Kind:    KindEpochPush,
		Code:    mode,
		ID:      transfer,
		Label:   int32(uint32(index)<<16 | uint32(total)),
		Payload: append(p, chunk...),
	}
	binary.LittleEndian.PutUint32(f.Payload[12:], chunkDigest(f))
	return f, nil
}

// ChunkInfo decodes the (index, total) pair from a push frame's Label.
func (f *Frame) ChunkInfo() (index, total int) {
	u := uint32(f.Label)
	return int(u >> 16), int(u & 0xffff)
}

// ChunkPayload extracts the chunk bytes (a view into Payload), their byte
// offset, the transfer's total byte length, and the coordinator nonce from
// a push frame. It returns ok=false for a frame whose CRC32 digest does not
// match its headers and bytes, or whose chunk overruns the transfer: a
// chunk corrupted anywhere on the wire reads as not-a-chunk, and the
// sender's stop-and-wait loop re-sends it like a drop.
func (f *Frame) ChunkPayload() (chunk []byte, offset, totalLen int, nonce uint32, ok bool) {
	p := f.Payload
	if len(p) < chunkHeaderLen || binary.LittleEndian.Uint32(p[12:]) != chunkDigest(f) {
		return nil, 0, 0, 0, false
	}
	offset = int(binary.LittleEndian.Uint32(p[0:]))
	totalLen = int(binary.LittleEndian.Uint32(p[4:]))
	chunk = p[chunkHeaderLen:]
	if offset+len(chunk) > totalLen {
		return nil, 0, 0, 0, false
	}
	return chunk, offset, totalLen, binary.LittleEndian.Uint32(p[8:]), true
}

// EpochAck builds a replica's chunk acknowledgement. Intermediate chunks
// ack with AckChunk and no payload. For the completing chunk, code carries
// the apply verdict and the payload the canary agreement, then the
// transfer's coordinator nonce, echoed so the sender can tell a fresh
// verdict from a cached one about another incarnation's transfer.
func EpochAck(transfer uint32, index int, code uint8, agreement float64, nonce uint32) *Frame {
	f := &Frame{Kind: KindEpochAck, Code: code, ID: transfer, Label: int32(index)}
	if code != AckChunk {
		p := binary.LittleEndian.AppendUint64(make([]byte, 0, verdictLen), math.Float64bits(agreement))
		f.Payload = binary.LittleEndian.AppendUint32(p, nonce)
	}
	return f
}

// AckInfo extracts the chunk index, canary agreement, and echoed nonce from
// an ack frame (agreement and nonce are zero on AckChunk).
func (f *Frame) AckInfo() (index int, agreement float64, nonce uint32) {
	index = int(f.Label)
	if len(f.Payload) >= verdictLen {
		agreement = math.Float64frombits(binary.LittleEndian.Uint64(f.Payload))
		nonce = binary.LittleEndian.Uint32(f.Payload[8:])
	}
	return index, agreement, nonce
}
