package fleet

import (
	"fmt"

	"repro/internal/airproto"
)

// DefaultChunkBytes is the per-frame replication payload the coordinator
// uses unless configured otherwise: about half a maximal datagram, large
// enough that a typical sealed epoch ships in a handful of datagrams.
const DefaultChunkBytes = 32 << 10

// Reassembly guards: a replica holds at most maxTransfers concurrent
// partial transfers and refuses any transfer claiming more than
// maxTransferBytes. A chunk header's total length is allocated up front,
// so without the cap one malformed or hostile header could make a replica
// allocate up to 4 GiB. Sealed epochs are a few MiB at most.
const (
	maxTransfers     = 4
	maxTransferBytes = 16 << 20
)

// Chunks splits one sealed checkpoint epoch into ordered KindEpochPush
// frames for transfer tid in the given push mode, stamped with the
// coordinator's incarnation nonce. Every chunk carries its own byte offset,
// so the receiver never infers positions from a stride and out-of-order or
// duplicated arrival is harmless.
func Chunks(tid uint32, mode uint8, sealed []byte, chunkBytes int, nonce uint32) ([]*airproto.Frame, error) {
	if len(sealed) == 0 {
		return nil, fmt.Errorf("fleet: refusing to chunk an empty epoch")
	}
	if len(sealed) > maxTransferBytes {
		return nil, fmt.Errorf("fleet: %d-byte epoch exceeds the %d-byte transfer cap", len(sealed), maxTransferBytes)
	}
	if chunkBytes <= 0 || chunkBytes > airproto.MaxChunkBytes {
		chunkBytes = DefaultChunkBytes
	}
	total := (len(sealed) + chunkBytes - 1) / chunkBytes
	if total > 0xffff {
		return nil, fmt.Errorf("fleet: %d-byte epoch needs %d chunks of %d bytes (max %d)", len(sealed), total, chunkBytes, 0xffff)
	}
	frames := make([]*airproto.Frame, 0, total)
	for i := 0; i < total; i++ {
		off := i * chunkBytes
		end := off + chunkBytes
		if end > len(sealed) {
			end = len(sealed)
		}
		f, err := airproto.EpochChunk(tid, mode, i, total, sealed[off:end], off, len(sealed), nonce)
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}

// transfer is one in-progress chunked reception.
type transfer struct {
	mode    uint8
	buf     []byte
	got     []bool
	pending int // chunks still missing
}

// transferKey names a transfer: its ID and the coordinator incarnation that
// sent it. IDs restart from 1 with every incarnation, so a dead
// incarnation's partial push must not refuse, or blend with, the next one's
// transfer of the same ID; it ages out like any other partial.
type transferKey struct{ id, nonce uint32 }

// Reassembler rebuilds sealed epochs from KindEpochPush frames, keyed by
// transfer. Duplicate chunks are idempotent; chunks may arrive in any
// order. It is not goroutine-safe — the owning Agent serializes access.
type Reassembler struct {
	m     map[transferKey]*transfer
	order []transferKey // insertion order, for evicting the oldest partial
}

func NewReassembler() *Reassembler {
	return &Reassembler{m: make(map[transferKey]*transfer)}
}

// Add folds one push frame into its transfer. When the final missing chunk
// lands it returns the complete sealed epoch with done=true and forgets the
// transfer. A frame that lies about its geometry (mismatched totals, chunk
// outside the transfer, mode flip mid-transfer) fails with an error and
// drops the whole transfer — a torn buffer must never reach the decoder.
// The one mode change allowed is to PushCatchUp, which starts over.
func (ra *Reassembler) Add(f *airproto.Frame) (sealed []byte, mode uint8, done bool, err error) {
	idx, total := f.ChunkInfo()
	chunk, off, totalLen, nonce, ok := f.ChunkPayload()
	if !ok || idx < 0 || total < 1 || idx >= total {
		return nil, 0, false, fmt.Errorf("fleet: malformed chunk %d/%d for transfer %d", idx, total, f.ID)
	}
	if totalLen > maxTransferBytes {
		return nil, 0, false, fmt.Errorf("fleet: transfer %d claims %d bytes (cap %d)", f.ID, totalLen, maxTransferBytes)
	}
	k := transferKey{f.ID, nonce}
	tr := ra.m[k]
	if tr != nil && f.Code == airproto.PushCatchUp && tr.mode != f.Code {
		// Anti-entropy re-sends a transfer whose earlier push died part-way.
		ra.drop(k)
		tr = nil
	}
	if tr == nil {
		if len(ra.m) >= maxTransfers {
			ra.drop(ra.order[0])
		}
		tr = &transfer{mode: f.Code, buf: make([]byte, totalLen), got: make([]bool, total), pending: total}
		ra.m[k] = tr
		ra.order = append(ra.order, k)
	}
	if len(tr.buf) != totalLen || len(tr.got) != total || tr.mode != f.Code {
		ra.drop(k)
		return nil, 0, false, fmt.Errorf("fleet: transfer %d changed shape mid-flight (%d/%d bytes, %d/%d chunks, mode %d/%d)",
			f.ID, totalLen, len(tr.buf), total, len(tr.got), f.Code, tr.mode)
	}
	if tr.got[idx] {
		return nil, tr.mode, false, nil // duplicate: already placed
	}
	copy(tr.buf[off:], chunk)
	tr.got[idx] = true
	tr.pending--
	if tr.pending > 0 {
		return nil, tr.mode, false, nil
	}
	ra.drop(k)
	return tr.buf, tr.mode, true, nil
}

// drop forgets a transfer's partial state.
func (ra *Reassembler) drop(k transferKey) {
	delete(ra.m, k)
	for i, o := range ra.order {
		if o == k {
			ra.order = append(ra.order[:i], ra.order[i+1:]...)
			break
		}
	}
}
