package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Envelope layout (little-endian):
//
//	offset 0  magic   "MAIC" (4 bytes)
//	offset 4  version uint16 (1 or 2)
//	offset 6  kind    uint8
//	offset 7  reserved uint8 (must be 0)
//	offset 8  payload length uint64
//	offset 16 payload
//	tail      CRC-32 (IEEE) over every preceding byte (4 bytes)
//
// Everything after the header is kind-specific. The CRC covers the header
// too, so a flipped kind or length byte reads as corruption, not as a
// different (possibly valid) checkpoint.
//
// Version 2 exists solely for stacked-cascade deployment state: a
// deployment/epoch whose DeploymentState carries cascade layers seals as
// version 2 with the cascade block appended after the version-1 fields.
// Single-surface state keeps sealing as version 1, byte-identical to every
// pre-cascade build, and this build reads both.
const (
	magic          = "MAIC"
	version        = 1
	versionCascade = 2
	headerLen      = 16
	trailerLen     = 4
)

// Kind tags what a checkpoint payload contains.
type Kind uint8

const (
	// KindModel is a trained nn.ComplexLNN weight matrix.
	KindModel Kind = 1
	// KindDeployment is a full ota.DeploymentState snapshot.
	KindDeployment Kind = 2
	// KindEpoch is a served epoch: deployment + monitor thresholds +
	// serving metadata, the unit the WAL journal appends. Kind 3, once a
	// standalone thresholds checkpoint, is not reused.
	KindEpoch Kind = 4
	// KindFleet is a fleet coordinator's durable state: publication
	// sequence, membership, and the current committed epoch bytes (see
	// FleetState).
	KindFleet Kind = 5
)

func (k Kind) String() string {
	switch k {
	case KindModel:
		return "model"
	case KindDeployment:
		return "deployment"
	case KindEpoch:
		return "epoch"
	case KindFleet:
		return "fleet"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// seal wraps a payload in the version-1 envelope: header, payload, CRC
// trailer.
func seal(kind Kind, payload []byte) []byte {
	return sealV(kind, version, payload)
}

// sealV is seal at an explicit format version — versionCascade for state
// carrying cascade layers.
func sealV(kind Kind, v uint16, payload []byte) []byte {
	out := make([]byte, 0, headerLen+len(payload)+trailerLen)
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint16(out, v)
	out = append(out, byte(kind), 0)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// open validates the envelope and returns the payload plus the format
// version it was sealed at (version or versionCascade — anything else is
// ErrVersion). Every failure maps to one of the package's typed errors; the
// CRC is checked before anything in the payload is believed, so a torn or
// bit-flipped file can never decode.
func open(kind Kind, b []byte) ([]byte, uint16, error) {
	if len(b) < headerLen+trailerLen {
		return nil, 0, fmt.Errorf("%w: %d bytes, need at least %d", ErrTruncated, len(b), headerLen+trailerLen)
	}
	if string(b[:4]) != magic {
		return nil, 0, ErrBadMagic
	}
	body, tail := b[:len(b)-trailerLen], b[len(b)-trailerLen:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, 0, ErrCorrupt
	}
	v := binary.LittleEndian.Uint16(b[4:6])
	if v != version && v != versionCascade {
		return nil, 0, fmt.Errorf("%w: version %d, this build reads %d and %d", ErrVersion, v, version, versionCascade)
	}
	got := Kind(b[6])
	if got != kind {
		return nil, 0, fmt.Errorf("%w: %v checkpoint where %v expected", ErrKind, got, kind)
	}
	if b[7] != 0 {
		return nil, 0, fmt.Errorf("%w: nonzero reserved byte", ErrInvalid)
	}
	payload := body[headerLen:]
	if n := binary.LittleEndian.Uint64(b[8:16]); n != uint64(len(payload)) {
		return nil, 0, fmt.Errorf("%w: header claims %d payload bytes, file carries %d", ErrTruncated, n, len(payload))
	}
	return payload, v, nil
}

// PeekKind reports the kind of a sealed checkpoint without validating the
// payload (the CRC is still checked — a kind read off a corrupt file is
// worthless).
func PeekKind(b []byte) (Kind, error) {
	if len(b) < headerLen+trailerLen {
		return 0, ErrTruncated
	}
	if string(b[:4]) != magic {
		return 0, ErrBadMagic
	}
	body, tail := b[:len(b)-trailerLen], b[len(b)-trailerLen:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return 0, ErrCorrupt
	}
	return Kind(b[6]), nil
}

// writer accumulates a payload. All integers are little-endian; floats are
// IEEE-754 bit patterns, so encode∘decode is the identity on every value
// including NaNs and signed zeros — the foundation of the bit-identity
// guarantee.
type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}
func (w *writer) c128(v complex128) { w.f64(real(v)); w.f64(imag(v)) }
func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *writer) f64s(v []float64) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.f64(x)
	}
}
func (w *writer) c128s(v []complex128) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.c128(x)
	}
}

// reader consumes a payload with sticky-error semantics: the first failure
// poisons the reader and every later read returns zero values, so decoders
// can read a full structure and check err once. Slice reads verify the
// declared element count fits in the remaining bytes BEFORE allocating —
// a fuzzer handing us a 4-billion-element length prefix costs nothing.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.fail("%w: need %d bytes at offset %d of %d", ErrTruncated, n, r.off, len(r.b))
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) c128() complex128 { return complex(r.f64(), r.f64()) }

func (r *reader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("%w: boolean byte out of range", ErrInvalid)
		return false
	}
}

// count reads a u32 length prefix and rejects it unless count*elemSize bytes
// remain — the allocation guard.
func (r *reader) count(elemSize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || (elemSize > 0 && n > (len(r.b)-r.off)/elemSize) {
		r.fail("%w: %d elements of %d bytes exceed the %d remaining", ErrTruncated, n, elemSize, len(r.b)-r.off)
		return 0
	}
	return n
}

func (r *reader) str() string { return string(r.take(r.count(1))) }

func (r *reader) f64s() []float64 {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64()
	}
	return out
}

func (r *reader) c128s() []complex128 {
	n := r.count(16)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]complex128, n)
	for i := range out {
		out[i] = r.c128()
	}
	return out
}

// done checks that the payload was consumed exactly: trailing garbage after
// a structurally valid decode is corruption, not slack.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes after payload", ErrInvalid, len(r.b)-r.off)
	}
	return nil
}
