package airproto

// Over-the-air trace fetch. Trace IDs are 64-bit and the request header
// has no 64-bit field, so the ID splits across the header: ID carries the
// low 32 bits, Label the high 32 (reinterpreted as uint32). TraceRequest
// and (*Frame).TraceID convert. The reply's Payload is the trace's
// Chrome-format JSON export.

// TraceRequest builds the KindTrace request frame for a 64-bit trace ID.
func TraceRequest(id uint64) *Frame {
	return &Frame{
		Kind:  KindTrace,
		ID:    uint32(id),
		Label: int32(uint32(id >> 32)),
	}
}

// TraceID reassembles the 64-bit trace ID a KindTrace frame addresses.
func (f *Frame) TraceID() uint64 {
	return uint64(uint32(f.Label))<<32 | uint64(f.ID)
}

// TraceReply answers KindTrace request id with a trace export. An export
// longer than MaxPayload is cut there, and Code carries StatusNoTrace to
// say so.
func TraceReply(id uint32, doc []byte) *Frame {
	f := &Frame{Kind: KindTrace, ID: id, Payload: doc}
	if len(doc) > MaxPayload {
		f.Code, f.Payload = StatusNoTrace, doc[:MaxPayload]
	}
	return f
}
