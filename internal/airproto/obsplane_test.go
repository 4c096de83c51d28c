package airproto

import (
	"reflect"
	"testing"
)

func TestTraceContextRoundTrip(t *testing.T) {
	payload := []complex128{complex(1, 2), complex(3, 4), complex(5, 6)}
	f := &Frame{Kind: KindData, ID: 77, Label: 3, Data: payload, Trace: 0xdeadbeefcafef00d, ParentSpan: 0x0123456789abcdef}
	wire, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if wire[0] != KindDataTraced || len(wire) != HeaderLen+traceExtLen+8*len(payload) {
		t.Fatalf("traced frame went out as kind %d, %d bytes", wire[0], len(wire))
	}
	// The extension must not disturb the samples: past it, the bytes are
	// exactly the untraced frame's.
	plain, _ := (&Frame{Kind: KindData, ID: 77, Label: 3, Data: payload}).Marshal()
	if !reflect.DeepEqual(wire[1:HeaderLen], plain[1:HeaderLen]) || !reflect.DeepEqual(wire[HeaderLen+traceExtLen:], plain[HeaderLen:]) {
		t.Fatal("trace extension changed the header or the samples")
	}
	g, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if g.Kind != KindData || g.Trace != 0xdeadbeefcafef00d || g.ParentSpan != 0x0123456789abcdef || !reflect.DeepEqual(g.Data, payload) {
		t.Fatalf("traced frame came back as kind %d, trace %x, parent %x, data %v", g.Kind, g.Trace, g.ParentSpan, g.Data)
	}
}

func TestTraceContextRefusals(t *testing.T) {
	if _, err := (&Frame{Kind: KindStats, Trace: 1, ParentSpan: 2}).Marshal(); err == nil {
		t.Fatal("marshalled trace context on a non-data frame")
	}
	if _, err := (&Frame{Kind: KindData, ParentSpan: 2}).Marshal(); err == nil {
		t.Fatal("marshalled trace context with a zero trace ID")
	}
	// On the wire, a traced frame with trace ID 0 or an extension cut short
	// is malformed: Unmarshal refuses it, so the server NACKs instead of
	// serving it untraced or dropping it silently.
	wire, _ := (&Frame{Kind: KindData, ID: 5, Trace: 1, ParentSpan: 2}).Marshal()
	if _, err := Unmarshal(wire[:HeaderLen+traceExtLen-1]); err == nil {
		t.Fatal("accepted a traced frame cut inside its extension")
	}
	for i := HeaderLen; i < HeaderLen+8; i++ {
		wire[i] = 0
	}
	if _, err := Unmarshal(wire); err == nil {
		t.Fatal("accepted a traced frame with trace ID 0")
	}
}

// TestStatsForwardCompat pins the versioning contract: a reply from a
// NEWER build — more appended slots than this build knows about — still
// decodes cleanly, with every legacy StatsVector index intact. Appending
// is the only evolution the scheme allows precisely so this holds.
func TestStatsForwardCompat(t *testing.T) {
	// A hypothetical v3 reply: legacy counters, fleet slots, health
	// samples, plus three future slots this build has no names for.
	future := make([]complex128, FleetStatsVectorLen+2+3)
	legacy := []float64{101, 2, 3, 1, 1, 9, 4, 5}
	if len(legacy) != StatsVectorLen {
		t.Fatalf("test vector drifted: %d legacy slots", len(legacy))
	}
	for i, v := range legacy {
		future[i] = complex(v, 0)
	}
	future[FleetStatLive] = complex(2, 0)
	future[FleetStatReplicas] = complex(2, 0)
	f := &Frame{Kind: KindStats, Code: StatsVersionFleet + 1, ID: 9, Data: future}
	wire, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Unmarshal(wire)
	if err != nil {
		t.Fatalf("future stats reply failed to decode: %v", err)
	}
	// The legacy read every existing probe performs: bounds check against
	// StatsVectorLen, then indexed reads.
	if len(g.Data) < StatsVectorLen {
		t.Fatalf("future reply shorter than the legacy vector: %d", len(g.Data))
	}
	for i, want := range legacy {
		if got := real(g.Data[i]); got != want {
			t.Fatalf("legacy slot %d misindexed: got %g want %g", i, got, want)
		}
	}
	// A versioned reader sees an unknown version and falls back to the
	// highest prefix it understands — the fleet prefix is still intact.
	if g.Code <= StatsVersionFleet {
		t.Fatalf("test frame should carry a future version, got %d", g.Code)
	}
	if real(g.Data[FleetStatLive]) != 2 || real(g.Data[FleetStatReplicas]) != 2 {
		t.Fatal("fleet slots misindexed in future reply")
	}
}
