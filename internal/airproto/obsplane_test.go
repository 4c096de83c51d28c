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

// TestStatsForwardCompat pins the versioning contract. The legacy
// StatsVector prefix never changes: a reply from another build (an older
// router's version 2 layout, or a newer version with slots this build has
// no names for) decodes cleanly with every legacy index intact. The fleet
// extension after the prefix is versioned as a whole, so such a reply
// carries a Code other than StatsVersionFleet, and a versioned reader
// falls back to the legacy prefix instead of reading the other layout's
// slots under this build's names.
func TestStatsForwardCompat(t *testing.T) {
	legacy := []float64{101, 2, 3, 1, 1, 9, 4, 5}
	if len(legacy) != StatsVectorLen {
		t.Fatalf("test vector drifted: %d legacy slots", len(legacy))
	}
	// Version 2 appended ten fleet slots (live, replicas, forwards,
	// failovers, hedged wins, shed, expired, p99, fast and slow burn) and
	// one health sample per live replica; here two replicas. The future
	// version appends three slots past this build's fleet layout.
	for _, other := range []struct {
		version uint8
		slots   int
	}{{2, StatsVectorLen + 10 + 2}, {StatsVersionFleet + 1, FleetStatsVectorLen + 3}} {
		data := make([]complex128, other.slots)
		for i, v := range legacy {
			data[i] = complex(v, 0)
		}
		for i := StatsVectorLen; i < len(data); i++ {
			data[i] = complex(float64(1000+i), 0)
		}
		wire, err := (&Frame{Kind: KindStats, Code: other.version, ID: 9, Data: data}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		g, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("version %d stats reply failed to decode: %v", other.version, err)
		}
		// The legacy read every probe performs: bounds check against
		// StatsVectorLen, then indexed reads.
		if len(g.Data) < StatsVectorLen {
			t.Fatalf("version %d reply shorter than the legacy vector: %d", other.version, len(g.Data))
		}
		for i, want := range legacy {
			if got := real(g.Data[i]); got != want {
				t.Fatalf("version %d: legacy slot %d misindexed: got %g want %g", other.version, i, got, want)
			}
		}
		if g.Code == StatsVersionFleet {
			t.Fatalf("a version %d layout decodes as this build's fleet version", other.version)
		}
		if s, err := DecodeStats(g); err != nil || s.Served != 101 || s.Expired != 5 || s.Fleet != nil {
			t.Fatalf("version %d: DecodeStats gave %+v, %v; want the legacy counters and no fleet part", other.version, s, err)
		}
	}
}

// TestStatsReplyLayout: StatsReply writes each counter at its StatsVector
// or FleetStats slot, and DecodeStats reads back what it wrote, through
// the wire, for a replica's reply and a router's.
func TestStatsReplyLayout(t *testing.T) {
	replica := &Stats{Served: 101, Heals: 2, Swaps: 3, Rollbacks: 1, CanaryRejects: 1, EpochSeq: 9, Shed: 4, Expired: 5}
	fleet := *replica
	fleet.Fleet = &FleetStats{Live: 2, Forwards: 7, Failovers: 1, HedgedWins: 3, Shed: 6, Expired: 8, P99Micros: 412.5}
	for _, s := range []*Stats{replica, &fleet} {
		f := StatsReply(42, s)
		if real(f.Data[StatServed]) != 101 || real(f.Data[StatEpochSeq]) != 9 || real(f.Data[StatExpired]) != 5 {
			t.Fatalf("legacy slots misplaced: %v", f.Data)
		}
		if s.Fleet != nil && (f.Code != StatsVersionFleet || len(f.Data) != FleetStatsVectorLen ||
			real(f.Data[FleetStatForwards]) != 7 || real(f.Data[FleetStatP99Micros]) != 412.5) {
			t.Fatalf("fleet reply came out as version %d: %v", f.Code, f.Data)
		}
		wire, err := f.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		g, err := Unmarshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeStats(g)
		if err != nil || g.ID != 42 || !reflect.DeepEqual(got, s) {
			t.Fatalf("decoded %+v (%v), want %+v", got, err, s)
		}
	}
	if _, err := DecodeStats(&Frame{Kind: KindStats, Data: make([]complex128, StatsVectorLen-1)}); err == nil {
		t.Fatal("decoded a stats reply shorter than the legacy vector")
	}
}
