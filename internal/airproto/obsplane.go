package airproto

// Fleet observability additions to the wire protocol: a normalize bit on
// trace fetches, and a versioned stats vector that lets the router answer
// KindStats with fleet-level counters without breaking old probes.

// TraceFlagNormalize, set on a KindTrace REQUEST's Code field, asks the
// responder to export with deterministic normalized timestamps
// (trace.ExportOptions.Normalize) — the form CI gates diff byte-for-byte.
// Responders ignore unknown bits, so the flag is forward-compatible.
const TraceFlagNormalize uint8 = 1

// Stats vector versions, carried on a KindStats REPLY's Code field. Every
// reply starts with the StatsVectorLen legacy counters, and that prefix
// never changes: probes older than the version scheme (which see Code 0
// from pre-fleet servers) read it at the same indexes from every version.
// The fleet extension after it is versioned as a whole: a reader decodes
// the FleetStats slots only when the reply's Code is exactly
// StatsVersionFleet, and falls back to the legacy prefix otherwise.
// Version 3 dropped version 2's burn-rate slots and per-replica health
// tail, so the slot layout after FleetStatLive moved.
const (
	StatsVersionReplica uint8 = 1 // exactly the StatsVector counters: a replica's reply
	StatsVersionFleet   uint8 = 3 // fleet-wide sums, then the FleetStats slots: a router's
)

// FleetStats slots, appended after the legacy StatsVector in a
// StatsVersionFleet reply.
const (
	FleetStatLive       = StatsVectorLen + iota // live (routable) replica count
	FleetStatForwards                           // data frames the router forwarded
	FleetStatFailovers                          // forwards re-sent to another replica after a shed NACK
	FleetStatHedgedWins                         // requests won by a hedge (attempt > 0)
	FleetStatShed                               // requests shed by the router
	FleetStatExpired                            // requests whose deadline budget ran out at the router
	FleetStatP99Micros                          // p99 of the merged serve.request histogram, in µs
	FleetStatsVectorLen                         // the fleet reply's length
)
