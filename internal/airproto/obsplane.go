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
const (
	// StatsVersionReplica: the reply carries exactly the StatsVector
	// counters — what a replica answers.
	StatsVersionReplica uint8 = 1
	// StatsVersionFleet: the reply carries the StatsVector counters
	// (fleet-wide sums), then exactly FleetStatsVectorLen-StatsVectorLen
	// FleetStats slots — what a router answers. Version 3 dropped version
	// 2's burn-rate slots and per-replica health tail, so the slot layout
	// after FleetStatLive moved.
	StatsVersionFleet uint8 = 3
)

// FleetStats slots, appended after the legacy StatsVector in a
// StatsVersionFleet reply.
const (
	// FleetStatLive: live (routable) replica count.
	FleetStatLive = StatsVectorLen + iota
	// FleetStatForwards: data frames the router forwarded.
	FleetStatForwards
	// FleetStatFailovers: forwards re-sent to another replica after an
	// explicit NACK or timeout.
	FleetStatFailovers
	// FleetStatHedgedWins: requests won by a hedge (attempt > 0).
	FleetStatHedgedWins
	// FleetStatShed: requests shed by router admission.
	FleetStatShed
	// FleetStatExpired: requests whose deadline budget ran out at the
	// router.
	FleetStatExpired
	// FleetStatP99Micros: fleet-wide p99 of the merged serve.request
	// latency histogram, in microseconds.
	FleetStatP99Micros
	// FleetStatsVectorLen is the fleet reply's length.
	FleetStatsVectorLen
)
