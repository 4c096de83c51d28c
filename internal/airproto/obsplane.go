package airproto

// Fleet observability additions to the wire protocol: a normalize bit on
// trace fetches, and a versioned stats vector that lets the router answer
// KindStats with fleet-level counters without breaking old probes.

// TraceFlagNormalize, set on a KindTrace REQUEST's Code field, asks the
// responder to export with deterministic normalized timestamps
// (trace.ExportOptions.Normalize) — the form CI gates diff byte-for-byte.
// Responders ignore unknown bits, so the flag is forward-compatible.
const TraceFlagNormalize uint8 = 1

// Stats vector versions, carried on a KindStats REPLY's Code field. Probes
// older than the version scheme see Code 0 from pre-fleet servers and a
// Data vector of at least StatsVectorLen either way: versions only ever
// APPEND slots, so the legacy StatsVector indexes stay valid forever and
// an old probe reading a newer reply just ignores the tail.
const (
	// StatsVersionReplica: the reply carries exactly the StatsVector
	// counters — what a replica answers.
	StatsVersionReplica uint8 = 1
	// StatsVersionFleet: the reply carries the StatsVector counters
	// (fleet-wide sums), then the FleetStats slots, then one health-score
	// sample per live replica (sorted by replica name) — what a router
	// answers.
	StatsVersionFleet uint8 = 2
)

// FleetStats slots, appended after the legacy StatsVector in a
// StatsVersionFleet reply.
const (
	// FleetStatLive: live (routable) replica count.
	FleetStatLive = StatsVectorLen + iota
	// FleetStatReplicas: replicas with a reported health score — the number
	// of per-replica samples that follow FleetStatsVectorLen.
	FleetStatReplicas
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
	// FleetStatBurnFast and FleetStatBurnSlow: the router's fast- and
	// slow-window SLO error-budget burn rates.
	FleetStatBurnFast
	FleetStatBurnSlow
	// FleetStatsVectorLen is the fleet reply's fixed prefix length;
	// FleetStatReplicas health-score samples follow it.
	FleetStatsVectorLen
)
