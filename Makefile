GO ?= go

.PHONY: build test e2echeck race vet fmt benchsmoke fuzz ckptfuzz faultgate recovergate obsgate benchgate tracegate stitchgate cascadegate fleetbench fleetgate chaossoak chaosgate check bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# e2echeck vets and tests e2ebench/, the benchmark's own Go module. It
# imports airproto, fleet and checkpoint, so `go test ./...` at the root
# never builds it and an API change there would break the benchmark unseen.
e2echeck:
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

# vet also type-checks the tree for arm64, which builds the portable Go
# kernels of internal/cplx in place of its amd64 assembly (the amd64 run
# checks the assembly's frames).
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# fmt fails when gofmt would rewrite any Go file.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# benchsmoke runs every Go micro-benchmark under internal/ and cmd/ once, so
# a benchmark that panics or no longer builds fails CI, plus the root
# package's BenchmarkColdStart, the replica cold start the set-up numbers
# cite. The root package's experiment benchmarks (about 33 s) are left to
# `make bench`.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/... ./cmd/...
	$(GO) test -run '^$$' -bench 'BenchmarkColdStart$$' -benchtime 1x .

# fuzz smokes the wire-protocol decoder for 10s beyond its seeded corpus.
fuzz:
	$(GO) test -fuzz=FuzzUnmarshal -fuzztime=10s -run='^$$' ./internal/airproto

# ckptfuzz smokes the checkpoint decoder for 10s: any input either fails
# with a typed error or decodes to a value that re-encodes byte-identically.
ckptfuzz:
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s -run='^$$' ./internal/checkpoint

# faultgate runs a tiny abl-faults sweep; the runner errors out (non-zero
# exit) if the zero-fault-rate point is not bit-identical to the unfaulted
# baseline.
faultgate:
	$(GO) run ./cmd/metaai-bench -exp abl-faults -evalcap 40

# recovergate is the crash-recovery acceptance gate, under -race: journal a
# served epoch, kill without ceremony, corrupt the newest entry, and recover
# the previous epoch with bit-identical accumulators and zero re-solves; and
# a replica's own start path (buildServerConfig), which recovers a cold
# start's journaled epoch with the journaled monitor thresholds, the same
# canary probes, and no stuck atoms sampled twice.
recovergate:
	$(GO) test -race -count=1 -run 'TestKillAndRecoverBitIdentity|TestRecoverSkipsCorruptEpochs|TestBuildServerConfigColdThenRecover' ./cmd/metaai-serve

# obsgate asserts observability determinism: two seeded serve-path runs
# must produce bit-identical metric fingerprints.
obsgate:
	$(GO) test -run 'TestServeBenchDeterministicFingerprint' ./cmd/metaai-bench

# benchgate wires the p99 regression comparator into CI: unit tests prove it
# trips on real regressions and stays quiet under the relative threshold or
# the absolute µs floor, then one fresh servebench snapshot (sequential,
# batched, and cascade tiers) is self-compared through the CLI path (a
# self-compare must always exit 0; comparing two live runs would flake on
# loaded CI machines, which is exactly the noise the floor exists to reject
# when a human runs -compare old vs new). The zero-alloc steady-state tests
# are the alloc-regression half of the gate: any allocation creeping into
# the batched serving hot path, or into the per-sample LNN training step
# every replica cold start runs, fails them deterministically, without
# depending on wall-clock benchmark numbers. The cold start's deployment
# hash is pinned at GOMAXPROCS 1 (no fan-out), 2 and 4 (oversubscribed):
# drawing training epochs ahead and fanning out the beam scan and the
# schedule solves must not change a served bit.
benchgate:
	$(GO) test -run 'TestCompare' ./cmd/metaai-bench
	$(GO) test -count=1 -run 'TestAccumulateSteadyStateZeroAlloc' ./internal/ota
	$(GO) test -count=1 -run 'TestWorkerBatchSteadyStateZeroAlloc' ./cmd/metaai-serve
	$(GO) test -count=1 -run 'TestTrainLNNStepZeroAlloc' ./internal/nn
	$(GO) test -count=1 -cpu 1,2,4 -run 'TestColdStartDeploymentHash' ./internal/core
	$(GO) run ./cmd/metaai-bench -servebench 100 -obs-out .benchgate.json
	$(GO) run ./cmd/metaai-bench -compare .benchgate.json .benchgate.json
	rm -f .benchgate.json

# tracegate asserts trace determinism: a fixed-seed traced pipeline run
# (train -> schedule solve -> deploy -> 4 inferences, sample=1) must produce
# byte-identical NORMALIZED trace exports across two process runs — trace
# and span IDs derive from seeds and ordinals, never from wall clocks or rng
# draws, and normalization strips the timestamps.
tracegate:
	$(GO) run ./cmd/metaai-bench -tracedump .tracegate.a.json
	$(GO) run ./cmd/metaai-bench -tracedump .tracegate.b.json
	cmp .tracegate.a.json .tracegate.b.json
	rm -f .tracegate.a.json .tracegate.b.json

# stitchgate is tracegate's fleet-wide counterpart, under -race: a client
# request hedged across two replicas through a real router must stitch into
# ONE normalized Chrome-JSON document at the router (root + both hops, the
# loser cancelled, each replica's serve.request parented under its hop),
# byte-identical across fetches — and the router's KindStats/KindTrace
# control plane must keep answering through packet chaos while the data
# plane is saturated past the inflight cap.
stitchgate:
	$(GO) test -race -count=1 -run 'TestFleetStitchedTraceEndToEnd|TestRouterControlPlaneSurvivesChaosAndSaturation' ./cmd/metaai-serve

# cascadegate is the stacked-cascade compatibility gate: a K=1 deployment
# must stay provably bit-identical to the classic single-surface path
# (solver and deployment level), a restore must re-derive every field of
# the deployment it snapshots, across option sets and a 3-layer cascade
# (the constructors and FromState share one derivation), single-surface
# checkpoints must keep
# sealing at format version 1 byte-compatible with every pre-cascade build
# while cascade state round-trips bit-identically at version 2, and a
# journaled cascade epoch must recover bit-identically across a kill.
cascadegate:
	$(GO) test -count=1 -run 'TestCascadeK1BitIdentity|TestStateRestoreMatchesInternals' ./internal/mts ./internal/ota
	$(GO) test -count=1 -run 'TestCascadeStateSealsVersion2|TestCascadeDeploymentRoundtripBitIdentity|TestJournalRecoverSkipsCorruptCascade' ./internal/checkpoint
	$(GO) test -count=1 -run 'TestKillAndRecoverCascadeBitIdentity' ./cmd/metaai-serve

# fleetbench is the fleet acceptance bench, under -race: three replicas
# behind the router take sustained client load through a fleet-wide epoch
# replication, a canary-rejected sabotage with fleet-wide rollback, a
# replica kill mid-publish with hedged failover, and a cold replacement
# caught up by anti-entropy — asserting zero request loss and convergence
# on the latest valid epoch throughout.
fleetbench:
	$(GO) test -race -count=1 -run 'TestFleetBench' -v ./cmd/metaai-serve

# fleetgate is the CI smoke of the same episode (-short trims the load) —
# every failure mode still fires, in about two seconds — plus, under -race,
# a replica's default queue holding a stall's burst of 100 requests
# (TestDefaultQueueHoldsAStallBurst); the router's forward pins: failover
# on an explicit NACK, a hedged slow primary, StatusExpired on a dead
# budget, StatusDegraded once every replica NACKs, replicas still routable
# after both NACK a burst (TestForwardKeepsReplicasRoutableAfterNackBurst),
# exactly one answer per request when replicas reply twice, and exactly one
# answer when an in-memory upstream delivers each reply inside its
# attempt's write (once, twice, or before the write fails); the pin that a
# reply reaches only the call or forward it answers; the failure detector,
# which probes an evicted member every ProbeMax; the agent's replication
# rules, among them a catch-up re-applying a transfer the agent moved off
# (TestAgentCatchUpReappliesMovedOffTransfer) and a dead incarnation's
# partial push not refusing the next incarnation's transfer of the same ID
# (TestAgentDeadIncarnationPartialPushDoesNotRefuseNext); all 256 seeds of
# the sweep, which drives the router's core in virtual time with real
# agents over a chaos network, asserting one answer per request, the fleet
# as each publication's verdict returns (routed members hold what the
# router records, none holds a refused transfer), convergence after every
# publication and at the end with no catch-up after it, no fall below a
# committed version, and applied epochs that were published; and the
# determinism check (TestFleetSeedReplay), which runs a sample of seeds
# twice and requires identical datagram logs.
fleetgate:
	$(GO) test -race -count=1 -run 'TestFleetBench|TestDefaultQueueHoldsAStallBurst' -short ./cmd/metaai-serve
	$(GO) test -race -count=1 -run 'TestForward|TestCallMatchesSenderAndKind|TestDetector|TestAgent|TestFleetSeedSweep|TestFleetSeedReplay' ./internal/fleet

# chaossoak is the full bad-network acceptance soak, under -race: three
# chaos-wrapped replicas and a chaos-wrapped router take sustained
# deadline-stamped client load through 10% drop/dup/delay/corrupt on every
# link, an epoch replication pushed through the fault load, a transient
# one-way partition, and a coordinator kill/restart that rejoins from its
# journaled pubSeq + membership — asserting zero accepted-request loss,
# fleet convergence on the latest valid epoch, and a ≥90% goodput floor.
chaossoak:
	$(GO) test -race -count=1 -run 'TestChaosGate' -v ./cmd/metaai-serve

# chaosgate is the CI smoke of the same episode (-short trims the load),
# plus the netchaos zero-rate identity gate: a chaos layer with all rates
# zero must hand every packet through byte-identical, consuming no
# randomness — mirroring the faults-layer zero-rate gate.
chaosgate:
	$(GO) test -count=1 -run 'TestZeroRateBitIdentity|TestZeroRateLanePassthrough' ./internal/netchaos
	$(GO) test -race -count=1 -run 'TestChaosGate' -short ./cmd/metaai-serve

# check is the full gate: vet (amd64 and arm64), gofmt, plain tests, the
# benchmark module's vet and tests, the race detector over the concurrent
# evaluator, sweeps, and serve paths, one run of each micro-benchmark, the
# airproto and checkpoint fuzz
# smokes, the abl-faults zero-rate identity gate, the crash-recovery gate,
# the cascade K=1 compatibility gate, the fleet failover/replication smoke,
# the bad-network chaos soak smoke, and the obs/bench/trace/stitch
# determinism gates.
check: vet fmt test e2echeck race benchsmoke fuzz ckptfuzz faultgate recovergate cascadegate fleetgate chaosgate obsgate benchgate tracegate stitchgate

# bench runs the Go micro-benchmarks, then the serve-path observability
# benchmark, which snapshots its metrics into BENCH_serve.json. Emit-only:
# no CI threshold reads the file — it exists so regressions show up in
# diffs. 2000 inferences keep the µs-per-inference tiers out of the
# warmup-noise regime (at 200, total wall time is ~1 ms and page faults
# dominate).
bench:
	$(GO) test -bench=. -benchtime=1x -benchmem ./...
	$(GO) run ./cmd/metaai-bench -servebench 2000 -obs-out BENCH_serve.json
