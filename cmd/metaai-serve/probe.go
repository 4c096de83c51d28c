package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"os"
	"sort"
	"time"

	"repro/internal/airproto"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/netchaos"
	"repro/internal/nn"
	"repro/internal/obs/trace"
	"repro/internal/rng"
)

// probeAttempts is how many times the probe sends its request before giving
// up. UDP drops and degraded-server NACKs are both expected in the wild;
// waits between attempts grow exponentially with jitter so a fleet of
// probes does not synchronize its retries against a recovering server.
const probeAttempts = 3

// probeBackoffBase caps the first retry delay; attempt k waits a FULL
// jitter delay uniform in [0, base·2^(k−1)) — unlike the old equal-jitter
// [0.5, 1.5)·base·2^(k−1), a full-jitter spread leaves no common floor for
// a shed wave's retry storm to synchronize on. The draw comes from a
// source derived from the probe seed and the request ID, so a fixed-seed
// probe run replays the exact same delays.
const probeBackoffBase = 100 * time.Millisecond

// probeConn is the connected-UDP surface the probe speaks — a bare
// *net.UDPConn, or a netchaos.Stream when -chaos-rate wraps the client
// side of the link.
type probeConn = netchaos.StreamConn

// probeOptions carries the probe-mode flags; runProbe dispatches on them.
type probeOptions struct {
	ds      string
	seed    uint64
	timeout time.Duration
	// budget, when positive, bounds each exchange end to end across all
	// retry attempts and backoff sleeps (see exchange).
	budget time.Duration
	// deadline, when positive, is stamped onto every data request as its
	// wire deadline budget: the server (and any router hop) drops the work
	// with StatusExpired once the budget runs out instead of answering late.
	deadline time.Duration
	// chaosRate, when positive, wraps the probe's socket with the
	// netchaos.Mix fault load at this severity, seeded by chaosSeed.
	chaosRate float64
	chaosSeed uint64
	stats     int
	jsonOut   bool
	traceID   string
}

func runProbe(addr string, opt probeOptions) error {
	if opt.timeout <= 0 {
		opt.timeout = 5 * time.Second
	}
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	udpConn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return err
	}
	var conn probeConn = udpConn
	if opt.chaosRate > 0 {
		conn = netchaos.WrapStream(udpConn, netchaos.Config{
			Seed:     opt.chaosSeed,
			Inbound:  netchaos.Mix(opt.chaosRate),
			Outbound: netchaos.Mix(opt.chaosRate),
		})
		log.Printf("probe: chaos armed on the client socket (mix severity %.2f, seed %d)", opt.chaosRate, opt.chaosSeed)
	}
	defer conn.Close()

	if opt.traceID != "" {
		// Trace fetch replaces classification: pull the retained span tree
		// for one request out of the server's ring, over the air.
		return fetchTrace(conn, opt.traceID, opt.timeout, opt.budget, rng.New(opt.seed^0x7ace))
	}

	cfg := core.DefaultConfig(opt.ds)
	cfg.Seed = opt.seed
	data := dataset.MustLoad(opt.ds, cfg.Scale, cfg.Seed)
	sample := data.Test[0]
	// Encode with the same pipeline encoder the server deployed.
	enc := nn.Encoder{Scheme: cfg.Scheme}
	symbols := enc.Encode(sample.X)

	req := &airproto.Frame{ID: 1, Label: int32(sample.Label), Data: symbols}
	req.SetDeadline(opt.deadline)
	resp, err := exchange(conn, req, opt.timeout, opt.budget, probeBackoffBase, probeAttempts, rng.New(opt.seed^0x9e0be))
	if err != nil {
		return fmt.Errorf("probe %s: %w", addr, err)
	}
	best, arg := -1.0, 0
	for r, v := range resp.Data {
		m := real(v)*real(v) + imag(v)*imag(v)
		if m > best {
			best, arg = m, r
		}
	}
	if !opt.jsonOut {
		fmt.Printf("probe: sample label %d classified as %d over the air\n", sample.Label, arg)
	}
	if opt.stats > 0 {
		return probeStats(conn, symbols, opt.stats, opt.timeout, opt.budget, opt.deadline, opt.jsonOut, rng.New(opt.seed^0x57a75))
	}
	if opt.jsonOut {
		return json.NewEncoder(os.Stdout).Encode(map[string]any{
			"label": sample.Label, "classified": arg,
		})
	}
	return nil
}

// fetchTrace asks the server for a retained trace by 64-bit hex ID (an
// airproto KindTrace exchange) and prints the Chrome trace-event JSON the
// reply carries. A StatusNoTrace NACK means the ring never retained — or
// has since evicted — that ID.
func fetchTrace(conn probeConn, idHex string, timeout, budget time.Duration, src *rng.Source) error {
	id, err := trace.ParseID(idHex)
	if err != nil {
		return fmt.Errorf("bad trace id %q: %w", idHex, err)
	}
	resp, err := exchange(conn, airproto.TraceRequest(uint64(id)), timeout, budget, probeBackoffBase, probeAttempts, src)
	if err != nil {
		return fmt.Errorf("trace fetch %s: %w", idHex, err)
	}
	if resp.Kind != airproto.KindTrace {
		return fmt.Errorf("malformed trace reply (kind %d)", resp.Kind)
	}
	if resp.Code == airproto.StatusNoTrace {
		// The full export did not fit one datagram: the server truncated at
		// airproto.MaxPayload. Say so on stderr; the (cut) JSON still goes out.
		log.Printf("probe: trace %s truncated to %d bytes by the wire format", idHex, len(resp.Payload))
	}
	fmt.Println(string(resp.Payload))
	return nil
}

// probeStats hammers the server with n sequential timed requests and reports
// client-side round-trip latency percentiles — a quick serving-latency read
// without attaching the observability sidecar. With jsonOut the same
// numbers (plus the server's own counters, when it speaks KindStats) go out
// as one machine-readable JSON object instead of prose.
func probeStats(conn probeConn, symbols []complex128, n int, timeout, budget, deadline time.Duration, jsonOut bool, src *rng.Source) error {
	lat := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		req := &airproto.Frame{ID: uint32(i + 2), Data: symbols}
		req.SetDeadline(deadline)
		start := time.Now()
		if _, err := exchange(conn, req, timeout, budget, probeBackoffBase, probeAttempts, src); err != nil {
			return fmt.Errorf("stats request %d/%d: %w", i+1, n, err)
		}
		lat = append(lat, time.Since(start))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(q float64) time.Duration {
		idx := int(q * float64(len(lat)-1))
		return lat[idx]
	}
	server, fleetStats, serverErr := serverStats(conn, uint32(n+2), timeout, budget, src)
	if jsonOut {
		out := map[string]any{
			"requests": n,
			"latency_seconds": map[string]float64{
				"min": lat[0].Seconds(),
				"p50": pct(0.50).Seconds(),
				"p90": pct(0.90).Seconds(),
				"p99": pct(0.99).Seconds(),
				"max": lat[len(lat)-1].Seconds(),
			},
		}
		if serverErr == nil {
			out["server"] = server
			if fleetStats != nil {
				out["fleet"] = fleetStats
			}
		} else {
			out["server_error"] = serverErr.Error()
		}
		return json.NewEncoder(os.Stdout).Encode(out)
	}
	fmt.Printf("probe stats: %d requests  min %v  p50 %v  p90 %v  p99 %v  max %v\n",
		n, lat[0].Round(time.Microsecond), pct(0.50).Round(time.Microsecond),
		pct(0.90).Round(time.Microsecond), pct(0.99).Round(time.Microsecond),
		lat[len(lat)-1].Round(time.Microsecond))
	if serverErr != nil {
		// Older servers don't speak KindStats; latency numbers still stand.
		log.Printf("probe: server stats unavailable: %v", serverErr)
	} else {
		fmt.Printf("server stats: served %d  heals %d  swaps %d  rollbacks %d  canary-rejects %d  epoch %d  shed %d  expired %d\n",
			server["served"], server["heals"], server["swaps"],
			server["rollbacks"], server["canary_rejects"], server["epoch_seq"],
			server["shed"], server["expired"])
		if fleetStats != nil {
			fmt.Printf("fleet stats: live %v  forwards %v  failovers %v  hedged-wins %v  shed %v  expired %v  p99 %vµs\n",
				fleetStats["live"], fleetStats["forwards"], fleetStats["failovers"],
				fleetStats["hedged_wins"], fleetStats["shed"], fleetStats["expired"],
				fleetStats["p99_micros"])
		}
	}
	return nil
}

// serverStats asks the server for its serving counters over the wire (an
// airproto KindStats exchange) — heal, rollback, and epoch visibility
// without attaching the HTTP sidecar. Only a router answering at this
// build's fleet version yields the fleet map (router counters and merged
// p99); every version yields the legacy counters.
func serverStats(conn probeConn, id uint32, timeout, budget time.Duration, src *rng.Source) (map[string]int64, map[string]any, error) {
	resp, err := exchange(conn, &airproto.Frame{Kind: airproto.KindStats, ID: id}, timeout, budget, probeBackoffBase, probeAttempts, src)
	if err != nil {
		return nil, nil, err
	}
	s, err := airproto.DecodeStats(resp)
	if err != nil {
		return nil, nil, err
	}
	legacy := map[string]int64{"served": s.Served, "heals": s.Heals, "swaps": s.Swaps,
		"rollbacks": s.Rollbacks, "canary_rejects": s.CanaryRejects, "epoch_seq": s.EpochSeq,
		"shed": s.Shed, "expired": s.Expired}
	if f := s.Fleet; f != nil {
		return legacy, map[string]any{"live": f.Live, "forwards": f.Forwards, "failovers": f.Failovers,
			"hedged_wins": f.HedgedWins, "shed": f.Shed, "expired": f.Expired, "p99_micros": f.P99Micros}, nil
	}
	return legacy, nil, nil
}

// exchange sends req and waits for THE MATCHING response: a reply whose ID
// differs from the request's — a delayed answer to an earlier attempt, or a
// stray datagram — is discarded and the read continues within the same
// deadline, so it can never be mistaken for this attempt's answer. NACKs
// are interpreted per status code: StatusDegraded is retryable (the server
// is shedding load or healing — back off and try again), StatusRetryAfter
// is retryable but floors the next backoff at the server's hint (the
// brownout told us exactly how long it wants us gone), and StatusExpired is
// retryable with a fresh deadline budget (the old one died in a queue, not
// the request itself); StatusWrongLen, StatusNoTrace, and StatusBadFrame
// mean the request itself cannot succeed and retrying won't help. Each
// attempt after the first is preceded by a FULL-jitter exponential backoff
// delay — uniform in [0, base·2^(k−1)), drawn from a source derived from
// the caller's seed and the request ID so replays are exact — and counted
// in probe.retries.
//
// budget, when positive, is an overall deadline across ALL attempts and the
// backoff sleeps between them: per-attempt timeouts bound one wait, the
// budget bounds the whole exchange, so a caller with a latency contract is
// never held for attempts × timeout plus the sleeps. A per-attempt read is
// clipped to the remaining budget, and an exchange that runs out — either
// before an attempt can start or because the next backoff would sleep
// through everything that is left — fails with a budget error, counted in
// probe.budget_exhausted separately from the per-attempt timeouts it
// subsumes. Zero disables the budget and preserves the retry-until-spent
// behavior.
//
// Before every send, any datagrams already buffered on the socket are
// drained. readMatching must accept zero-ID NACKs (an unparseable request
// cannot be named by its rejection), so a zero-ID NACK left over from an
// EARLIER request would otherwise be read as this request's answer and turn
// a perfectly good exchange into a spurious hard failure.
func exchange(conn probeConn, req *airproto.Frame, timeout, budget, backoffBase time.Duration, attempts int, src *rng.Source) (*airproto.Frame, error) {
	out, err := req.Marshal()
	if err != nil {
		return nil, err
	}
	if attempts < 1 {
		attempts = 1
	}
	// The jitter stream mixes the request ID into the caller's seed: many
	// probes sharing a seed base still spread their retries, and a replay
	// of one probe run reproduces every delay exactly.
	jsrc := rng.New(src.Uint64() ^ uint64(req.ID)*0x9e3779b97f4a7c15)
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	var lastErr error
	var retryFloor time.Duration // latest StatusRetryAfter hint, floors the next backoff
	for attempt := 1; attempt <= attempts; attempt++ {
		wait := timeout
		if budget > 0 {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				probeBudgetExhausted.Inc()
				return nil, fmt.Errorf("probe budget %v exhausted after %d attempts: %v", budget, attempt-1, lastErr)
			}
			if remaining < wait {
				wait = remaining
			}
		}
		drainStale(conn)
		if _, err := conn.Write(out); err != nil {
			return nil, err
		}
		if err := conn.SetReadDeadline(time.Now().Add(wait)); err != nil {
			return nil, err
		}
		resp, err := readMatching(conn, req.ID)
		switch {
		case err != nil:
			ne, ok := err.(net.Error)
			if !ok || !ne.Timeout() {
				return nil, err
			}
			lastErr = fmt.Errorf("no response within %v", wait)
		case resp.IsNack():
			switch resp.Code {
			case airproto.StatusDegraded:
				lastErr = fmt.Errorf("server degraded, asked to back off")
			case airproto.StatusRetryAfter:
				retryFloor = resp.RetryAfterHint()
				lastErr = fmt.Errorf("server browning out, asked to retry after %v", retryFloor)
			case airproto.StatusExpired:
				lastErr = fmt.Errorf("deadline budget expired in the server's queue (%d ms late)", resp.Label)
			case airproto.StatusWrongLen:
				return nil, fmt.Errorf("server rejected frame: deployed for U=%d symbols, sent %d", resp.Label, len(req.Data))
			case airproto.StatusNoTrace:
				return nil, fmt.Errorf("server retains no such trace (sampled out, evicted, or never recorded)")
			default:
				return nil, fmt.Errorf("server rejected frame as malformed (status %d)", resp.Code)
			}
		default:
			return resp, nil
		}
		// The backoff sleeps only BETWEEN attempts: once the final attempt
		// has failed there is nothing left to wait for, and the caller gets
		// the verdict immediately.
		if attempt < attempts {
			// Full jitter: uniform in [0, cap) with cap doubling per attempt.
			// No deterministic floor means no instant for a retry storm to
			// re-synchronize on; a brownout hint reinstates a floor on
			// purpose — the server named its price.
			delay := time.Duration(jsrc.Float64() * float64(backoffBase) * float64(int(1)<<(attempt-1)))
			if delay < retryFloor {
				delay = retryFloor
			}
			retryFloor = 0
			if budget > 0 && time.Now().Add(delay).After(deadline) {
				// The backoff would sleep through the rest of the budget, so
				// the next attempt could never be answered: fail now and
				// return the remaining time to the caller.
				probeBudgetExhausted.Inc()
				return nil, fmt.Errorf("probe budget %v exhausted after %d attempts: %v", budget, attempt, lastErr)
			}
			probeRetries.Inc()
			log.Printf("probe: attempt %d/%d failed (%v), retrying in %v", attempt, attempts, lastErr, delay.Round(time.Millisecond))
			time.Sleep(delay)
		}
	}
	return nil, fmt.Errorf("gave up after %d attempts: %v", attempts, lastErr)
}

// drainStale discards every datagram already buffered on conn: delayed
// replies and zero-ID NACKs from previous exchanges that readMatching would
// otherwise accept as the next request's answer. The deadline must sit
// slightly in the future — a read against an already-expired deadline fails
// immediately WITHOUT consuming buffered data — so an empty buffer costs one
// millisecond, and each stale datagram is consumed without waiting. Drained
// datagrams that parse as NACKs count in probe.stale_nacks: a rising count
// reveals replies arriving after their exchange gave up on them.
func drainStale(conn probeConn) {
	if err := conn.SetReadDeadline(time.Now().Add(time.Millisecond)); err != nil {
		return
	}
	buf := make([]byte, 65535)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return
		}
		if f, err := airproto.Unmarshal(buf[:n]); err == nil && f.IsNack() {
			probeStaleNacks.Inc()
		}
	}
}

// readMatching reads frames until one carries the wanted request ID,
// discarding unparseable datagrams and mismatched IDs. A NACK with ID 0 is
// also accepted: the server could not parse the offending request, so the
// rejection cannot name it. The caller's read deadline bounds the loop.
func readMatching(conn probeConn, id uint32) (*airproto.Frame, error) {
	buf := make([]byte, 65535)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return nil, err
		}
		resp, err := airproto.Unmarshal(buf[:n])
		if err != nil {
			continue // garbage datagram: keep reading until the deadline
		}
		if resp.ID != id && !(resp.IsNack() && resp.ID == 0) {
			continue // delayed reply to an earlier attempt: not our answer
		}
		return resp, nil
	}
}
