package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/airproto"
	"repro/internal/obs"
)

// topo is one launched topology.
type topo struct {
	replicas []*proc
	router   *proc
	raddrs   []*net.UDPAddr
	entry    *net.UDPAddr
	sidecars []string // replica sidecars, then the router's (traced runs)
	state1   string   // replica 1's journal (fleet-publish)
	pubDir   string   // the journal the router watches (fleet-publish)
}

func (t *topo) procs() []*proc {
	if t.router != nil {
		return append(append([]*proc{}, t.replicas...), t.router)
	}
	return t.replicas
}

// launch starts one topology's processes without waiting for them.
func (b *bench) launch(traced bool) (*topo, error) {
	t := &topo{}
	for i, addr := range b.names {
		args := []string{"-dataset", "mnist", "-batch", "8", "-addr", addr}
		if b.wl.publish {
			dir := filepath.Join(b.opt.out, fmt.Sprintf("state-%d", i+1))
			if err := os.RemoveAll(dir); err != nil {
				return t, err
			}
			args = append(args, "-state-dir", dir)
			if i == 0 {
				t.state1 = dir
			}
		}
		if traced {
			sc := fmt.Sprintf("127.0.0.1:%d", b.sidecarPorts[i])
			args = append(args, "-metrics-addr", sc)
			t.sidecars = append(t.sidecars, sc)
		}
		name := fmt.Sprintf("replica-%d", i+1)
		p, err := startProc(name, filepath.Join(b.opt.bin, "metaai-serve"), args, filepath.Join(b.opt.out, name+".log"))
		if err != nil {
			return t, err
		}
		b.track(p)
		t.replicas = append(t.replicas, p)
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return t, err
		}
		t.raddrs = append(t.raddrs, ua)
	}
	t.entry = t.raddrs[0]
	if !b.wl.fleet {
		return t, nil
	}
	args := []string{"-addr", b.routerAddr, "-replicas", strings.Join(b.names, ",")}
	if b.wl.publish {
		t.pubDir = filepath.Join(b.opt.out, "publish")
		if err := os.RemoveAll(t.pubDir); err != nil {
			return t, err
		}
		if err := os.MkdirAll(t.pubDir, 0o755); err != nil {
			return t, err
		}
		args = append(args, "-publish", t.pubDir, "-publish-every", publishEvery)
	}
	if traced {
		sc := fmt.Sprintf("127.0.0.1:%d", b.sidecarPorts[len(b.names)])
		args = append(args, "-metrics-addr", sc)
		t.sidecars = append(t.sidecars, sc)
	}
	p, err := startProc("router", filepath.Join(b.opt.bin, "metaai-fleet"), args, filepath.Join(b.opt.out, "router.log"))
	if err != nil {
		return t, err
	}
	b.track(p)
	t.router = p
	if t.entry, err = net.ResolveUDPAddr("udp", b.routerAddr); err != nil {
		return t, err
	}
	return t, nil
}

// down stops a topology's processes, router first.
func (b *bench) down(t *topo) {
	if t == nil {
		return
	}
	ps := t.procs()
	for i := len(ps) - 1; i >= 0; i-- {
		ps[i].stop()
	}
	b.mu.Lock()
	kept := b.live[:0]
	for _, p := range b.live {
		if p.alive() {
			kept = append(kept, p)
		}
	}
	b.live = kept
	b.mu.Unlock()
}

// up launches a topology and returns once it serves: every replica has
// logged that it listens and every client socket has had a data reply
// through the entry address; on the fleet workloads the router must also
// report every replica live. The duration is setup_s: process launch to
// serving, including each replica's cold start (dataset, training, MTS
// solve) and the router's view of the replicas.
func (b *bench) up(traced bool, cl *client) (*topo, time.Duration, error) {
	t0 := time.Now()
	t, err := b.launch(traced)
	if err != nil {
		return t, 0, err
	}
	for _, p := range t.replicas {
		if err := p.waitReady("air service listening on", readyTimeout); err != nil {
			return t, 0, err
		}
	}
	if t.router != nil {
		if err := t.router.waitReady("fleet router on", readyTimeout); err != nil {
			return t, 0, err
		}
	}
	probe, err := airproto.Unmarshal(b.ref.corpus.frames[0]) // test sample 0's request
	if err != nil {
		return t, 0, err
	}
	answered := make([]bool, len(cl.socks))
	deadline := time.Now().Add(upTimeout)
	for {
		done := true
		for i := range answered {
			if !answered[i] {
				f, err := cl.call(i, t.entry, probe, 50*time.Millisecond)
				answered[i] = err == nil && !f.IsNack()
				if answered[i] {
					if _, err := checkReply(f, b.ref.corpus.labels[0], b.ref.corpus.classes); err != nil {
						return t, 0, fmt.Errorf("set-up probe: %w", err)
					}
				}
			}
			done = done && answered[i]
		}
		if done && b.wl.fleet {
			rs, err := routerStatsOf(cl, t)
			done = err == nil && int(rs.live) == len(t.replicas)
		}
		if done {
			return t, time.Since(t0), nil
		}
		if time.Now().After(deadline) {
			return t, 0, fmt.Errorf("not serving %v after the processes listened", upTimeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// serverStats is one replica's KindStats counters.
type serverStats struct{ served, swaps, shed float64 }

func (s serverStats) minus(o serverStats) serverStats {
	return serverStats{s.served - o.served, s.swaps - o.swaps, s.shed - o.shed}
}

// routerStats is the router's KindStats view.
type routerStats struct{ live, forwards, failovers, hedged, shed float64 }

func (s routerStats) minus(o routerStats) routerStats {
	return routerStats{s.live, s.forwards - o.forwards, s.failovers - o.failovers, s.hedged - o.hedged, s.shed - o.shed}
}

var statsReq = func() *airproto.Frame { return &airproto.Frame{Kind: airproto.KindStats} }

func replicaStatsOf(cl *client, t *topo) ([]serverStats, error) {
	out := make([]serverStats, len(t.raddrs))
	for i, a := range t.raddrs {
		f, err := cl.call(i%len(cl.socks), a, statsReq(), 500*time.Millisecond)
		if err != nil {
			return nil, fmt.Errorf("stats of replica %d: %w", i+1, err)
		}
		if f.Kind != airproto.KindStats || len(f.Data) < airproto.StatsVectorLen {
			return nil, fmt.Errorf("stats of replica %d: kind %d with %d slots", i+1, f.Kind, len(f.Data))
		}
		out[i] = serverStats{real(f.Data[airproto.StatServed]), real(f.Data[airproto.StatSwaps]), real(f.Data[airproto.StatShed])}
	}
	return out, nil
}

func routerStatsOf(cl *client, t *topo) (routerStats, error) {
	f, err := cl.call(0, t.entry, statsReq(), 500*time.Millisecond)
	if err != nil {
		return routerStats{}, fmt.Errorf("router stats: %w", err)
	}
	if f.Kind != airproto.KindStats || len(f.Data) < airproto.FleetStatsVectorLen {
		return routerStats{}, fmt.Errorf("router stats: kind %d with %d slots", f.Kind, len(f.Data))
	}
	v := func(i int) float64 { return real(f.Data[i]) }
	return routerStats{v(airproto.FleetStatLive), v(airproto.FleetStatForwards), v(airproto.FleetStatFailovers),
		v(airproto.FleetStatHedgedWins), v(airproto.FleetStatShed)}, nil
}

// newClient opens the client: one plain socket for the closed loop, or one
// socket per replica, split across the ring, for the open loop.
func (b *bench) newClient() (*client, error) {
	if !b.wl.fleet {
		s, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, err
		}
		return newClient([]*net.UDPConn{s}, b.ref.corpus, true), nil
	}
	socks, err := bindSplit(b.names)
	if err != nil {
		return nil, err
	}
	return newClient(socks, b.ref.corpus, false), nil
}

// snapshotHist merges one histogram from several sidecars.
func snapshotHist(addrs []string, name string) (obs.HistogramSnapshot, error) {
	var snaps []obs.Snapshot
	for _, a := range addrs {
		s, err := fetchSnapshot(a)
		if err != nil {
			return obs.HistogramSnapshot{}, err
		}
		snaps = append(snaps, s)
	}
	return obs.MergeSnapshots(snaps...).Histograms[name], nil
}
