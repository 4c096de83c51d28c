// Command e2ebench is the repository's end-to-end serving benchmark. It
// starts the shipped metaai-serve replicas (and, for the fleet workloads,
// the metaai-fleet router) on 127.0.0.1, drives them from this single
// client process with labelled 256-QAM mnist test frames over airproto,
// validates every reply, and prints the workload's metrics. Run it through
// run.sh, which builds the binaries from source first:
//
//	bash e2ebench/run.sh --workload fleet-burst --seed 3 --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics with every timer and tracer
// off. --trace 1 is the separate traced run: the servers get -metrics-addr,
// the client records spans, and after the load the layer calls of sampled
// requests are replayed in process; it prints the per-layer metrics and
// writes every span as Chrome JSON. README.md describes the workloads and
// every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	bin      string // directory holding metaai-serve and metaai-fleet
	out      string // run artefacts: state dirs, journals, Chrome JSON
}

// metric is one reported number. gated metrics form the machine-readable
// result line; every metric is printed in the table.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int // samples behind the value (0 when not a sample statistic)
	Gated bool
}

// report accumulates a run's metrics and correctness failures.
type report struct {
	metrics   []metric
	failures  []string
	attempted int
	failed    int
	notes     []string
}

func (r *report) add(name, unit string, v float64, n int, gated bool) {
	r.metrics = append(r.metrics, metric{name, unit, v, n, gated})
}

func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all (one after another)")
	fs.Uint64Var(&opt.seed, "seed", 1, "workload seed (request order, arrival schedule, publish timing)")
	fs.Float64Var(&opt.seconds, "seconds", 25, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
	fs.StringVar(&opt.bin, "bin", ".bench_build/bin", "directory holding the metaai-serve and metaai-fleet binaries")
	fs.StringVar(&opt.out, "out", ".bench_build/run", "directory for run artefacts (state dirs, journals, traces)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.traced = trace == 1
	names := []string{opt.workload}
	if opt.workload == "all" {
		names = workloadNames()
	}
	if _, ok := workloads[names[0]]; !ok || (trace != 0 && trace != 1) || opt.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (%s, or all), --trace 0|1 and --seconds > 0\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	// The client stays within two cores: the servers under test share the
	// machine with it.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}

	// A signal stops whichever workload is running, children included.
	var current atomic.Pointer[bench]
	stopSignals := make(chan os.Signal, 1)
	signal.Notify(stopSignals, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stopSignals
		if b := current.Load(); b != nil {
			b.stopAll()
		}
		os.Exit(1)
	}()
	code := 0
	for _, name := range names {
		opt.workload = name
		b := &bench{opt: opt, wl: workloads[name]}
		current.Store(b)
		if c := runWorkload(b, stdout); c != 0 {
			code = c
		}
	}
	return code
}

// runWorkload runs one workload, prints its report, and returns the exit
// code: non-zero when the run could not complete or a correctness check
// failed.
func runWorkload(b *bench, stdout io.Writer) int {
	rep, err := b.run()
	b.stopAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", b.opt.workload, err)
		return 1
	}
	printReport(stdout, b.opt, rep)
	if len(rep.failures) > 0 {
		for _, f := range rep.failures {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: correctness: %s\n", b.opt.workload, f)
		}
		return 1
	}
	return 0
}

// printReport prints every metric as a table, then the result line: the
// gated metrics of this mode as one JSON object.
func printReport(w io.Writer, opt options, rep *report) {
	mode := "untraced"
	if opt.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "e2ebench %s seed %d, %g s, %s\n", opt.workload, opt.seed, opt.seconds, mode)
	for _, n := range rep.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	gated := map[string]any{}
	for _, m := range rep.metrics {
		count := ""
		if m.N > 0 {
			count = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Fprintf(w, "  %-28s %14.4f %-8s%s\n", m.Name, m.Value, m.Unit, count)
		if m.Gated {
			gated[m.Name] = map[string]any{"value": jsonNumber(m.Value), "unit": m.Unit}
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   len(rep.failures) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   gated,
	})
	fmt.Fprintln(w, string(line))
}

// jsonNumber keeps a non-finite value from breaking the result line; such a
// value is also a correctness failure (see finish).
func jsonNumber(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

func workloadNames() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
