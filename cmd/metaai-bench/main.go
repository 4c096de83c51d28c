// Command metaai-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	metaai-bench -list
//	metaai-bench -exp table1
//	metaai-bench -exp all -scale full -seed 7
//
// Each experiment prints rows mirroring the corresponding paper artifact;
// DESIGN.md maps experiment ids to modules and EXPERIMENTS.md records
// paper-vs-measured values.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id to run, or \"all\"")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		scale   = flag.String("scale", "quick", "dataset scale: quick or full")
		seed    = flag.Uint64("seed", 1, "random seed")
		evalCap = flag.Int("evalcap", 200, "max test samples per accuracy evaluation (0 = all)")
		verbose = flag.Bool("v", false, "log progress")
		md      = flag.Bool("md", false, "emit GitHub-flavored markdown instead of aligned text")
		seeds   = flag.Int("seeds", 1, "run each experiment under this many consecutive seeds (variance check)")
		workers = flag.Int("workers", 1, "fan evaluations and sweep points across this many goroutines (1 = bit-exact serial)")
		sbench  = flag.Int("servebench", 0, "run this many observed serve-path inferences and emit a metric snapshot instead of an experiment")
		obsOut  = flag.String("obs-out", "BENCH_serve.json", "servebench output file")
		compare = flag.Bool("compare", false, "compare two servebench snapshots (args: old.json new.json); exit non-zero on gated p99 regression")
		regress = flag.Float64("regress", 0.10, "-compare relative p99 regression threshold (0.10 = 10%)")
		floorUs = flag.Float64("regress-floor-us", 50, "-compare absolute regression floor in µs; smaller deltas never fail the gate")
		traceGo = flag.String("tracedump", "", "run the fixed-seed traced pipeline and write normalized trace exports to this file (the tracegate workload)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "metaai-bench: -compare needs exactly two snapshot files: old.json new.json")
			os.Exit(2)
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1), *regress, *floorUs); err != nil {
			fmt.Fprintf(os.Stderr, "metaai-bench: compare: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *traceGo != "" {
		if err := runTraceDump(*traceGo, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "metaai-bench: tracedump: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *sbench > 0 {
		if err := runServeBench(*sbench, *obsOut, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "metaai-bench: servebench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *list {
		for _, id := range experiments.IDs() {
			r, _ := experiments.Lookup(id)
			fmt.Printf("%-15s %s\n", id, r.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "metaai-bench: pass -exp <id> or -list")
		flag.Usage()
		os.Exit(2)
	}
	sc := dataset.Quick
	switch *scale {
	case "quick":
	case "full":
		sc = dataset.Full
	default:
		fmt.Fprintf(os.Stderr, "metaai-bench: unknown scale %q (quick|full)\n", *scale)
		os.Exit(2)
	}
	if *seeds < 1 {
		*seeds = 1
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for s := 0; s < *seeds; s++ {
		ctx := experiments.NewCtx(sc, *seed+uint64(s))
		ctx.EvalCap = *evalCap
		ctx.Workers = *workers
		if *verbose {
			ctx.Log = os.Stderr
		}
		for _, id := range ids {
			start := time.Now()
			res, err := experiments.Run(id, ctx)
			if err != nil {
				fmt.Fprintf(os.Stderr, "metaai-bench: %s: %v\n", id, err)
				os.Exit(1)
			}
			if *seeds > 1 {
				res.Title += fmt.Sprintf(" [seed %d]", *seed+uint64(s))
			}
			if *md {
				if err := res.Markdown(os.Stdout); err != nil {
					fmt.Fprintf(os.Stderr, "metaai-bench: %v\n", err)
					os.Exit(1)
				}
			} else {
				res.Fprint(os.Stdout)
				fmt.Printf("  (%.1fs)\n\n", time.Since(start).Seconds())
			}
		}
	}
}
