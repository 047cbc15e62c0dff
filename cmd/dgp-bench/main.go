// Command dgp-bench regenerates the experiment tables documented in
// DESIGN.md and EXPERIMENTS.md: every quantitative claim in "Distributed
// Graph Algorithms with Predictions" (lemma and corollary bounds, figure
// constructions, the Section 10 randomized example) as a text table, plus
// the engine, shard, chaos and dynamic-session sweeps of internal/bench.
//
// Usage:
//
//	dgp-bench                              # run E1-E22
//	dgp-bench -exp E5                      # run one experiment
//	dgp-bench -list                        # list experiment ids and titles
//	dgp-bench -exp enginestats -nodes 8192 -par  # per-round engine stats
//	dgp-bench -exp scale -nodes 100000,1000000   # engine scale sweep
//	dgp-bench -exp shards -shards 1,2,4,8  # sharded-engine boundary-traffic sweep
//	dgp-bench -exp chaos                   # fault-rate × η degradation sweep
//	dgp-bench -exp dynamic                 # dynamic-session recovery sweep
//	dgp-bench -exp enginestats -metrics -  # Prometheus metrics to stdout
//	dgp-bench -exp enginestats -metrics - -metrics-format json
//	dgp-bench -exp chaos -bench-out perf/  # + BENCH_chaos.json ledger
//	dgp-bench -exp chaos -cpuprofile cpu.pprof   # profile the sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	exp := flag.String("exp", "", "run one experiment by id (E1-E22, enginestats, scale, shards, chaos, dynamic; default: E1-E22)")
	list := flag.Bool("list", false, "list experiments")
	nodes := flag.String("nodes", "100000", "comma-separated node counts for the enginestats and scale sweeps")
	shards := flag.String("shards", "1,2,4", "comma-separated shard counts for the shards sweep")
	par := flag.Bool("par", false, "run the enginestats, scale, shards and dynamic sweeps on the worker-pool engine")
	metrics := flag.String("metrics", "", "write the run's aggregated metrics to this file ('-' = stdout); needs an experiment that traces its runs (enginestats, chaos, dynamic)")
	metricsFormat := flag.String("metrics-format", "", "metrics format: 'prom' or 'json' (default: a .json suffix on -metrics selects JSON, otherwise Prometheus text)")
	benchOut := flag.String("bench-out", "", "write the experiment's machine-readable BENCH_<id>.json ledger to this directory (sweeps only; see dgp-perf)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	switch *metricsFormat {
	case "", "prom", "json":
	default:
		return fmt.Errorf("-metrics-format %q: want prom or json", *metricsFormat)
	}
	if *list {
		for _, e := range append(bench.Registry(), bench.Sweeps()...) {
			fmt.Printf("%-11s %s\n", e.ID, e.Title)
		}
		return nil
	}
	p := bench.Params{Parallel: *par}
	var err error
	if p.Nodes, err = parseCounts("nodes", *nodes, 3); err != nil {
		return err
	}
	if p.Shards, err = parseCounts("shards", *shards, 1); err != nil {
		return err
	}
	exps := bench.Registry()
	if *exp != "" {
		e := bench.Find(*exp)
		if e == nil {
			return fmt.Errorf("unknown experiment %q (use -list)", *exp)
		}
		exps = []bench.Experiment{*e}
	}
	if *metrics != "" {
		p.Trace = obs.NewRecorder(0)
		p.Telemetry = obs.NewTelemetry(nil)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	for _, e := range exps {
		tables, ledger, err := e.Run(p)
		if err != nil {
			return err
		}
		for _, t := range tables {
			t.Render(os.Stdout)
		}
		if *benchOut == "" {
			continue
		}
		if ledger == nil {
			return fmt.Errorf("-bench-out: experiment %s returns no ledger (the sweeps do)", e.ID)
		}
		path, err := ledger.WriteFile(*benchOut)
		if err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote", path)
	}
	if *metrics == "" {
		return nil
	}
	if len(p.Trace.Events()) == 0 {
		return fmt.Errorf("-metrics: the run recorded no events (enginestats, chaos and dynamic trace their runs)")
	}
	return writeMetrics(p.Trace, p.Telemetry, *metrics, *metricsFormat)
}

// parseCounts parses a comma-separated list of counts, each at least least,
// given to the named flag.
func parseCounts(name, spec string, least int) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < least {
			return nil, fmt.Errorf("-%s %q: %q is not a count >= %d", name, spec, part, least)
		}
		counts = append(counts, v)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("-%s %q: no counts", name, spec)
	}
	return counts, nil
}

// writeMetrics aggregates the recorded trace into the telemetry registry
// (joining the per-phase wall-time histograms and a final runtime-resource
// sample) and writes the snapshot. The format flag wins; without it a .json
// suffix selects JSON and anything else — including "-" for stdout — gets
// Prometheus text.
func writeMetrics(rec *obs.Recorder, tel *obs.Telemetry, path, format string) error {
	tel.SampleRuntime()
	snap := obs.AggregateInto(tel.Registry(), rec.Events()).Snapshot()
	useJSON := format == "json" || (format == "" && strings.HasSuffix(path, ".json"))
	emit := func(w *os.File) error {
		if useJSON {
			return snap.WriteJSON(w)
		}
		return snap.WritePrometheus(w)
	}
	if path == "-" {
		return emit(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
