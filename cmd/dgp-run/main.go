// Command dgp-run executes one (problem, algorithm, graph, prediction)
// configuration and prints the outcome: rounds, message counts, the error
// measures of the instance, and optionally the outputs. Problems and
// algorithms come from the registry — `dgp-run -list` enumerates every
// registered pair with its template, reference, and round bound.
//
// Usage examples:
//
//	dgp-run -list
//	dgp-run -problem mis -alg parallel -graph gnp -n 200 -p 0.05 -flips 10
//	dgp-run -problem matching -alg simple -graph grid -n 144 -flips 4
//	dgp-run -problem tree -alg simple -graph line -n 90 -flips 6 -show
//	dgp-run -problem mis -graph gnp -n 150 -chaos 0.3 -heal
//	dgp-run -problem mis -alg simple -graph gnp -n 150 -trace mis.jsonl -chrome mis.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	var (
		list     = flag.Bool("list", false, "print the registry (problem, algorithm, template, reference, round bound) and exit")
		problem  = flag.String("problem", "mis", "a registered problem (see -list)")
		alg      = flag.String("alg", "simple", "a registered algorithm within the problem (see -list)")
		gname    = flag.String("graph", "gnp", "gnp | grid | ring | line | tree | clique | star | wheel | paths")
		n        = flag.Int("n", 100, "node count (side^2 for grid)")
		p        = flag.Float64("p", 0.05, "edge probability for gnp")
		flips    = flag.Int("flips", 0, "number of perturbed predictions")
		seed     = flag.Int64("seed", 1, "seed for graphs, predictions, and seeded algorithms")
		par      = flag.Bool("parallel", false, "use the goroutine engine")
		shards   = flag.Int("shards", 0, "run the sharded engine with this many shards (0 = unsharded; results are identical for every value)")
		show     = flag.Bool("show", false, "print the output vector")
		progress = flag.Bool("progress", false, "print a progress line whenever the number of nodes active in a round changes")
		traceOut = flag.String("trace", "", "write a JSONL event trace to this file ('-' = stdout); inspect with dgp-trace")
		chrome   = flag.String("chrome", "", "write a Chrome trace_event timeline to this file (chrome://tracing, Perfetto)")
		tracecap = flag.Int("tracecap", 0, "trace ring-buffer capacity in events (0 = default; oldest events drop on overflow)")
		congest  = flag.Int("congest", 0, "enforce a CONGEST bit budget (0 = LOCAL)")
		chaos    = flag.Float64("chaos", 0, "fault rate r: drop r, duplicate r/2, corrupt r/4, crash r/4 per message/node")
		heal     = flag.Bool("heal", false, "self-heal faulted runs (Options.Recover)")
		deadline = flag.Duration("deadline", 0, "per-phase watchdog deadline (0 = off)")
		updates  = flag.String("updates", "", "drive a dynamic session from this JSONL edge-update stream ('-' = stdin); one {\"seq\":1,\"insert\":[[0,5]],\"delete\":[[1,2]]} per line")
		schaos   = flag.Float64("streamchaos", 0, "update-stream fault rate r: drop r, duplicate r/2, reorder r/2 per batch; step chaos at rate r (with -updates)")
	)
	flag.Parse()

	if *list {
		fmt.Print(repro.RegistryTable())
		return nil
	}

	rng := repro.NewRand(*seed)
	var g *repro.Graph
	switch *gname {
	case "gnp":
		g = repro.GNP(*n, *p, rng)
	case "grid":
		side := isqrt(*n)
		g = repro.Grid2D(side, side)
	case "ring":
		g = repro.Ring(*n)
	case "line":
		g = repro.Line(*n)
	case "tree":
		g = repro.RandomTree(*n, rng)
	case "clique":
		g = repro.Clique(*n)
	case "star":
		g = repro.Star(*n)
	case "wheel":
		g = repro.WheelFk(*n / 2)
	case "paths":
		g = repro.DisjointPaths(*n/8, 8)
	default:
		return fmt.Errorf("unknown graph %q", *gname)
	}
	opts := repro.Options{
		Parallel:      *par,
		Shards:        *shards,
		Seed:          *seed,
		CongestBits:   *congest,
		Recover:       *heal,
		RoundDeadline: *deadline,
	}
	var adversary *repro.Chaos
	if *chaos > 0 {
		adversary = repro.NewChaos(repro.ChaosPolicy{
			Seed:      *seed + 2,
			Drop:      *chaos,
			Duplicate: *chaos / 2,
			Corrupt:   *chaos / 4,
			Crash:     *chaos / 4,
		})
		opts.Adversary = adversary
	}
	if *progress {
		last := -1
		opts.OnRoundStats = func(st repro.RoundStats) {
			if st.Active != last {
				fmt.Printf("round %4d: %d active\n", st.Round, st.Active)
				last = st.Active
			}
		}
	}
	var rec *repro.TraceRecorder
	if *traceOut != "" || *chrome != "" {
		rec = repro.NewTraceRecorder(*tracecap)
		opts.Trace = rec
	}

	var err error
	if *updates != "" {
		err = runUpdates(g, *problem, *updates, *schaos, *seed, opts, *show)
	} else {
		err = runProblem(g, *problem, *alg, *flips, opts, *show)
	}
	if adversary != nil {
		s := adversary.Stats()
		fmt.Printf("chaos: dropped=%d duplicated=%d corrupted=%d failedLinks=%d crashed=%d\n",
			s.Dropped, s.Duplicated, s.Corrupted, s.FailedLinks, s.Crashed)
	}
	// The trace is written even when the run aborted: a terminal round event
	// with the error is exactly what a failed run's trace is for.
	if werr := writeTraces(rec, *traceOut, *chrome); werr != nil && err == nil {
		err = werr
	}
	return err
}

// writeTraces flushes the recorder to the requested JSONL and Chrome
// trace_event outputs.
func writeTraces(rec *repro.TraceRecorder, jsonlPath, chromePath string) error {
	if rec == nil {
		return nil
	}
	events := rec.Events()
	if d := rec.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "trace: ring buffer overflowed, oldest %d events dropped (raise -tracecap)\n", d)
	}
	write := func(path string, emit func(*os.File) error) error {
		if path == "" {
			return nil
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
	if err := write(jsonlPath, func(f *os.File) error { return obs.WriteJSONL(f, events) }); err != nil {
		return err
	}
	return write(chromePath, func(f *os.File) error { return obs.WriteChromeTrace(f, events) })
}

func isqrt(n int) int {
	s := 1
	for s*s < n {
		s++
	}
	return s
}

// runProblem is the single registry-driven execution path: generate the
// problem's predictions, summarize the instance's error measures, run the
// chosen algorithm, and print the outcome.
func runProblem(g *repro.Graph, problem, alg string, flips int, opts repro.Options, show bool) error {
	preds, err := repro.GeneratePreds(problem, g, flips, opts.Seed+1)
	if err != nil {
		if problem == "tree" && strings.Contains(err.Error(), "acyclic") {
			return fmt.Errorf("%w (use -graph line or -graph tree)", err)
		}
		return err
	}
	errs, err := repro.ErrorSummary(problem, g, preds)
	if err != nil {
		return err
	}
	res, err := repro.RunProblem(g, problem, alg, preds, opts)
	if err != nil {
		return err
	}
	fmt.Printf("graph: n=%d m=%d delta=%d\n", g.N(), g.M(), g.MaxDegree())
	fmt.Printf("errors: %s\n", errs)
	fmt.Printf("result: rounds=%d messages=%d maxMsgBits=%d\n",
		res.Run.Rounds, res.Run.Messages, res.Run.MaxMsgBits)
	if r := res.Recovery; r != nil && !r.Valid {
		fmt.Printf("healed: residual=%d recoveryRounds=%d\n", r.Residual, r.RecoveryRounds)
	}
	if show {
		out := res.Output
		if out == nil {
			out = res.EdgeOutput
		}
		fmt.Printf("%s: %v\n", outputLabel(problem), out)
	}
	return nil
}

// outputLabel returns the registry's display label for the problem's output
// vector.
func outputLabel(problem string) string {
	for _, p := range repro.Problems() {
		if p.Name == problem {
			return p.OutputLabel
		}
	}
	return "output"
}
