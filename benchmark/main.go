// Command benchmark is the repository's end-to-end benchmark: it times
// verified solves through repro.RunProblem and update steps through
// repro.Session.Apply on inputs of 10^4–10^5 nodes, and, in a separate
// traced pass, where each op's time goes layer by layer.
//
// One driver process re-executes its own binary as child processes, one
// at a time, each with GOMAXPROCS=min(2, NumCPU). Each child builds its
// inputs from the seed, runs three untimed warm-up ops, then timed ops in a
// closed loop with one caller (runtime.GC before each, outside the timed
// region) until its share of -seconds is spent, and finally checks its
// last output with the distributed checker. See README.md.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-spans FILE] [-out FILE]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/perf"
)

const (
	// children is the number of child processes per workload in the
	// untraced pass.
	children = 3
	// minOps is the least number of timed ops a child runs whatever the
	// time budget; the per-op counters are taken over exactly these ops,
	// so they do not depend on how many ops fit in the time.
	minOps = 8
	// warmUpOps untimed ops precede the timed ones: the first two or three
	// ops of a process run slower while the heap grows to its working size.
	warmUpOps = 3
	// childGrace bounds a child's set-up, warm-up and check time beyond its
	// measuring budget.
	childGrace = 60 * time.Second
)

// metricDef is one end-to-end metric as declared in BENCHMARK.json.
type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_s", "s", "lower"},
	{"op_p75_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"rounds_per_op", "count", "lower"},
	{"msgs_per_op", "count", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	spans    string
	out      string
	child    int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all, children interleaved across workloads)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the graphs, predictions and update streams")
	fs.Float64Var(&o.seconds, "seconds", 22, "measuring time per workload, split over its child processes")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1, write the spans as JSON lines to this file")
	fs.StringVar(&o.out, "out", "", "also write the results as JSON to this file")
	fs.IntVar(&o.child, "child", -1, "internal: run as child process with this index")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds < 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	if o.child >= 0 {
		return runChildProcess(o, stdout, stderr)
	}
	return drive(o, stdout, stderr)
}

// childConfig is what one child run needs; the command line always uses
// fullSize, the test a tiny size.
type childConfig struct {
	seed      int64
	index     int
	size      size
	budget    time.Duration
	warmUpOps int
	minOps    int
	trace     bool
}

// childResult is everything a child measured, sent to the driver as JSON.
type childResult struct {
	Env        perf.Environment   `json:"env"`
	SetupS     float64            `json:"setup_s"`
	OpS        []float64          `json:"op_s"`
	TracedOpS  []float64          `json:"traced_op_s,omitempty"`
	Allocs     []float64          `json:"allocs"`
	AllocBytes []float64          `json:"alloc_bytes"`
	Ops        []opResult         `json:"ops"`
	HeapLive   float64            `json:"heap_live_bytes"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
}

func (r *childResult) fail(err error) {
	r.Failed++
	r.Errors = append(r.Errors, err.Error())
}

// runChild sets up one workload instance and measures it. In the traced
// pass, even ops are traced and odd ops run untraced, so the two can be
// compared within one process.
func runChild(w workload, cfg childConfig) childResult {
	r := childResult{Env: perf.CaptureEnvironment()}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(w.name)
	}
	runtime.GC()
	start := time.Now()
	inst, err := w.setup(cfg.size, cfg.seed, cfg.index, tr)
	r.SetupS = time.Since(start).Seconds()
	r.Attempted++
	if err != nil {
		r.fail(fmt.Errorf("setup: %w", err))
		return r
	}

	var ref opResult
	for k := 0; k < cfg.warmUpOps; k++ {
		r.Attempted++
		if err := warmUp(inst); err != nil {
			r.fail(fmt.Errorf("warm-up: %w", err))
			return r
		}
		if k == 0 {
			ref = inst.outcome()
		} else if w.repeats && inst.outcome() != ref {
			r.fail(fmt.Errorf("warm-up op %d: output %+v differs from the first's %+v", k, inst.outcome(), ref))
		}
	}

	loop := time.Now()
	for k := 0; k < cfg.minOps || time.Since(loop) < cfg.budget; k++ {
		if err := inst.prepare(); err != nil {
			r.fail(fmt.Errorf("op %d: %w", k, err))
			break
		}
		traced := tr != nil && k%2 == 0
		runtime.GC()
		m0 := memStats()
		var d time.Duration
		if traced {
			tr.op = k
			d, err = inst.tracedOp(tr)
			tr.op = -1
		} else {
			t0 := time.Now()
			err = inst.op()
			d = time.Since(t0)
		}
		m1 := memStats()
		r.Attempted++
		if err != nil {
			r.fail(fmt.Errorf("op %d: %w", k, err))
			break
		}
		o := inst.outcome()
		if w.repeats && o != ref {
			r.fail(fmt.Errorf("op %d: output %+v differs from the warm-up's %+v", k, o, ref))
		}
		r.Ops = append(r.Ops, o)
		if traced {
			r.TracedOpS = append(r.TracedOpS, d.Seconds())
			continue
		}
		r.OpS = append(r.OpS, d.Seconds())
		r.Allocs = append(r.Allocs, float64(m1.Mallocs-m0.Mallocs))
		r.AllocBytes = append(r.AllocBytes, float64(m1.TotalAlloc-m0.TotalAlloc))
	}
	// The heap that stays live once the ops are done: the inputs, the
	// session and the last result.
	runtime.GC()
	r.HeapLive = float64(memStats().HeapAlloc)

	r.Attempted++
	if err := inst.check(); err != nil {
		r.fail(fmt.Errorf("check: %w", err))
	}
	if tr != nil && len(r.TracedOpS) > 0 {
		r.Layers = tr.layerValues(inst.nodes(), r.TracedOpS, r.OpS)
		r.Spans = tr.spans
	}
	return r
}

func warmUp(inst instance) error {
	if err := inst.prepare(); err != nil {
		return err
	}
	return inst.op()
}

// childCount is the number of child processes per workload: the traced
// pass runs one.
func childCount(o options) int {
	if o.trace == 1 {
		return 1
	}
	return children
}

func childBudget(o options) time.Duration {
	return time.Duration(o.seconds / float64(childCount(o)) * float64(time.Second))
}

func runChildProcess(o options, stdout, stderr io.Writer) int {
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	r := runChild(w, childConfig{
		seed: o.seed, index: o.child, size: fullSize,
		budget: childBudget(o), warmUpOps: warmUpOps, minOps: minOps, trace: o.trace == 1,
	})
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// spawn runs one child process and decodes its result.
func spawn(exe string, w workload, index int, o options, stderr io.Writer) (childResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childBudget(o)+childGrace)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-child", strconv.Itoa(index),
		"-workload", w.name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(min(2, runtime.NumCPU())))
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return childResult{}, fmt.Errorf("child %s/%d: %w", w.name, index, err)
	}
	var r childResult
	if err := json.Unmarshal(out, &r); err != nil {
		return childResult{}, fmt.Errorf("child %s/%d: decoding result: %w", w.name, index, err)
	}
	return r, nil
}

// workloadReport is one workload's reduced results.
type workloadReport struct {
	Name      string             `json:"name"`
	Inputs    string             `json:"inputs"`
	Samples   int                `json:"samples"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

func drive(o options, stdout, stderr io.Writer) int {
	selected := workloads
	if o.workload != "" {
		w, err := workloadByName(o.workload)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		selected = []workload{w}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	// Children interleave across workloads (A1 B1 ... A2 B2 ...), so a slow
	// stretch of a shared host is spread over every workload.
	results := map[string][]childResult{}
	spawnFailures := map[string]int{}
	for c := 0; c < childCount(o); c++ {
		for _, w := range selected {
			r, err := spawn(exe, w, c, o, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				spawnFailures[w.name]++
				continue
			}
			results[w.name] = append(results[w.name], r)
		}
	}

	var env perf.Environment
	var spans []span
	var reports []workloadReport
	complete := true
	for _, w := range selected {
		rs := results[w.name]
		rep := workloadReport{Name: w.name, Inputs: w.inputs, Attempted: spawnFailures[w.name], Failed: spawnFailures[w.name]}
		for _, r := range rs {
			env = r.Env
			rep.Samples += len(r.OpS)
			rep.Attempted += r.Attempted
			rep.Failed += r.Failed
			rep.Errors = append(rep.Errors, r.Errors...)
			spans = append(spans, r.Spans...)
		}
		if o.trace == 1 {
			rep.Metrics = layerReport(rs)
		} else {
			rep.Metrics = endToEndReport(rs, minOps)
		}
		if rep.Metrics == nil {
			complete = false
		}
		reports = append(reports, rep)
	}

	fmt.Fprintf(stdout, "# env go=%s gomaxprocs=%d num_cpu=%d cpu=%q seed=%d seconds=%g trace=%d\n",
		env.GoVersion, env.GOMAXPROCS, env.NumCPU, env.CPUModel, o.seed, o.seconds, o.trace)
	failed := 0
	for _, rep := range reports {
		failed += rep.Failed
		fmt.Fprintf(stdout, "# %s samples=%d attempted=%d failed=%d\n", rep.Name, rep.Samples, rep.Attempted, rep.Failed)
		for _, e := range rep.Errors {
			fmt.Fprintf(stdout, "# %s error: %s\n", rep.Name, e)
		}
		printMetrics(stdout, rep)
	}

	if o.spans != "" && o.trace == 1 {
		if err := writeSpans(o.spans, spans); err != nil {
			fmt.Fprintln(stderr, "benchmark: writing spans:", err)
			return 1
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, map[string]any{
			"seed": o.seed, "seconds": o.seconds, "trace": o.trace, "env": env, "workloads": reports,
		}); err != nil {
			fmt.Fprintln(stderr, "benchmark: writing results:", err)
			return 1
		}
	}
	if len(selected) == 1 && complete {
		if err := printResultLine(stdout, reports[0]); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if failed > 0 || !complete {
		return 1
	}
	return 0
}

// endToEndReport pools the children's samples into the end-to-end
// metrics; nil when no child produced a timed op.
func endToEndReport(rs []childResult, countedOps int) map[string]float64 {
	var opS, allocs, bytes, setups, heaps []float64
	var rounds, msgs, counted float64
	for _, r := range rs {
		opS = append(opS, r.OpS...)
		allocs = append(allocs, r.Allocs...)
		bytes = append(bytes, r.AllocBytes...)
		setups = append(setups, r.SetupS)
		heaps = append(heaps, r.HeapLive)
		for _, op := range r.Ops[:min(countedOps, len(r.Ops))] {
			rounds += float64(op.Rounds)
			msgs += float64(op.Messages)
			counted++
		}
	}
	if len(opS) == 0 || counted == 0 {
		return nil
	}
	total := 0.0
	for _, s := range opS {
		total += s
	}
	return map[string]float64{
		"setup_s":         quantile(setups, 0.5),
		"op_p50_s":        quantile(opS, 0.5),
		"op_p75_s":        quantile(opS, 0.75),
		"ops_per_s":       float64(len(opS)) / total,
		"rounds_per_op":   rounds / counted,
		"msgs_per_op":     msgs / counted,
		"allocs_per_op":   mean(allocs),
		"alloc_mb_per_op": mean(bytes) / 1e6,
		"heap_live_mb":    quantile(heaps, 0.5) / 1e6,
	}
}

// layerReport takes the traced child's per-layer metrics; nil when the
// traced pass produced none.
func layerReport(rs []childResult) map[string]float64 {
	for _, r := range rs {
		if r.Layers != nil {
			return r.Layers
		}
	}
	return nil
}

// printMetrics prints one "workload metric value unit" line per metric,
// in declaration order.
func printMetrics(w io.Writer, rep workloadReport) {
	for _, m := range declaredMetrics() {
		if v, ok := rep.Metrics[m.name]; ok {
			fmt.Fprintf(w, "%s %s %s %s\n", rep.Name, m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit)
		}
	}
}

// declaredMetrics lists the end-to-end then the per-layer metrics.
func declaredMetrics() []metricDef {
	defs := append([]metricDef(nil), endToEnd...)
	for _, m := range layerMetrics {
		defs = append(defs, metricDef{m.name, m.unit, m.better})
	}
	return defs
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResultLine prints the one-line JSON result of a single-workload run.
func printResultLine(w io.Writer, rep workloadReport) error {
	metrics := map[string]valueUnit{}
	for _, m := range declaredMetrics() {
		v, ok := rep.Metrics[m.name]
		if !ok {
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		metrics[m.name] = valueUnit{v, m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.Failed == 0,
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}
