package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"time"

	"repro"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public functions of each module. Op is -1 for set-up spans.
type span struct {
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Name     string `json:"name"`
	Parent   string `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps the spans and per-layer counts of one traced child in
// memory. A nil tracer runs the wrapped calls untouched.
type tracer struct {
	workload string
	epoch    time.Time
	op       int
	open     []string
	spans    []span
	// setupCounts and opCounts sum the counts added during set-up and
	// during traced ops.
	setupCounts, opCounts map[string]float64
}

func newTracer(workload string) *tracer {
	return &tracer{
		workload:    workload,
		epoch:       time.Now(),
		op:          -1,
		setupCounts: map[string]float64{},
		opCounts:    map[string]float64{},
	}
}

// span runs fn as a span named name, child of the innermost open span.
func (t *tracer) span(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	parent := ""
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.open = append(t.open, name)
	start := time.Since(t.epoch)
	err := fn()
	end := time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
	t.spans = append(t.spans, span{
		Workload: t.workload, Op: t.op, Name: name, Parent: parent,
		StartNS: start.Nanoseconds(), EndNS: end.Nanoseconds(),
	})
	return err
}

// add adds v to the named count of the current op (or of set-up).
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	if t.op < 0 {
		t.setupCounts[name] += v
	} else {
		t.opCounts[name] += v
	}
}

// selfTimes sums each span name's self time (its duration minus the time
// its child spans cover), separately for set-up and for ops.
func (t *tracer) selfTimes() (setup, ops map[string]float64) {
	type key struct {
		op   int
		name string
	}
	covered := map[key]float64{}
	for _, s := range t.spans {
		if s.Parent != "" {
			covered[key{s.Op, s.Parent}] += float64(s.EndNS-s.StartNS) / 1e9
		}
	}
	setup, ops = map[string]float64{}, map[string]float64{}
	for _, s := range t.spans {
		self := float64(s.EndNS-s.StartNS)/1e9 - covered[key{s.Op, s.Name}]
		if s.Op < 0 {
			setup[s.Name] += self
		} else {
			ops[s.Name] += self
		}
	}
	return setup, ops
}

// layerValues reduces the trace to the per-layer metrics: set-up spans and
// counts per set-up, op spans and counts per traced op, then the ratios.
// Every metric of layerMetrics is present; a layer the workload does not
// call reads 0.
func (t *tracer) layerValues(nodes int, tracedOpS, untracedOpS []float64) map[string]float64 {
	tracedOps := len(tracedOpS)
	setupSelf, opSelf := t.selfTimes()
	v := map[string]float64{}
	for name, x := range setupSelf {
		v[name+"_s"] += x
	}
	for name, x := range t.setupCounts {
		v[name] += x
	}
	for name, x := range opSelf {
		v[name+"_s"] += x / float64(tracedOps)
	}
	for name, x := range t.opCounts {
		v[name] += x / float64(tracedOps)
	}
	v["runtime.setup_s"] = v["runtime.run_s"] - v["runtime.rounds_s"]
	if v["runtime.rounds"] > 0 {
		v["runtime.active_share"] = v["runtime.active_node_rounds"] / (float64(nodes) * v["runtime.rounds"])
	}
	if v["runtime.messages"] > 0 {
		v["shard.boundary_share"] = v["shard.boundary_msgs"] / v["runtime.messages"]
	}
	if len(untracedOpS) > 0 {
		v["trace.overhead_ratio"] = quantile(tracedOpS, 0.5)/quantile(untracedOpS, 0.5) - 1
	}
	out := make(map[string]float64, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = v[m.name]
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// phaseSums totals the engine's per-phase round-time histograms
// (dgp_round_seconds{phase=...}) over every shard label.
func phaseSums(tel *repro.Telemetry) map[string]float64 {
	sums := map[string]float64{}
	if tel == nil {
		return sums
	}
	const prefix = `dgp_round_seconds{phase="`
	for _, h := range tel.Registry().Snapshot().Histograms {
		rest, ok := strings.CutPrefix(h.Name, prefix)
		if !ok {
			continue
		}
		if i := strings.IndexByte(rest, '"'); i >= 0 {
			sums[rest[:i]] += h.Sum
		}
	}
	return sums
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// layerMetric is one per-layer metric: the module it measures, the
// end-to-end metric it should move, and the workloads on which it should.
type layerMetric struct {
	name, unit, better string
	module             string
	moves              string
	workloads          []string
}

var (
	allWorkloads = []string{"ba-mis", "ba-mis-sharded", "ring-matching", "ba-session"}
	solves       = []string{"ba-mis", "ba-mis-sharded", "ring-matching"}
)

var layerMetrics = []layerMetric{
	{"graph.build_s", "s", "lower", "graph", "setup_s", allWorkloads},
	{"graph.patch_s", "s", "lower", "graph", "op_p50_s", []string{"ba-session"}},
	{"predict.gen_s", "s", "lower", "predict", "setup_s", []string{"ba-mis", "ring-matching"}},
	{"problem.build_s", "s", "lower", "problem", "op_p50_s", []string{"ba-mis"}},
	{"problem.encode_s", "s", "lower", "problem", "op_p50_s", []string{"ba-mis"}},
	{"problem.finalize_s", "s", "lower", "problem", "op_p50_s", []string{"ring-matching"}},
	{"problem.finalize_allocs", "count", "lower", "problem", "allocs_per_op", []string{"ring-matching"}},
	{"runtime.run_s", "s", "lower", "runtime", "op_p50_s", []string{"ba-mis", "ba-mis-sharded"}},
	{"runtime.rounds_s", "s", "lower", "runtime", "op_p50_s", []string{"ba-mis"}},
	{"runtime.setup_s", "s", "lower", "runtime", "op_p50_s", []string{"ring-matching"}},
	{"runtime.send_s", "s", "lower", "runtime", "op_p50_s", []string{"ba-mis"}},
	{"runtime.route_s", "s", "lower", "runtime", "op_p50_s", []string{"ba-mis"}},
	{"runtime.receive_s", "s", "lower", "runtime", "op_p50_s", []string{"ba-mis"}},
	{"runtime.rounds", "count", "lower", "runtime", "rounds_per_op", solves},
	{"runtime.messages", "count", "lower", "runtime", "msgs_per_op", solves},
	{"runtime.bits", "count", "lower", "runtime", "msgs_per_op", solves},
	{"runtime.active_node_rounds", "count", "lower", "runtime", "op_p50_s", []string{"ba-mis"}},
	{"runtime.active_share", "ratio", "higher", "runtime", "op_p50_s", []string{"ba-mis"}},
	{"runtime.allocs", "count", "lower", "runtime", "allocs_per_op", []string{"ba-mis"}},
	{"runtime.alloc_mb", "MB", "lower", "runtime", "alloc_mb_per_op", []string{"ba-mis"}},
	{"shard.cut_edges", "count", "lower", "shard", "op_p50_s", []string{"ba-mis-sharded"}},
	{"shard.boundary_msgs", "count", "lower", "shard", "op_p50_s", []string{"ba-mis-sharded"}},
	{"shard.boundary_share", "ratio", "lower", "shard", "op_p50_s", []string{"ba-mis-sharded"}},
	{"heal.verify_s", "s", "lower", "heal", "op_p50_s", []string{"ba-session"}},
	{"heal.carve_s", "s", "lower", "heal", "op_p50_s", []string{"ba-session"}},
	{"heal.residual", "count", "lower", "heal", "op_p50_s", []string{"ba-session"}},
	{"dynamic.open_s", "s", "lower", "dynamic", "setup_s", []string{"ba-session"}},
	{"dynamic.apply_s", "s", "lower", "dynamic", "op_p50_s", []string{"ba-session"}},
	{"dynamic.engine_rounds_s", "s", "lower", "dynamic", "op_p50_s", []string{"ba-session"}},
	{"dynamic.residual_share", "ratio", "higher", "dynamic", "op_p50_s", []string{"ba-session"}},
	{"dynamic.attempts", "count", "lower", "dynamic", "op_p50_s", []string{"ba-session"}},
	{"dynamic.first_try_ratio", "ratio", "higher", "dynamic", "op_p50_s", []string{"ba-session"}},
	{"trace.overhead_ratio", "ratio", "lower", "obs", "op_p50_s", allWorkloads},
}
