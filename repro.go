// Package repro is a Go library reproducing "Distributed Graph Algorithms
// with Predictions" (Boyar, Ellen, Larsen; brief announcement in PODC 2025):
// deterministic distributed graph algorithms in the synchronous LOCAL model
// whose nodes receive possibly-incorrect predictions of their outputs.
//
// The library provides:
//
//   - a deterministic synchronous round engine (a persistent worker pool
//     with a barrier per phase, or a sequential mode with identical
//     semantics);
//   - the paper's framework: base/initialization/clean-up algorithms,
//     measure-uniform algorithms, and the four templates (Simple,
//     Consecutive, Interleaved, Parallel) as generic combinators;
//   - instantiations for Maximal Independent Set, Maximal Matching,
//     (Δ+1)-Vertex Coloring, and (2Δ−1)-Edge Coloring, plus the rooted-tree
//     MIS specialization;
//   - the error measures η_H, η₁, η₂, η_bw, η_t and prediction generators
//     with controllable error;
//   - a benchmark harness regenerating every quantitative claim in the
//     paper (see EXPERIMENTS.md).
//
// Every registered (problem, algorithm) pair runs through RunProblem; see
// Problems or `dgp-run -list` for the names. Quick start (the body of
// ExampleRunProblem):
//
//	g := repro.Ring(12)
//	preds := repro.PerfectMIS(g)
//	preds[1] = 1 // corrupt one bit
//
//	res, err := repro.RunProblem(g, "mis", "parallel", preds, repro.Options{})
//	if err != nil {
//		fmt.Println(err)
//		return
//	}
//	fmt.Println("valid:", len(res.Output) == g.N())
//	fmt.Println("rounds <= 7:", res.Run.Rounds <= 7)
package repro

import (
	"math/rand"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
	"repro/internal/shard"
	"repro/internal/tree"
)

// Graph is an immutable undirected graph with distinct node identifiers in
// {1, ..., D}; see NewGraphBuilder and the generators.
type Graph = graph.Graph

// GraphBuilder accumulates nodes and edges for a Graph.
type GraphBuilder = graph.Builder

// Rooted is a rooted tree or forest for the Section 9.2 algorithms.
type Rooted = tree.Rooted

// EdgePrediction holds a node's predicted edge colors in sorted-neighbor
// order.
type EdgePrediction = predict.EdgePrediction

// NewGraphBuilder returns a builder for a graph with n nodes, identifiers
// defaulting to 1..n.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// Graph generators (see internal/graph for details).
var (
	// Line returns a path of n nodes.
	Line = graph.Line
	// Ring returns a cycle of n nodes.
	Ring = graph.Ring
	// Star returns a star with n-1 leaves.
	Star = graph.Star
	// Clique returns the complete graph on n nodes.
	Clique = graph.Clique
	// CompleteBipartite returns K_{a,b}.
	CompleteBipartite = graph.CompleteBipartite
	// Grid2D returns the rows×cols grid.
	Grid2D = graph.Grid2D
	// WheelFk returns the paper's Figure 1 graph F_k.
	WheelFk = graph.WheelFk
	// GNP returns an Erdős–Rényi random graph.
	GNP = graph.GNP
	// RandomTree returns a uniform random labelled tree.
	RandomTree = graph.RandomTree
	// Caterpillar returns a spine-with-legs tree.
	Caterpillar = graph.Caterpillar
	// Hypercube returns the dim-dimensional hypercube.
	Hypercube = graph.Hypercube
	// DisjointPaths returns count disjoint paths of pathLen nodes each.
	DisjointPaths = graph.DisjointPaths
	// ShuffleIDs reassigns random identifiers from {1, ..., domain}.
	ShuffleIDs = graph.ShuffleIDs
	// FlipEdges toggles k random node pairs (network churn).
	FlipEdges = graph.FlipEdges
	// BarabasiAlbert returns a preferential-attachment random graph.
	BarabasiAlbert = graph.BarabasiAlbert
	// DisjointUnion concatenates graphs with disjoint identifier ranges.
	DisjointUnion = graph.DisjointUnion
	// LineWithIDs returns a path with a chosen identifier sequence.
	LineWithIDs = graph.LineWithIDs
)

// Rooted-tree constructors.
var (
	// DirectedLine returns a rooted path (node 0 is the root).
	DirectedLine = tree.DirectedLine
	// RandomRooted returns a random tree rooted at node 0.
	RandomRooted = tree.RandomRooted
	// RootAt orients an acyclic graph as a rooted forest.
	RootAt = tree.RootAt
)

// Prediction generators.
var (
	// PerfectMIS returns an error-free MIS prediction.
	PerfectMIS = predict.PerfectMIS
	// FlipBits flips k random prediction bits.
	FlipBits = predict.FlipBits
	// FlipProb flips each bit independently with probability p.
	FlipProb = predict.FlipProb
	// Uniform returns n copies of a value.
	Uniform = predict.Uniform
	// GridBW returns the Figure 2 grid pattern.
	GridBW = predict.GridBW
	// WheelCenterOne returns the Figure 1 predictions on WheelFk(k).
	WheelCenterOne = predict.WheelCenterOne
	// Mod3Line returns the Section 9.2 pattern on DirectedLine(3k).
	Mod3Line = predict.Mod3Line
	// MISFromRelatedGraph reuses a solution from a related network.
	MISFromRelatedGraph = predict.MISFromRelatedGraph
	// PerfectMatching returns an error-free matching prediction.
	PerfectMatching = predict.PerfectMatching
	// PerturbMatching rewires k nodes' matching predictions.
	PerturbMatching = predict.PerturbMatching
	// PerfectVColor returns an error-free (Δ+1)-coloring prediction.
	PerfectVColor = predict.PerfectVColor
	// PerturbVColor re-randomizes k nodes' color predictions.
	PerturbVColor = predict.PerturbVColor
	// PerfectEColor returns an error-free (2Δ−1)-edge-coloring prediction.
	PerfectEColor = predict.PerfectEColor
	// PerturbEColor re-randomizes k edges' color predictions.
	PerturbEColor = predict.PerturbEColor
)

// Unmatched is the maximal-matching output for an unmatched node (⊥).
const Unmatched = predict.Unmatched

// Options configures a run.
type Options struct {
	// Parallel cuts each engine phase into S·⌈GOMAXPROCS/S⌉ chunks, run by
	// as many executors, instead of S (S = Shards, at least 1); results are
	// identical.
	Parallel bool
	// Shards, when 2 or more, partitions the graph into Shards node sets and
	// keeps per-shard delivery and boundary-traffic ledgers
	// (runtime.RoundStats.Shards, shard-exchange trace events). The shards
	// do not split the work: each phase cuts the one frontier into Shards
	// chunks, or Shards·⌈GOMAXPROCS/Shards⌉ with Parallel. Results, error
	// surfaces, and traces are identical for every value (the engine-level
	// determinism contract); Shards is an observation and execution knob,
	// not a semantic one.
	Shards int
	// Partition, when non-nil, fixes the node→shard assignment (see
	// GreedyPartition); nil with Shards > 1 selects contiguous index ranges,
	// and Shards 0 or 1 with a nil Partition builds none.
	Partition *ShardPartition
	// MaxRounds caps the execution (0 = 8n+64).
	MaxRounds int
	// Seed drives the seeded algorithms (Luby, the decomposition
	// reference); ignored by deterministic ones.
	Seed int64
	// CongestBits, when positive, enforces the CONGEST model: every message
	// must be size-accounted and at most this many bits. Algorithms built on
	// LOCAL-size floods (collect, decomposition) will abort under it.
	CongestBits int
	// OnRoundStats, when non-nil, receives the engine's per-round
	// instrumentation record (wall time, deliveries, payload bits, active
	// nodes). Purely observational.
	OnRoundStats func(RoundStats)
	// Adversary, when non-nil, injects faults into message routing and
	// supplies the run's crash schedule, its only one; see NewChaos for the
	// seeded policy implementation. An adversary value is consumed by the
	// run — pass a fresh one per call.
	Adversary Adversary
	// RoundDeadline, when positive, aborts the run with a diagnostic error
	// if any send or receive phase exceeds it (a watchdog against wedged
	// machines).
	RoundDeadline time.Duration
	// Recover makes a run self-healing: instead of failing on an invalid or
	// aborted faulted run, it carves the damaged outputs into an extendable
	// partial solution and re-runs the problem's clean-up machinery to
	// extend it (ProblemResult.Recovery holds the detailed report; see
	// RunProblemWithRecovery). Supported for MIS (including trees),
	// matching, and vertex coloring.
	Recover bool
	// Trace, when non-nil, records the run's typed event stream: rounds,
	// message batches, faults, template-stage spans, heal phases, and η
	// snapshots. The stream is deterministic across engine modes (only
	// wall-clock durations differ); export it with the obs helpers or the
	// dgp-trace CLI. Tracing disabled (nil) costs a pointer check.
	Trace *TraceRecorder
	// Telemetry, when non-nil, records per-phase round wall-time histograms
	// (dgp_round_seconds{phase,shards}) into its metrics registry; sample
	// process resource gauges with Telemetry.SampleRuntime and export with
	// MetricsRegistry snapshots. Purely observational; nil costs a pointer
	// check.
	Telemetry *Telemetry
}

// Trace types re-exported for library users.
type (
	// TraceRecorder is the ring-buffered trace event recorder.
	TraceRecorder = obs.Recorder
	// TraceEvent is one typed trace record.
	TraceEvent = obs.Event
	// Telemetry is the runtime resource telemetry recorder: per-phase round
	// wall-time histograms plus runtime/metrics-sampled heap, goroutine,
	// and GC gauges, all written into a MetricsRegistry.
	Telemetry = obs.Telemetry
	// MetricsRegistry is the counters/gauges/histograms registry behind
	// Telemetry and the trace aggregation; snapshots export Prometheus text
	// or JSON.
	MetricsRegistry = obs.Registry
)

// NewTraceRecorder returns a recorder holding at most capacity events
// (capacity <= 0 selects the default, 65536). Attach it via Options.Trace.
func NewTraceRecorder(capacity int) *TraceRecorder { return obs.NewRecorder(capacity) }

// NewTelemetry returns a telemetry recorder writing into reg (a fresh
// registry when reg is nil). Attach it via Options.Telemetry or
// SessionOptions.Telemetry.
func NewTelemetry(reg *MetricsRegistry) *Telemetry { return obs.NewTelemetry(reg) }

// Engine and chaos types re-exported for library users.
type (
	// RoundStats is the engine's per-round instrumentation record.
	RoundStats = runtime.RoundStats
	// Adversary is the engine's fault-injection hook.
	Adversary = runtime.Adversary
	// Fate is an adversary's verdict on one in-flight message.
	Fate = runtime.Fate
	// ChaosPolicy is a seeded fault policy: per-message drop, duplication,
	// and corruption probabilities, per-link failure and per-node crash
	// probabilities, and the rounds by which they strike.
	ChaosPolicy = fault.Policy
	// ChaosStats counts the faults a chaos adversary actually injected.
	ChaosStats = fault.Stats
	// Chaos is the seeded adversary implementing a ChaosPolicy. Single-run.
	Chaos = fault.Chaos
	// ShardPartition is a node→shard assignment for the sharded engine.
	ShardPartition = shard.Partition
)

// Shard partitioners re-exported for library users.
var (
	// ContiguousPartition splits n nodes into s contiguous index ranges —
	// the sharded engine's default strategy.
	ContiguousPartition = shard.Contiguous
	// GreedyPartition is the seeded greedy edge-cut heuristic over a graph's
	// CSR arrays (see Graph.CSR).
	GreedyPartition = shard.GreedyEdgeCut
)

// NewChaos returns a fresh seeded adversary for one run: the same policy
// reproduces the same fault schedule exactly, in both engine modes.
func NewChaos(p ChaosPolicy) *Chaos { return fault.New(p) }

// Engine error sentinels, for errors.Is on failed runs.
var (
	// ErrNoTermination: the algorithm exceeded MaxRounds.
	ErrNoTermination = runtime.ErrNoTermination
	// ErrCongestViolation: a message broke the CongestBits budget.
	ErrCongestViolation = runtime.ErrCongestViolation
	// ErrMachinePanic: a node's Send or Receive panicked; the panic was
	// contained and surfaced as this per-node error.
	ErrMachinePanic = runtime.ErrMachinePanic
	// ErrRoundDeadline: a phase exceeded Options.RoundDeadline.
	ErrRoundDeadline = runtime.ErrRoundDeadline
)

// Result carries the run metrics shared by all problems.
type Result struct {
	// Rounds is the round in which the last node terminated.
	Rounds int
	// Messages is the total number of messages delivered.
	Messages int
	// MaxMsgBits is the largest message in bits. It is -1 when no sized
	// payload was observed: either a payload was not size-accounted
	// (LOCAL-only) or the run delivered no messages at all.
	MaxMsgBits int
	// TerminatedAt is the termination round per node index.
	TerminatedAt []int
}

func buildConfig(g *Graph, factory runtime.Factory, preds []any, opts Options) runtime.Config {
	return runtime.Config{
		Graph:          g,
		Factory:        factory,
		Predictions:    preds,
		Parallel:       opts.Parallel,
		Shards:         opts.Shards,
		Partition:      opts.Partition,
		MaxRounds:      opts.MaxRounds,
		MaxMessageBits: opts.CongestBits,
		Stats:          opts.OnRoundStats,
		Adversary:      opts.Adversary,
		RoundDeadline:  opts.RoundDeadline,
		Trace:          opts.Trace,
		Telemetry:      opts.Telemetry,
	}
}

func runAndCollect(g *Graph, factory runtime.Factory, preds []any, opts Options) (*runtime.Result, error) {
	return runtime.Run(buildConfig(g, factory, preds, opts))
}

func baseResult(r *runtime.Result) Result {
	return Result{
		Rounds:       r.Rounds,
		Messages:     r.Messages,
		MaxMsgBits:   r.MaxMsgBits,
		TerminatedAt: r.TerminatedAt,
	}
}

// NewRand returns a deterministic PRNG for the generators.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
