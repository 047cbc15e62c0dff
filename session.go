package repro

import (
	"repro/internal/dynamic"
	"repro/internal/runtime/fault"
)

// Dynamic-session types re-exported for library users; see internal/dynamic
// for the detailed semantics.
type (
	// EdgeUpdate is one edge mutation (insert or delete) by node index.
	EdgeUpdate = dynamic.Update
	// UpdateBatch is one atomically-applied group of edge updates,
	// deduplicated by sequence number.
	UpdateBatch = dynamic.Batch
	// SessionStep describes how one delivered batch was absorbed: outcome,
	// damage, residual, degradation-ladder attempts, and recovery cost.
	SessionStep = dynamic.StepReport
	// SessionStats accumulates a session's lifetime counters.
	SessionStats = dynamic.Stats
	// StreamPolicy is seeded chaos on an update-batch stream: drop,
	// duplicate, and reorder probabilities plus per-step engine chaos.
	StreamPolicy = fault.StreamPolicy
	// StreamStats counts the perturbations a stream plan contained.
	StreamStats = fault.StreamStats
	// SessionOptions configures a dynamic session: engine mode, the
	// degradation ladder's length and per-attempt envelope, the per-attempt
	// fault adversary, and the trace and telemetry sinks.
	SessionOptions = dynamic.Options
	// Session owns a mutable graph and a continuously valid solution on it.
	// Batched edge updates applied between runs are absorbed by
	// self-healing: the previous output is re-encoded as the next run's
	// prediction, so recovery rounds scale with the damage of the batch,
	// not with the graph. Not safe for concurrent use.
	Session = dynamic.Session
)

// Edge-update kinds.
const (
	// EdgeInsert adds an edge (a no-op if present).
	EdgeInsert = dynamic.Insert
	// EdgeDelete removes an edge (a no-op if absent).
	EdgeDelete = dynamic.Delete
)

// ErrSessionClosed is returned by operations on a closed session.
var ErrSessionClosed = dynamic.ErrClosed

// NewSession opens a dynamic session for a registered problem on g, running
// the problem's Simple Template prediction-free for the initial valid
// output. Supported for every problem with healing machinery
// (ProblemInfo.CanHeal): MIS, matching, vertex coloring, and tree MIS.
func NewSession(g *Graph, problemName string, opts SessionOptions) (*Session, error) {
	return dynamic.Open(g, problemName, opts)
}

// SessionReport is the outcome of RunSession.
type SessionReport struct {
	// Steps are the per-delivery reports, in delivery order.
	Steps []SessionStep
	// Stream counts the chaos perturbations of the delivery plan.
	Stream StreamStats
	// Stats are the session's lifetime counters.
	Stats SessionStats
	// Output is the final valid output vector on FinalGraph.
	Output []int
	// FinalGraph is the graph after every applied batch.
	FinalGraph *Graph
}

// RunSession opens a session, streams the batches through it (under the
// optional stream-chaos policy), and closes it — the one-shot form of the
// Session API.
func RunSession(g *Graph, problemName string, batches []UpdateBatch, sp *StreamPolicy, opts SessionOptions) (*SessionReport, error) {
	s, err := NewSession(g, problemName, opts)
	if err != nil {
		return nil, err
	}
	steps, stream, err := s.ApplyStream(batches, sp)
	if err != nil {
		return nil, err
	}
	return &SessionReport{
		Steps:      steps,
		Stream:     stream,
		Stats:      s.Close(),
		Output:     s.Output(),
		FinalGraph: s.Graph(),
	}, nil
}
