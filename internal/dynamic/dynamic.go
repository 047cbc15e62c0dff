// Package dynamic runs a problem as a long-lived session over an evolving
// graph: batched edge updates arrive between runs, and each batch is
// absorbed by self-healing instead of re-solving from scratch.
//
// The paper's recovery machinery (internal/heal) is built for transient
// damage inside one run; this package turns the same machinery into an
// incremental algorithm. The session keeps the previous valid output. When a
// batch of edge inserts and deletes lands, the output is re-encoded as the
// next run's prediction: carving it against the patched graph demotes
// exactly the decisions the updates invalidated, and the problem's Simple
// Template extends the carved partial solution, so recovery rounds scale
// with the damage radius of the batch (the error measure η of the stale
// prediction), not with the graph size — the dynamic reading of the paper's
// Observation 7 (η = 0 ⇒ the template reproduces the prediction verbatim).
// Every engine run of a session is one heal.Extend — the single healing run
// of internal/heal — over a partial solution: the carve (or its widening)
// on an incremental attempt, an all-undecided vector for the opening run
// and the from-scratch rung.
//
// Each incremental step runs under a robustness envelope: a per-step round
// cap and a bounded degradation ladder on failure. Attempt 0
// heals from the plain carve; attempt k (1 ≤ k < MaxRetries) widens the
// carve by a 2k-hop ball around the residual before healing (the damage
// estimate was too tight); the final attempt abandons incrementality and
// re-runs the template prediction-free and fault-free — chaos is transient,
// so a session degrades to a from-scratch run but never wedges.
//
// Chaos extends to the update stream itself via fault.StreamPolicy: batches
// may be dropped, duplicated, or reordered, and individual steps may run
// under engine-level chaos. The session is order-tolerant by construction —
// batches are deduplicated by sequence number and graph patches are
// idempotent — so a perturbed stream still yields a well-defined final graph
// and a valid output on it. Everything in this package runs on the caller's
// goroutine and draws no randomness of its own: a session over a fixed
// stream and policy is deterministic and byte-identical across the
// sequential and pool engines.
package dynamic

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/heal"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
	"repro/internal/verify"
)

// Op is the kind of one edge update.
type Op int

// The update kinds.
const (
	// Insert adds the edge {U, V} (a no-op if present).
	Insert Op = iota
	// Delete removes the edge {U, V} (a no-op if absent).
	Delete
)

// Update is one edge mutation. Endpoints are node indices in [0, n); the
// session's node set is fixed at Open.
type Update struct {
	Op   Op
	U, V int
}

// Batch is one atomically-applied group of updates. Seq identifies the batch
// for deduplication: a session applies each sequence number at most once, so
// duplicated deliveries (stream chaos) are absorbed.
type Batch struct {
	Seq     int
	Updates []Update
}

// Options configures a session.
type Options struct {
	// Parallel selects the worker-pool engine for every run in the session.
	Parallel bool
	// MaxRetries bounds the degradation ladder: attempts 1..MaxRetries-1
	// widen the carve, attempt MaxRetries re-runs from scratch. 0 selects the
	// default of 2 (one widening rung, then the full re-run).
	MaxRetries int
	// StepMaxRounds caps each incremental attempt's rounds (0 = engine
	// default). The final from-scratch rung always runs uncapped.
	StepMaxRounds int
	// Adversary, when non-nil, supplies the engine fault adversary for
	// incremental attempt `attempt` of step `step` (counted over applied
	// batches, 0-based). Return nil for a fault-free attempt. The final
	// from-scratch rung never consults it.
	Adversary func(step, attempt int) runtime.Adversary
	// Trace, when non-nil, receives session lifecycle, update, retry, and
	// engine events.
	Trace *obs.Recorder
	// Telemetry, when non-nil, records per-phase round wall-time histograms
	// for every engine run the session executes (the opening run, every
	// healing attempt, and from-scratch reruns). Purely observational.
	Telemetry *obs.Telemetry
}

// StepReport describes how one delivered batch was absorbed.
type StepReport struct {
	// Seq is the batch's sequence number.
	Seq int
	// Outcome is "applied", "duplicate", or "rejected".
	Outcome string
	// Err is the rejection cause when Outcome is "rejected".
	Err error
	// Updates is the number of updates in the batch; Damaged the number of
	// nodes whose adjacency actually changed.
	Updates, Damaged int
	// Residual is the number of undecided nodes the successful attempt
	// healed (0 when the stale output survived verification untouched).
	Residual int
	// Attempts counts healing runs executed (0 when the stale output was
	// still valid); Widened counts widening rungs taken; FullRerun reports
	// that the final from-scratch rung produced the output.
	Attempts, Widened int
	FullRerun         bool
	// Rounds is the recovery cost of the step — engine rounds summed over
	// all attempts, failed ones included; Messages counts the successful
	// attempt's deliveries.
	Rounds, Messages int
}

// Stats accumulates a session's lifetime counters.
type Stats struct {
	// Applied, Duplicates, and Rejected count delivered batches by outcome.
	Applied, Duplicates, Rejected int
	// Damaged totals nodes whose adjacency changed across applied batches.
	Damaged int
	// Widened and FullReruns count degradation-ladder escalations.
	Widened, FullReruns int
	// InitialRounds is the cost of the opening from-scratch run;
	// RecoveryRounds and RecoveryMessages total the incremental steps.
	InitialRounds                    int
	RecoveryRounds, RecoveryMessages int
}

// ErrClosed is returned by operations on a closed session.
var ErrClosed = errors.New("dynamic: session is closed")

// Session owns a mutable graph and the current valid output on it.
// Not safe for concurrent use.
type Session struct {
	opts   Options
	d      *problem.Descriptor
	spec   heal.Spec
	g      *graph.Graph
	out    []int
	seen   map[int]bool
	step   int
	stats  Stats
	closed bool
}

// Open starts a session on g for the named registered problem, which must
// register healing machinery (ProblemInfo.CanHeal): it resolves that
// machinery, Extends an all-undecided partial solution — the problem's Simple
// Template run prediction-free — to obtain the initial valid output, and
// returns the live session.
func Open(g *graph.Graph, problemName string, opts Options) (*Session, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: dynamic: a graph is required", runtime.ErrConfig)
	}
	d, err := problem.Get(problemName)
	if err != nil {
		return nil, fmt.Errorf("dynamic: %w", err)
	}
	spec, err := heal.SpecFor(d)
	if err != nil {
		return nil, fmt.Errorf("dynamic: %w", err)
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 2
	}
	s := &Session{opts: opts, d: d, spec: spec, g: g, seen: make(map[int]bool)}
	out, res, err := heal.Extend(s.runConfig(), spec, allUndecided(g.N()))
	if errors.Is(err, heal.ErrInvalid) {
		err = fmt.Errorf("dynamic: prediction-free run produced an invalid solution: %w", err)
	}
	if err != nil {
		return nil, fmt.Errorf("dynamic: opening run failed: %w", err)
	}
	s.out = out
	s.stats.InitialRounds = res.Rounds
	if opts.Trace != nil {
		opts.Trace.Emit(obs.Event{
			Type: obs.EvSession, Name: "open", Text: d.Name,
			Value: int64(g.N()), Aux: int64(g.M()),
		})
	}
	return s, nil
}

// Graph returns the session's current graph (immutable; a new graph is
// swapped in per applied batch).
func (s *Session) Graph() *graph.Graph { return s.g }

// Output returns a copy of the current valid output vector.
func (s *Session) Output() []int {
	out := make([]int, len(s.out))
	copy(out, s.out)
	return out
}

// Stats returns the session's lifetime counters so far.
func (s *Session) Stats() Stats { return s.stats }

// Problem returns the session's problem name.
func (s *Session) Problem() string { return s.d.Name }

// Close ends the session, emits the closing lifecycle event, and returns the
// final counters. Further Apply calls fail with ErrClosed.
func (s *Session) Close() Stats {
	if !s.closed {
		s.closed = true
		if s.opts.Trace != nil {
			s.opts.Trace.Emit(obs.Event{
				Type: obs.EvSession, Name: "close", Text: s.d.Name,
				Value: int64(s.stats.Applied), Aux: int64(s.stats.RecoveryRounds),
			})
		}
	}
	return s.stats
}

// Apply delivers one batch: deduplicate by sequence number, patch the graph,
// and heal the stale output on the patched graph under the degradation
// ladder. Malformed batches are rejected and skipped (the session stays
// live); only a failed final from-scratch rung — or a misconfiguration — is
// an error.
func (s *Session) Apply(b Batch) (StepReport, error) {
	return s.apply(b, s.configuredAdversary)
}

func (s *Session) configuredAdversary(attempt int) runtime.Adversary {
	if s.opts.Adversary == nil {
		return nil
	}
	return s.opts.Adversary(s.step, attempt)
}

func (s *Session) apply(b Batch, advFor func(attempt int) runtime.Adversary) (StepReport, error) {
	rep := StepReport{Seq: b.Seq, Updates: len(b.Updates)}
	if s.closed {
		return rep, ErrClosed
	}
	if s.seen[b.Seq] {
		rep.Outcome = "duplicate"
		s.stats.Duplicates++
		s.emitUpdate(rep, nil)
		return rep, nil
	}
	patch, err := toPatch(b.Updates)
	var ng *graph.Graph
	var changed []int
	if err == nil {
		ng, changed, err = s.g.ApplyPatch(patch)
	}
	if err != nil {
		rep.Outcome = "rejected"
		rep.Err = err
		s.stats.Rejected++
		s.emitUpdate(rep, err)
		return rep, nil
	}
	s.seen[b.Seq] = true
	s.g = ng
	rep.Outcome = "applied"
	rep.Damaged = len(changed)
	s.stats.Applied++
	s.stats.Damaged += len(changed)
	s.emitUpdate(rep, nil)
	if err := s.healStep(&rep, advFor); err != nil {
		return rep, err
	}
	s.step++
	s.stats.Widened += rep.Widened
	if rep.FullRerun {
		s.stats.FullReruns++
	}
	s.stats.RecoveryRounds += rep.Rounds
	s.stats.RecoveryMessages += rep.Messages
	return rep, nil
}

func (s *Session) emitUpdate(rep StepReport, cause error) {
	if s.opts.Trace == nil {
		return
	}
	e := obs.Event{
		Type: obs.EvUpdate, Name: rep.Outcome, Node: rep.Seq,
		Value: int64(rep.Updates), Aux: int64(rep.Damaged),
	}
	if cause != nil {
		e.Err = cause.Error()
	}
	s.opts.Trace.Emit(e)
}

// healStep restores output validity on the freshly patched graph, walking
// the degradation ladder until an attempt verifies. Every rung is one
// heal.Extend over that rung's partial solution.
func (s *Session) healStep(rep *StepReport, advFor func(attempt int) runtime.Adversary) error {
	g := s.g
	if s.spec.Verify(g, s.out) == nil {
		// The stale output survived the patch untouched: 0 recovery rounds.
		return nil
	}
	basePartial, baseResidual := s.spec.Carve(g, s.out)
	tr := s.opts.Trace
	for attempt := 0; ; attempt++ {
		partial, residual := basePartial, baseResidual
		full := attempt >= s.opts.MaxRetries
		switch {
		case full:
			partial = allUndecided(g.N())
			residual = heal.Residual(partial)
			rep.FullRerun = true
		case attempt > 0:
			// The previous rung's damage estimate was too tight: demote a
			// 2·attempt-hop ball around the residual and re-carve. Two hops
			// per rung so the ball reaches past forced clean-up closures.
			partial, residual = heal.WidenCarve(g, basePartial, 2*attempt, s.spec.Carve)
			rep.Widened++
		}
		if tr != nil {
			tr.Emit(heal.CarveEvent(s.out, partial, residual))
		}
		cfg := s.runConfig()
		if !full {
			// The final rung abandons the envelope: prediction-free,
			// fault-free, uncapped — chaos is transient, and a session must
			// degrade to a from-scratch run rather than wedge.
			cfg.MaxRounds = s.opts.StepMaxRounds
			cfg.Adversary = advFor(attempt)
		}
		healed, res, err := heal.Extend(cfg, s.spec, partial)
		rep.Attempts++
		if err != nil && errors.Is(err, runtime.ErrConfig) {
			// The run never started; retrying cannot help.
			return fmt.Errorf("dynamic: healing run misconfigured: %w", err)
		}
		rep.Rounds += res.Rounds
		if err == nil {
			s.out = healed
			rep.Residual = len(residual)
			rep.Messages = res.Messages
			return nil
		}
		if full {
			return fmt.Errorf("dynamic: from-scratch rerun failed: %w", err)
		}
		if tr != nil {
			rung := "widen"
			if attempt+1 >= s.opts.MaxRetries {
				rung = "full"
			}
			tr.Emit(obs.Event{Type: obs.EvRetry, Name: rung, Value: int64(attempt), Err: err.Error()})
		}
	}
}

// runConfig is the engine setting every run of the session shares: the
// current graph, the engine mode, and the observability sinks.
func (s *Session) runConfig() runtime.Config {
	return runtime.Config{
		Graph:     s.g,
		Parallel:  s.opts.Parallel,
		Trace:     s.opts.Trace,
		Telemetry: s.opts.Telemetry,
	}
}

// allUndecided is the partial solution with no decided node: extending it
// is the prediction-free from-scratch run.
func allUndecided(n int) []int {
	partial := make([]int, n)
	for i := range partial {
		partial[i] = verify.Undecided
	}
	return partial
}

// ApplyStream delivers batches under stream chaos: the policy's seeded plan
// drops, duplicates, and reorders deliveries, and marks individual steps to
// run under engine chaos (a fresh, seed-shifted adversary per ladder
// attempt, so retries draw independent fault schedules). A nil policy
// delivers the stream verbatim through Apply. The returned reports are in
// delivery order.
func (s *Session) ApplyStream(batches []Batch, sp *fault.StreamPolicy) ([]StepReport, fault.StreamStats, error) {
	if sp == nil {
		reports := make([]StepReport, 0, len(batches))
		for _, b := range batches {
			rep, err := s.Apply(b)
			reports = append(reports, rep)
			if err != nil {
				return reports, fault.StreamStats{Batches: len(batches)}, err
			}
		}
		return reports, fault.StreamStats{Batches: len(batches)}, nil
	}
	slots, stats := fault.PlanStream(*sp, len(batches))
	reports := make([]StepReport, 0, len(slots))
	for _, slot := range slots {
		advFor := s.configuredAdversary
		if slot.Step != nil {
			pol := *slot.Step
			advFor = func(attempt int) runtime.Adversary {
				p := pol
				// A fresh seed-shifted adversary per attempt: retries must
				// draw independent fault schedules or they wedge identically.
				p.Seed += int64(attempt) * 104_729
				return fault.New(p)
			}
		}
		rep, err := s.apply(batches[slot.Batch], advFor)
		reports = append(reports, rep)
		if err != nil {
			return reports, stats, err
		}
	}
	return reports, stats, nil
}

func toPatch(updates []Update) (graph.Patch, error) {
	var p graph.Patch
	for _, u := range updates {
		switch u.Op {
		case Insert:
			p.Insert = append(p.Insert, [2]int{u.U, u.V})
		case Delete:
			p.Delete = append(p.Delete, [2]int{u.U, u.V})
		default:
			return graph.Patch{}, fmt.Errorf("%w: dynamic: unknown update op %d", runtime.ErrConfig, int(u.Op))
		}
	}
	return p, nil
}
