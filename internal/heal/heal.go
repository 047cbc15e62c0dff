// Package heal turns a faulted run's outputs back into a valid solution.
//
// A run under chaos (message loss, corruption, crashes, contained panics)
// leaves behind a possibly-invalid, possibly-incomplete output vector. The
// carving functions demote every output that cannot stand — invalid values,
// conflicting pairs, decisions whose justification is gone — to
// verify.Undecided, yielding an extendable partial solution in the paper's
// Section 3 sense: some maximal/proper solution of the whole graph contains
// it. Extend is the one healing run: it replays the paper's machinery on a
// partial solution — the decided outputs are handed to the problem's Simple
// Template as predictions, whose initialization (Section 4) keeps every
// decided node (the one-round clean-up finds nothing to repair on an
// extendable partial solution) and whose measure-uniform part extends the
// residual — then decodes and verifies the output. The recovery cost is the
// degradation metric: rounds proportional to the damage, not to the graph.
// RunRecovered (a faulted run healed in place) and the dynamic session's
// degradation ladder both heal through Extend.
package heal

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/verify"
)

// CarveMIS reduces a damaged MIS output vector (entries outside {0, 1} mean
// undecided) to an extendable partial MIS: conflicting 1–1 pairs are
// demoted, undecided neighbors of surviving in-set nodes are closed to 0
// (the Section 4 clean-up rule, applied centrally), and 0s with no in-set
// neighbor are demoted. The result passes verify.MISPartialExtendable; the
// returned residual lists the node indices left undecided.
func CarveMIS(g *graph.Graph, out []int) (partial []int, residual []int) {
	n := g.N()
	partial = make([]int, n)
	for v := 0; v < n; v++ {
		partial[v] = verify.Undecided
		if v < len(out) && (out[v] == 0 || out[v] == 1) {
			partial[v] = out[v]
		}
	}
	// Demote both endpoints of every in-set conflict.
	var demote []int
	for v := 0; v < n; v++ {
		if partial[v] != 1 {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if partial[u] == 1 {
				demote = append(demote, v, int(u))
			}
		}
	}
	for _, v := range demote {
		partial[v] = verify.Undecided
	}
	// Clean-up: undecided neighbors of surviving in-set nodes are out.
	for v := 0; v < n; v++ {
		if partial[v] != 1 {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if partial[u] == verify.Undecided {
				partial[u] = 0
			}
		}
	}
	// A 0 with no surviving in-set neighbor has lost its justification.
	for v := 0; v < n; v++ {
		if partial[v] != 0 {
			continue
		}
		justified := false
		for _, u := range g.Neighbors(v) {
			if partial[u] == 1 {
				justified = true
				break
			}
		}
		if !justified {
			partial[v] = verify.Undecided
		}
	}
	return partial, Residual(partial)
}

// CarveMatching reduces a damaged matching output vector (partner
// identifier per node, 0 for decided-unmatched, anything else invalid) to
// an extendable partial matching: non-mutual or non-neighbor matches are
// demoted, undecided nodes whose neighbors are all matched are closed to
// unmatched (the clean-up rule), and unmatched decisions with a
// not-yet-matched neighbor are demoted. Passes
// verify.MatchingPartialExtendable.
func CarveMatching(g *graph.Graph, out []int) (partial []int, residual []int) {
	n := g.N()
	partial = make([]int, n)
	for v := 0; v < n; v++ {
		partial[v] = verify.Undecided
		if v >= len(out) {
			continue
		}
		switch {
		case out[v] == 0:
			partial[v] = 0
		case out[v] > 0:
			u := g.NeighborByID(v, out[v])
			if u >= 0 && u < len(out) && out[u] == g.ID(v) {
				partial[v] = out[v]
			}
		}
	}
	// Clean-up: an undecided node whose neighbors are all matched can only
	// ever be unmatched.
	for v := 0; v < n; v++ {
		if partial[v] != verify.Undecided {
			continue
		}
		all := true
		for _, u := range g.Neighbors(v) {
			if partial[u] <= 0 {
				all = false
				break
			}
		}
		if all {
			partial[v] = 0
		}
	}
	// A decided-unmatched node next to an unmatched or undecided neighbor
	// may yet be needed for maximality: demote it.
	for v := 0; v < n; v++ {
		if partial[v] != 0 {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if partial[u] <= 0 {
				partial[v] = verify.Undecided
				break
			}
		}
	}
	return partial, Residual(partial)
}

// CarveVColor reduces a damaged (Δ+1)-coloring output vector to a proper
// partial coloring: out-of-palette values and both endpoints of every
// monochromatic edge are demoted. Passes verify.VColorPartial (every proper
// partial (Δ+1)-coloring is extendable).
func CarveVColor(g *graph.Graph, out []int) (partial []int, residual []int) {
	n := g.N()
	palette := g.MaxDegree() + 1
	partial = make([]int, n)
	for v := 0; v < n; v++ {
		partial[v] = verify.Undecided
		if v < len(out) && out[v] >= 1 && out[v] <= palette {
			partial[v] = out[v]
		}
	}
	var demote []int
	for v := 0; v < n; v++ {
		if partial[v] == verify.Undecided {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if int(u) > v && partial[u] == partial[v] {
				demote = append(demote, v, int(u))
			}
		}
	}
	for _, v := range demote {
		partial[v] = verify.Undecided
	}
	return partial, Residual(partial)
}

// Residual lists the node indices a partial solution leaves undecided.
func Residual(partial []int) []int {
	var res []int
	for v, p := range partial {
		if p == verify.Undecided {
			res = append(res, v)
		}
	}
	return res
}

// CarveEvent is the trace record of one carve: Value is the residual (nodes
// left undecided), Aux how many decided entries of out the carve demoted.
func CarveEvent(out, partial, residual []int) obs.Event {
	demoted := 0
	for i, p := range partial {
		if p == verify.Undecided && i < len(out) && out[i] != verify.Undecided {
			demoted++
		}
	}
	return obs.Event{Type: obs.EvCarve, Value: int64(len(residual)), Aux: int64(demoted)}
}

// Spec describes one problem's recovery machinery for RunRecovered and
// Extend.
type Spec struct {
	// Verify accepts a complete output vector iff it is a valid solution.
	Verify func(g *graph.Graph, out []int) error
	// Carve reduces a damaged output vector to an extendable partial
	// solution plus the residual (undecided node indices).
	Carve func(g *graph.Graph, out []int) (partial, residual []int)
	// HealFactory is the problem's Simple Template: fed the carved partial
	// solution as predictions, its initialization keeps every decided node
	// and its measure-uniform part extends the residual.
	HealFactory runtime.Factory
	// UndecidedPred is the prediction value standing in for an undecided
	// node in the healing run (the problem's "no prediction" value).
	UndecidedPred int
}

// Extend is the one healing run: it hands the partial solution to the
// problem's Simple Template as predictions (undecided nodes predict
// spec.UndecidedPred), runs it under cfg's engine settings, and decodes and
// verifies the output. cfg's Factory and Predictions are replaced. The
// result is the run's, partial when it aborted (nil only for a config
// error), so a caller can account the rounds either way; an output that
// fails spec.Verify returns an error matching ErrInvalid.
func Extend(cfg runtime.Config, spec Spec, partial []int) ([]int, *runtime.Result, error) {
	preds := make([]any, len(partial))
	for i, p := range partial {
		if p == verify.Undecided {
			preds[i] = spec.UndecidedPred
		} else {
			preds[i] = p
		}
	}
	cfg.Factory = spec.HealFactory
	cfg.Predictions = preds
	res, err := runtime.Run(cfg)
	if err != nil {
		return nil, res, err
	}
	out := decode(res.Outputs)
	if err := spec.Verify(cfg.Graph, out); err != nil {
		return nil, res, invalid{err}
	}
	return out, res, nil
}

// ErrInvalid matches an Extend error whose run completed but whose output
// failed spec.Verify, as opposed to an aborted run.
var ErrInvalid = errors.New("heal: invalid solution")

// invalid marks a verifier error as ErrInvalid; its text is the verifier's
// alone.
type invalid struct{ error }

func (e invalid) Unwrap() []error { return []error{e.error, ErrInvalid} }

// decode reads an engine output vector as ints; anything else is undecided.
func decode(raw []any) []int {
	out := make([]int, len(raw))
	for i, o := range raw {
		out[i] = verify.Undecided
		if v, ok := o.(int); ok {
			out[i] = v
		}
	}
	return out
}

// Report is the outcome of RunRecovered.
type Report struct {
	// PrimaryErr is the primary run's error when it aborted — a contained
	// machine panic, a round-deadline hit, no termination, or a protocol
	// violation (e.g. corrupted payloads rejected by a template machine).
	// Recovery then proceeded from the outputs settled by the last round it
	// completed. Nil when the primary run completed.
	PrimaryErr error
	// PrimaryRounds is the primary Result's Rounds: the last round it
	// completed when it aborted.
	PrimaryRounds int
	// PrimaryMessages counts the primary run's delivered messages (0 when
	// it aborted).
	PrimaryMessages int
	// Valid reports whether the primary outputs already verified; no
	// healing runs in that case.
	Valid bool
	// Healed reports that a healing run executed and its output verified.
	Healed bool
	// Residual is the number of undecided nodes after carving — the size of
	// the re-solved subproblem (0 when Valid).
	Residual int
	// RecoveryRounds and RecoveryMessages are the healing run's cost — the
	// degradation metric (0 when Valid).
	RecoveryRounds   int
	RecoveryMessages int
	// Output is the final verified output vector: MIS bits, partner
	// identifiers, or colors, by node index.
	Output []int
}

// TotalRounds is the end-to-end degradation metric: primary rounds plus
// recovery rounds.
func (r *Report) TotalRounds() int { return r.PrimaryRounds + r.RecoveryRounds }

// RunRecovered executes cfg, validates its outputs with spec.Verify, and on
// any damage — an invalid solution, or an aborted run — carves the outputs
// settled by the run's last completed round into an extendable partial
// solution and Extends it to heal. The healing run keeps cfg's engine mode,
// trace and telemetry but none of its faults or caps: crashed nodes are
// treated as recovered (chaos is transient), so the healed solution covers
// the whole graph. Config errors (a run that never started) are returned
// as-is; a healing run that itself fails or produces an invalid solution is
// an error.
func RunRecovered(cfg runtime.Config, spec Spec) (*Report, error) {
	g := cfg.Graph
	tr := cfg.Trace
	if tr != nil {
		tr.Emit(obs.Event{Type: obs.EvPhase, Name: "primary"})
	}
	res, err := runtime.Run(cfg)
	if err != nil && errors.Is(err, runtime.ErrConfig) {
		// The run never started: misconfiguration, not damage.
		return nil, err
	}
	report := &Report{PrimaryErr: err, PrimaryRounds: res.Rounds}
	if err == nil {
		report.PrimaryMessages = res.Messages
	}
	outs := decode(res.Outputs)
	if err == nil && spec.Verify(g, outs) == nil {
		report.Valid = true
		report.Output = outs
		if tr != nil {
			tr.Emit(obs.Event{Type: obs.EvPhase, Name: "valid"})
		}
		return report, nil
	}
	partial, residual := spec.Carve(g, outs)
	report.Residual = len(residual)
	if tr != nil {
		tr.Emit(CarveEvent(outs, partial, residual))
		tr.Emit(obs.Event{Type: obs.EvPhase, Name: "recovery"})
	}
	healed, healRes, err := Extend(runtime.Config{
		Graph:     g,
		Parallel:  cfg.Parallel,
		Shards:    cfg.Shards,
		Partition: cfg.Partition,
		Trace:     tr,
		Telemetry: cfg.Telemetry,
	}, spec, partial)
	if errors.Is(err, ErrInvalid) {
		return nil, fmt.Errorf("heal: recovery produced an invalid solution: %w", err)
	}
	if err != nil {
		return nil, fmt.Errorf("heal: recovery run failed: %w", err)
	}
	report.Healed = true
	report.RecoveryRounds = healRes.Rounds
	report.RecoveryMessages = healRes.Messages
	report.Output = healed
	if tr != nil {
		tr.Emit(obs.Event{Type: obs.EvPhase, Name: "healed"})
	}
	return report, nil
}
