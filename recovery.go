package repro

import (
	"repro/internal/heal"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// RecoveryResult reports a self-healing run: the faulted primary run, the
// damage found, and the healing run's cost — the paper-style degradation
// metric (recovery rounds proportional to the damage, not the graph).
type RecoveryResult struct {
	// PrimaryErr is the primary run's error when it aborted — a contained
	// machine panic, a round-deadline hit, no termination, or a protocol
	// violation (e.g. corrupted payloads rejected by a template machine).
	// Recovery then proceeded from the last observed outputs. Nil when the
	// primary run completed.
	PrimaryErr error
	// Valid reports that the primary outputs verified as-is; no healing ran.
	Valid bool
	// Healed reports that a healing run executed and its output verified.
	Healed bool
	// Residual is the number of nodes the healing run had to re-decide
	// after carving (0 when Valid).
	Residual int
	// PrimaryRounds is the last round the primary run executed.
	PrimaryRounds int
	// PrimaryMessages counts the primary run's delivered messages.
	PrimaryMessages int
	// RecoveryRounds and RecoveryMessages are the healing run's cost — the
	// degradation metric (0 when Valid).
	RecoveryRounds   int
	RecoveryMessages int
	// Output is the final verified output vector: MIS bits, partner
	// identifiers, or colors, by node index.
	Output []int
}

// TotalRounds is the end-to-end cost: primary rounds plus recovery rounds.
func (r *RecoveryResult) TotalRounds() int { return r.PrimaryRounds + r.RecoveryRounds }

// runRecovered is the engine-level recovery path behind the Options.Recover
// flag on the generic run path (and so RunProblemWithRecovery).
func runRecovered(g *Graph, factory runtime.Factory, preds []any, opts Options, spec heal.Spec) (*RecoveryResult, error) {
	cfg := buildConfig(g, factory, preds, opts)
	report, err := heal.RunRecovered(cfg, spec)
	if err != nil {
		return nil, err
	}
	if opts.Trace != nil && !report.Valid {
		// η trajectory: the carve left Residual undecided nodes; after the
		// verified healing run the error measure is back to zero.
		opts.Trace.Emit(obs.Event{Type: obs.EvEta, Name: "residual", Value: int64(report.Residual)})
		opts.Trace.Emit(obs.Event{Type: obs.EvEta, Name: "healed", Value: 0})
	}
	return &RecoveryResult{
		PrimaryErr:       report.PrimaryErr,
		Valid:            report.Valid,
		Healed:           report.Healed,
		Residual:         report.Residual,
		PrimaryRounds:    report.PrimaryRounds,
		PrimaryMessages:  report.PrimaryMessages,
		RecoveryRounds:   report.RecoveryRounds,
		RecoveryMessages: report.RecoveryMessages,
		Output:           report.Output,
	}, nil
}

// asResult condenses a recovery into the run metrics: total rounds
// and messages across primary and healing runs. TerminatedAt is nil and
// MaxMsgBits -1 (per-run detail does not compose across the two runs).
func (r *RecoveryResult) asResult() Result {
	return Result{
		Rounds:     r.TotalRounds(),
		Messages:   r.PrimaryMessages + r.RecoveryMessages,
		MaxMsgBits: -1,
	}
}
