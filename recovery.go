package repro

import (
	"repro/internal/heal"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// RecoveryResult reports a self-healing run: the faulted primary run, the
// damage found, and the healing run's cost — the paper-style degradation
// metric (recovery rounds proportional to the damage, not the graph).
type RecoveryResult = heal.Report

// runRecovered is the engine-level recovery path behind the Options.Recover
// flag on the generic run path (and so RunProblemWithRecovery).
func runRecovered(g *Graph, factory runtime.Factory, preds []any, opts Options, spec heal.Spec) (*RecoveryResult, error) {
	report, err := heal.RunRecovered(buildConfig(g, factory, preds, opts), spec)
	if err != nil {
		return nil, err
	}
	if opts.Trace != nil && !report.Valid {
		// η trajectory: the carve left Residual undecided nodes; after the
		// verified healing run the error measure is back to zero.
		opts.Trace.Emit(obs.Event{Type: obs.EvEta, Name: "residual", Value: int64(report.Residual)})
		opts.Trace.Emit(obs.Event{Type: obs.EvEta, Name: "healed", Value: 0})
	}
	return report, nil
}

// asResult condenses a recovery into the run metrics: total rounds
// and messages across primary and healing runs. TerminatedAt is nil and
// MaxMsgBits -1 (per-run detail does not compose across the two runs).
func asResult(r *RecoveryResult) Result {
	return Result{
		Rounds:     r.TotalRounds(),
		Messages:   r.PrimaryMessages + r.RecoveryMessages,
		MaxMsgBits: -1,
	}
}
