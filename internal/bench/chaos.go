package bench

import (
	"fmt"

	"repro"
	"repro/internal/obs"
	"repro/internal/perf"
)

// chaosSweep regenerates the fault-rate × η degradation tables in
// EXPERIMENTS.md: the Simple Template of every registered problem with
// healing machinery runs under a seeded chaos adversary and self-heals via
// RunProblemWithRecovery; cells report the end-to-end rounds (primary +
// recovery) and the carved residual that the healing run had to re-decide.
// Each problem runs on a graph family its instances accept: sparse GNP, or
// random trees for the tree problem (whose instances must be acyclic), so
// every healing problem appears in the tables. It drives the public recovery
// API, as a library caller would. A non-nil p.Trace captures every run's
// event trace; the ledger has one row per (problem, rate, flips) cell.
func chaosSweep(p Params) ([]*Table, *perf.Ledger, error) {
	const (
		n      = 120
		edgeP  = 0.06
		trials = 3
	)
	rates := []float64{0, 0.1, 0.25, 0.5}
	flipss := []int{0, 8, 32}

	ledger := perf.New("chaos", map[string]any{
		"n": n, "p": edgeP, "trials": trials, "rates": rates, "flips": flipss,
	})
	var tables []*Table
	for pi, prob := range repro.Problems() {
		if !prob.CanHeal {
			continue
		}
		family := fmt.Sprintf("GNP(%d, %.2f)", n, edgeP)
		if prob.Name == "tree" {
			family = fmt.Sprintf("random tree, n=%d", n)
		}
		t := &Table{
			ID:    fmt.Sprintf("CH%d", len(tables)+1),
			Title: fmt.Sprintf("chaos degradation, %s: %s, Simple Template, self-healing, %d trials", prob.Name, family, trials),
		}
		t.Columns = append(t.Columns, "fault rate")
		for _, f := range flipss {
			t.Columns = append(t.Columns, fmt.Sprintf("η=%d flips", f))
		}
		healedRuns := 0
		for _, rate := range rates {
			cells := []any{fmt.Sprintf("%.2f", rate)}
			for _, flips := range flipss {
				primary, recovery, residual, cellHealed := 0, 0, 0, 0
				for trial := 0; trial < trials; trial++ {
					seed := int64(1000*pi + 100*trial + flips)
					var g *repro.Graph
					if prob.Name == "tree" {
						g = repro.RandomTree(n, repro.NewRand(seed))
					} else {
						g = repro.GNP(n, edgeP, repro.NewRand(seed))
					}
					preds, err := repro.GeneratePreds(prob.Name, g, flips, seed+1)
					if err != nil {
						return nil, nil, fmt.Errorf("chaos sweep %s rate %.2f flips %d: %w", prob.Name, rate, flips, err)
					}
					// A modest cap cuts off primaries that drop faults have
					// wedged (lost notifications break termination detection);
					// the healing run uses the engine default.
					opts := repro.Options{MaxRounds: 60, Trace: p.Trace, Telemetry: p.Telemetry}
					if rate > 0 {
						opts.Adversary = repro.NewChaos(repro.ChaosPolicy{
							Seed:      seed + 2,
							Drop:      rate,
							Duplicate: rate / 2,
							Crash:     rate / 4,
						})
					}
					res, err := repro.RunProblemWithRecovery(g, prob.Name, preds, opts)
					if err != nil {
						return nil, nil, fmt.Errorf("chaos sweep %s rate %.2f flips %d: %w", prob.Name, rate, flips, err)
					}
					primary += res.PrimaryRounds
					recovery += res.RecoveryRounds
					residual += res.Residual
					if res.Healed {
						cellHealed++
					}
				}
				healedRuns += cellHealed
				cells = append(cells, fmt.Sprintf("%d+%d rds, %d res", primary/trials, recovery/trials, residual/trials))
				ledger.AddRow(
					fmt.Sprintf("%s_rate%03d_flips%d", prob.Name, int(rate*100), flips),
					map[string]string{"problem": prob.Name, "rate": fmt.Sprintf("%.2f", rate), "flips": fmt.Sprint(flips)},
					map[string]float64{
						"primary_rounds":  float64(primary) / trials,
						"recovery_rounds": float64(recovery) / trials,
						"residual":        float64(residual) / trials,
						"healed_runs":     float64(cellHealed),
					})
			}
			t.AddRow(cells...)
		}
		t.Note("cells: mean primary+recovery rounds and mean carved residual; %d/%d runs healed", healedRuns, len(rates)*len(flipss)*trials)
		t.Note("policy: drop=rate, duplicate=rate/2, crash=rate/4; corruption aborts template runs outright and is exercised by the recovery tests instead")
		t.Note("per-phase round breakdown: cells split end-to-end rounds into the heal phases (primary -> recovery); the final CH table traces one run's η trajectory")
		tables = append(tables, t)
	}
	// CH5 and CH6 are the dynamic-session tables (the dynamic sweep); the
	// trajectory table stays the final CH table after them.
	t, err := etaTrajectoryTable(len(tables)+3, p.Trace)
	if err != nil {
		return nil, nil, err
	}
	return append(tables, t), ledger, nil
}

// etaTrajectoryTable traces one self-healing MIS run end to end and renders
// its η trajectory: the input prediction error, the carved residual the
// healing run had to re-decide, and the post-heal error (zero by
// construction — the healed output verifies). The wrapper phase marks
// (primary -> recovery -> healed) and per-run round costs come from the same
// trace, so the table is exactly what `dgp-trace summarize` prints for the
// run.
func etaTrajectoryTable(id int, shared *obs.Recorder) (*Table, error) {
	const (
		n     = 120
		p     = 0.06
		rate  = 0.5
		flips = 32
		seed  = int64(42)
	)
	rec := repro.NewTraceRecorder(0)
	g := repro.GNP(n, p, repro.NewRand(seed))
	preds, err := repro.GeneratePreds("mis", g, flips, seed+1)
	if err != nil {
		return nil, fmt.Errorf("eta trajectory: %w", err)
	}
	res, err := repro.RunProblemWithRecovery(g, "mis", preds, repro.Options{
		MaxRounds: 60,
		Trace:     rec,
		Adversary: repro.NewChaos(repro.ChaosPolicy{
			Seed:      seed + 2,
			Drop:      rate,
			Duplicate: rate / 2,
			Crash:     rate / 4,
		}),
	})
	if err != nil {
		return nil, fmt.Errorf("eta trajectory: %w", err)
	}
	events := rec.Events()
	sum := obs.Summarize(events)
	t := &Table{
		ID:      fmt.Sprintf("CH%d", id),
		Title:   fmt.Sprintf("η trajectory of one healed run: mis, GNP(%d, %.2f), fault rate %.2f, %d flips", n, p, rate, flips),
		Columns: []string{"snapshot", "η", "detail"},
	}
	for _, e := range sum.Etas {
		detail := e.Text
		value := fmt.Sprintf("%d", e.Value)
		switch e.Name {
		case "input":
			// The input snapshot is the full measure breakdown in the
			// detail column; there is no single scalar η.
			value = "-"
		case "residual":
			if detail == "" {
				detail = "nodes left undecided by the carve"
			}
		case "healed":
			if detail == "" {
				detail = "healed output verified"
			}
		}
		t.AddRow(e.Name, value, detail)
	}
	t.Note("phases: %s", marksLine(sum))
	t.Note("rounds: primary=%d recovery=%d residual=%d (healed=%v)",
		res.PrimaryRounds, res.RecoveryRounds, res.Residual, res.Healed)
	if shared != nil {
		for _, e := range events {
			shared.Emit(e)
		}
	}
	return t, nil
}

// marksLine renders the wrapper phase marks, or a placeholder for a run that
// was already valid.
func marksLine(sum obs.Summary) string {
	if len(sum.Marks) == 0 {
		return "(none)"
	}
	line := sum.Marks[0]
	for _, m := range sum.Marks[1:] {
		line += " -> " + m
	}
	return line
}
