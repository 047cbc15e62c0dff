package bench

import (
	"fmt"
	"math/rand"

	"repro"
	"repro/internal/perf"
)

// dynamicSweep regenerates the dynamic-session tables in EXPERIMENTS.md.
//
// CH5 sweeps the update-batch size η across every problem with healing
// machinery: a session absorbs batches of η random edge updates, and cells
// report the mean healed residual and mean recovery rounds per batch — the
// degradation metric of the incremental step. CH6 fixes the batch size and
// scales the graph past 10^5 nodes: recovery rounds stay flat while n grows
// three orders of magnitude, the dynamic reading of the paper's
// damage-proportional recovery bound (rounds scale with η, not n).
// The ledger has one row per CH5 (problem, η) cell and one per CH6 graph
// size.
func dynamicSweep(p Params) ([]*Table, *perf.Ledger, error) {
	ledger := perf.New("dynamic", map[string]any{"parallel": p.Parallel})
	batch, err := batchSizeTable(p, ledger)
	if err != nil {
		return nil, nil, err
	}
	scale, err := scaleTable(p, ledger)
	if err != nil {
		return nil, nil, err
	}
	return []*Table{batch, scale}, ledger, nil
}

// sessionFamily builds the sweep graph for one problem: trees for the tree
// problem (its instances must be acyclic), sparse GNP otherwise.
func sessionFamily(name string, n int, rng *rand.Rand) *repro.Graph {
	if name == "tree" {
		return repro.RandomTree(n, rng)
	}
	return repro.GNP(n, 8.0/float64(n), rng)
}

// randomBatch draws one batch of k updates against the session's current
// graph: deletions of existing edges, mixed with insertions except on trees
// (delete-only churn keeps tree instances acyclic).
func randomBatch(name string, g *repro.Graph, seq, k int, rng *rand.Rand) repro.UpdateBatch {
	b := repro.UpdateBatch{Seq: seq}
	edges := g.Edges()
	for i := 0; i < k; i++ {
		if name != "tree" && rng.Intn(2) == 0 {
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			if u != v {
				b.Updates = append(b.Updates, repro.EdgeUpdate{Op: repro.EdgeInsert, U: u, V: v})
			}
		} else if len(edges) > 0 {
			e := edges[rng.Intn(len(edges))]
			b.Updates = append(b.Updates, repro.EdgeUpdate{Op: repro.EdgeDelete, U: e[0], V: e[1]})
		}
	}
	return b
}

func batchSizeTable(p Params, ledger *perf.Ledger) (*Table, error) {
	const (
		n       = 300
		batches = 4
	)
	sizes := []int{1, 2, 4, 8, 16, 32}
	t := &Table{
		ID:    "CH5",
		Title: fmt.Sprintf("dynamic sessions, recovery vs batch size: n=%d, %d batches per cell, all healing problems", n, batches),
	}
	t.Columns = append(t.Columns, "problem")
	for _, k := range sizes {
		t.Columns = append(t.Columns, fmt.Sprintf("η=%d", k))
	}
	for pi, prob := range repro.Problems() {
		if !prob.CanHeal {
			continue
		}
		cells := []any{prob.Name}
		for _, k := range sizes {
			rng := repro.NewRand(int64(100*pi + k))
			g := sessionFamily(prob.Name, n, rng)
			s, err := repro.NewSession(g, prob.Name, repro.SessionOptions{Parallel: p.Parallel, Trace: p.Trace, Telemetry: p.Telemetry})
			if err != nil {
				return nil, fmt.Errorf("dynamic sweep %s η=%d: %w", prob.Name, k, err)
			}
			residual, rounds := 0, 0
			for b := 0; b < batches; b++ {
				step, err := s.Apply(randomBatch(prob.Name, s.Graph(), b, k, rng))
				if err != nil {
					return nil, fmt.Errorf("dynamic sweep %s η=%d batch %d: %w", prob.Name, k, b, err)
				}
				residual += step.Residual
				rounds += step.Rounds
			}
			s.Close()
			cells = append(cells, fmt.Sprintf("%d res, %d rds", residual/batches, rounds/batches))
			ledger.AddRow(
				fmt.Sprintf("%s_eta%d", prob.Name, k),
				map[string]string{"problem": prob.Name, "eta": fmt.Sprint(k)},
				map[string]float64{
					"residual":        float64(residual) / batches,
					"recovery_rounds": float64(rounds) / batches,
				})
		}
		t.AddRow(cells...)
	}
	t.Note("cells: mean healed residual (nodes re-decided) and mean recovery rounds per batch of η random edge updates")
	t.Note("graphs: GNP with mean degree 8 (random trees for the tree problem, delete-only churn); sessions heal via the Simple Template seeded with the stale output")
	return t, nil
}

func scaleTable(p Params, ledger *perf.Ledger) (*Table, error) {
	const (
		batchSize = 8
		batches   = 3
	)
	sizes := []int{1_000, 10_000, 100_000, 250_000}
	t := &Table{
		ID:      "CH6",
		Title:   fmt.Sprintf("dynamic sessions, recovery vs graph size: mis, Barabási–Albert m=4, batches of η=%d updates", batchSize),
		Columns: []string{"n", "m", "open rounds", "recovery rounds/batch", "residual/batch"},
	}
	for _, n := range sizes {
		rng := repro.NewRand(int64(n))
		g := repro.BarabasiAlbert(n, 4, rng)
		s, err := repro.NewSession(g, "mis", repro.SessionOptions{Parallel: p.Parallel, Trace: p.Trace, Telemetry: p.Telemetry})
		if err != nil {
			return nil, fmt.Errorf("dynamic scale n=%d: %w", n, err)
		}
		residual, rounds := 0, 0
		for b := 0; b < batches; b++ {
			step, err := s.Apply(randomBatch("mis", s.Graph(), b, batchSize, rng))
			if err != nil {
				return nil, fmt.Errorf("dynamic scale n=%d batch %d: %w", n, b, err)
			}
			residual += step.Residual
			rounds += step.Rounds
		}
		st := s.Close()
		t.AddRow(n, g.M(), st.InitialRounds, rounds/batches, residual/batches)
		ledger.AddRow(
			fmt.Sprintf("scale_mis_n%d", n),
			map[string]string{"problem": "mis", "n": fmt.Sprint(n)},
			map[string]float64{
				"edges":           float64(g.M()),
				"open_rounds":     float64(st.InitialRounds),
				"recovery_rounds": float64(rounds) / batches,
				"residual":        float64(residual) / batches,
			})
	}
	t.Note("recovery rounds track the batch size, not n: the healed residual and its extension cost stay flat while n grows 250×")
	t.Note("the opening prediction-free run is the contrast: its rounds grow with the graph (≈ log n here), and its per-round work is Θ(n+m) — exactly what a session amortizes away")
	return t, nil
}
