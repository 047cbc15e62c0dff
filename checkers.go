package repro

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/problem"
	"repro/internal/runtime"
)

// CheckResult is the outcome of a distributed local verification run
// (Section 1.3's locally-verifiable checking): per-node verdicts and whether
// every node accepted. The predictions form a correct solution if and only
// if AllAccept.
type CheckResult struct {
	// Run carries the round/message metrics (checkers take <= 2 rounds).
	Run Result
	// Verdicts holds 1 (accept) or 0 (reject) per node index.
	Verdicts []int
	// AllAccept reports whether every node accepted.
	AllAccept bool
}

func runChecker(g *Graph, factory runtime.Factory, preds []any, opts Options) (*CheckResult, error) {
	raw, err := runAndCollect(g, factory, preds, opts)
	if err != nil {
		return nil, err
	}
	out := &CheckResult{
		Run:       baseResult(raw),
		Verdicts:  make([]int, g.N()),
		AllAccept: true,
	}
	for i, o := range raw.Outputs {
		v, ok := o.(int)
		if !ok {
			return nil, fmt.Errorf("repro: checker node %d produced %T", g.ID(i), o)
		}
		out.Verdicts[i] = v
		if v == check.Reject {
			out.AllAccept = false
		}
	}
	return out, nil
}

// CheckPredictions runs the problem's constant-round distributed checker
// (Section 1.3) on a candidate solution given in the problem's prediction
// type ([]int, or []EdgePrediction for edge coloring): AllAccept iff preds
// is a correct solution of g.
func CheckPredictions(g *Graph, problemName string, preds any, opts Options) (*CheckResult, error) {
	d, err := problem.Get(problemName)
	if err != nil {
		return nil, err
	}
	encoded, err := d.EncodePreds(preds)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return runChecker(g, d.Checker(), encoded, opts)
}
