package matching

import (
	"fmt"
	"math/rand"

	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/heal"
	"repro/internal/linegraph"
	"repro/internal/predict"
	"repro/internal/problem"
	"repro/internal/runtime"
	"repro/internal/verify"
)

func init() { problem.Register(descriptor()) }

// descriptor registers maximal matching (Section 8.1): the template
// instantiations, the η₁ error measure, the distributed checker, and the
// Simple-Template healing machinery.
func descriptor() problem.Descriptor {
	return problem.Descriptor{
		Name:        "matching",
		Doc:         "maximal matching (Section 8.1)",
		OutputLabel: "partners",
		Preds: func(g *graph.Graph, aux any, k int, seed int64) any {
			return predict.PerturbMatching(g, predict.PerfectMatching(g), k, rand.New(rand.NewSource(seed)))
		},
		EncodePreds: problem.IntPredCodec("matching"),
		Errors: func(g *graph.Graph, aux any, preds any) (string, error) {
			p, ok := preds.([]int)
			if !ok {
				return "", fmt.Errorf("matching: predictions must be []int, got %T", preds)
			}
			active := predict.MatchingBaseActive(g, p)
			return fmt.Sprintf("eta1=%d", predict.Eta1(predict.ErrorComponents(g, active))), nil
		},
		Finalize: problem.IntFinalizer("matching", verify.Matching),
		Checker:  check.Matching,
		Heal: &problem.Heal{
			Verify:        verify.Matching,
			Carve:         heal.CarveMatching,
			UndecidedPred: Unmatched,
		},
		Algorithms: []problem.Algorithm{
			{
				Name: "greedy", Template: problem.TemplateSolo,
				Reference: "3-round-group proposal algorithm alone", Bound: "3*ceil(n/2)+O(1)",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return Solo(MeasureUniform(0)), nil },
			},
			{
				Name: "simple", Template: problem.TemplateSimple,
				Reference: "Init + proposal algorithm", Bound: "3*floor(eta1/2)+5",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return SimpleGreedy(), nil },
			},
			{
				Name: "collect", Template: problem.TemplateSimple,
				Reference: "Init + collect-and-solve", Bound: "min{3*floor(eta1/2)+5, n+3}",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return SimpleCollect(), nil },
			},
			{
				Name: "consecutive", Template: problem.TemplateConsecutive,
				Reference: "collect-and-solve", Bound: "2eta+O(1), robust",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return ConsecutiveCollect(), nil },
			},
			{
				Name: "parallel", Template: problem.TemplateParallel,
				Reference: "fault-tolerant line-graph coloring + color classes", Bound: "min{3*floor(eta1/2)+5, O(Delta^2 log* d)}",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return ParallelColoring(), nil },
				MaxRounds: func(g *graph.Graph) int {
					return linegraph.EngineCap(g.N(), g.D(), g.MaxDegree())
				},
			},
		},
	}
}
