package vcolor

import (
	"fmt"
	"math/rand"

	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/heal"
	"repro/internal/predict"
	"repro/internal/problem"
	"repro/internal/runtime"
	"repro/internal/verify"
)

func init() { problem.Register(descriptor()) }

// descriptor registers (Δ+1)-vertex coloring (Section 8.2): the template
// instantiations over the list-aware Linial reference, the η₁ error measure,
// the distributed checker, and the Simple-Template healing machinery.
func descriptor() problem.Descriptor {
	return problem.Descriptor{
		Name:        "vcolor",
		Doc:         "(Delta+1)-vertex coloring (Section 8.2)",
		OutputLabel: "colors",
		Preds: func(g *graph.Graph, aux any, k int, seed int64) any {
			return predict.PerturbVColor(g, predict.PerfectVColor(g), k, rand.New(rand.NewSource(seed)))
		},
		EncodePreds: problem.IntPredCodec("vcolor"),
		Errors: func(g *graph.Graph, aux any, preds any) (string, error) {
			p, ok := preds.([]int)
			if !ok {
				return "", fmt.Errorf("vcolor: predictions must be []int, got %T", preds)
			}
			active := predict.VColorBaseActive(g, p)
			return fmt.Sprintf("eta1=%d", predict.Eta1(predict.ErrorComponents(g, active))), nil
		},
		Finalize: problem.IntFinalizer("vcolor", verify.VColor),
		Checker:  check.VColor,
		Heal: &problem.Heal{
			Verify:        verify.VColor,
			Carve:         heal.CarveVColor,
			UndecidedPred: 0,
		},
		Algorithms: []problem.Algorithm{
			{
				Name: "greedy", Template: problem.TemplateSolo,
				Reference: "measure-uniform list coloring alone", Bound: "mu1 <= n",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return Solo(MeasureUniform(0)), nil },
			},
			{
				Name: "simple", Template: problem.TemplateSimple,
				Reference: "Init + measure-uniform list coloring", Bound: "eta1+2",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return SimpleGreedy(), nil },
			},
			{
				Name: "linial", Template: problem.TemplateSimple,
				Reference: "Init + list-aware Linial", Bound: "2 + O(Delta^2 log* d)",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return SimpleLinial(), nil },
			},
			{
				Name: "consecutive", Template: problem.TemplateConsecutive,
				Reference: "list-aware Linial", Bound: "2eta1+O(1), robust",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return ConsecutiveLinial(), nil },
			},
			{
				Name: "standalone", Template: problem.TemplateSolo,
				Reference: "Linial coloring alone (no predictions)", Bound: "O(Delta^2 log* d)",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return Solo(LinialStandalone()), nil },
			},
			{
				Name: "interleaved", Template: problem.TemplateInterleaved,
				Reference: "list-aware Linial", Bound: "2eta1+O(1), robust",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return InterleavedLinial(), nil },
			},
			{
				Name: "parallel", Template: problem.TemplateParallel,
				Reference: "fault-tolerant Linial + palette repair", Bound: "min{eta1+O(1), O(Delta^2 log* d)}",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return ParallelLinial(), nil },
			},
		},
	}
}
