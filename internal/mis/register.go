package mis

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/check"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/heal"
	"repro/internal/predict"
	"repro/internal/problem"
	"repro/internal/runtime"
	"repro/internal/verify"
)

func init() { problem.Register(descriptor()) }

// descriptor registers maximal independent set: every template instantiation
// of Sections 5–7 and 9.1–10, the MIS error measures, the two-round
// distributed checker, and the Simple-Template healing machinery.
func descriptor() problem.Descriptor {
	return problem.Descriptor{
		Name:        "mis",
		Doc:         "maximal independent set (Sections 5-7, 9.1, 10)",
		OutputLabel: "in-set",
		Preds: func(g *graph.Graph, aux any, k int, seed int64) any {
			return predict.FlipBits(predict.PerfectMIS(g), k, rand.New(rand.NewSource(seed)))
		},
		EncodePreds: problem.IntPredCodec("mis"),
		Errors: func(g *graph.Graph, aux any, preds any) (string, error) {
			p, ok := preds.([]int)
			if !ok {
				return "", fmt.Errorf("mis: predictions must be []int, got %T", preds)
			}
			active := predict.MISBaseActive(g, p)
			comps := predict.ErrorComponents(g, active)
			eta2, err := predict.Eta2(comps)
			if errors.Is(err, exact.ErrTooLarge) {
				eta2 = -1
			} else if err != nil {
				return "", err
			}
			return fmt.Sprintf("eta1=%d eta2=%d eta_bw=%d components=%d",
				predict.Eta1(comps), eta2, predict.EtaBW(g, p, active), len(comps)), nil
		},
		Finalize: problem.IntFinalizer("mis", verify.MIS),
		Checker:  check.MIS,
		Heal: &problem.Heal{
			Verify:        verify.MIS,
			Carve:         heal.CarveMIS,
			UndecidedPred: 0,
		},
		Algorithms: []problem.Algorithm{
			{
				Name: "greedy", Template: problem.TemplateSolo,
				Reference: "Greedy MIS (Algorithm 1) alone", Bound: "mu1 <= n",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return Solo(Greedy()), nil },
			},
			{
				Name: "simple", Template: problem.TemplateSimple,
				Reference: "Init + Greedy", Bound: "eta1+3 and eta2+4",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return SimpleGreedy(), nil },
			},
			{
				Name: "base", Template: problem.TemplateSimple,
				Reference: "Base + Greedy", Bound: "eta1+3",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return SimpleBase(), nil },
			},
			{
				Name: "bw", Template: problem.TemplateSimple,
				Reference: "Init + U_bw (Section 9.1)", Bound: "O(eta_bw)",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return SimpleBW(), nil },
			},
			{
				Name: "luby", Template: problem.TemplateSimple,
				Reference: "Init + Luby", Bound: "O(log n) w.h.p.", Seeded: true,
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return SimpleLuby(c.Seed), nil },
			},
			{
				Name: "collect", Template: problem.TemplateSimple,
				Reference: "Init + collect-and-solve", Bound: "min{eta1+3, n+3}",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return SimpleCollect(), nil },
			},
			{
				Name: "uniform", Template: problem.TemplateSimple,
				Reference: "Init + Delta-doubling coloring (Section 7.1)", Bound: "O(f(Delta') + log Delta' log* d)",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return SimpleUniform(), nil },
				MaxRounds: func(g *graph.Graph) int {
					return UniformMaxRounds(runtime.NodeInfo{N: g.N(), D: g.D(), Delta: g.MaxDegree()})
				},
			},
			{
				Name: "consecutive", Template: problem.TemplateConsecutive,
				Reference: "collect-and-solve", Bound: "2eta+O(1), robust",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return ConsecutiveCollect(), nil },
			},
			{
				Name: "decomp", Template: problem.TemplateConsecutive,
				Reference: "MPX decomposition", Bound: "2eta+O(1), robust", Seeded: true,
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return ConsecutiveDecomp(c.Seed), nil },
			},
			{
				Name: "interleaved", Template: problem.TemplateInterleaved,
				Reference: "MPX decomposition", Bound: "Corollary 10", Seeded: true,
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return InterleavedDecomp(c.Seed), nil },
			},
			{
				Name: "parallel", Template: problem.TemplateParallel,
				Reference: "fault-tolerant Linial + color classes (Corollary 12)", Bound: "min{eta2+4, O(Delta^2 log* d)}",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return ParallelColoring(), nil },
			},
			{
				Name: "lubysolo", Template: problem.TemplateSolo,
				Reference: "Luby alone (randomized baseline)", Bound: "O(log n) w.h.p.", Seeded: true,
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return Solo(Luby(c.Seed)), nil },
			},
		},
	}
}
