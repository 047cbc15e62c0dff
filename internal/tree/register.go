package tree

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

// rooted asserts the BuildCtx auxiliary value to the rooted forest the tree
// algorithms close over.
func rooted(aux any) (*Rooted, error) {
	r, ok := aux.(*Rooted)
	if !ok || r == nil {
		return nil, fmt.Errorf("tree: auxiliary instance data must be *tree.Rooted, got %T", aux)
	}
	return r, nil
}

// descriptor registers rooted-tree MIS (Section 9.2). The problem carries
// auxiliary instance data — the rooted forest — beyond the graph: NewAux
// orients an acyclic graph at node 0, and repro.RunTreeMIS passes a
// caller's own *Rooted. Healing runs through the general MIS machinery: an MIS of the
// underlying graph is what the tree algorithms compute too.
func descriptor() problem.Descriptor {
	return problem.Descriptor{
		Name:        "tree",
		Doc:         "rooted-tree MIS (Section 9.2)",
		OutputLabel: "in-set",
		NewAux: func(g *graph.Graph) (any, error) {
			if g.M() >= g.N() {
				return nil, fmt.Errorf("tree: requires an acyclic graph")
			}
			return RootAt(g, 0), nil
		},
		Preds: func(g *graph.Graph, aux any, k int, seed int64) any {
			return predict.FlipBits(predict.PerfectMIS(g), k, rand.New(rand.NewSource(seed)))
		},
		EncodePreds: problem.IntPredCodec("tree"),
		Errors: func(g *graph.Graph, aux any, preds any) (string, error) {
			r, err := rooted(aux)
			if err != nil {
				return "", err
			}
			p, ok := preds.([]int)
			if !ok {
				return "", fmt.Errorf("tree: predictions must be []int, got %T", preds)
			}
			return fmt.Sprintf("eta_t=%d", EtaT(r, p, predict.MISBaseActive(g, p))), nil
		},
		Finalize: problem.IntFinalizer("tree", verify.MIS),
		Checker:  check.MIS,
		Heal: &problem.Heal{
			Verify:        verify.MIS,
			Carve:         heal.CarveMIS,
			UndecidedPred: 0,
			HealProblem:   "mis",
		},
		Algorithms: []problem.Algorithm{
			{
				Name: "greedy", Template: problem.TemplateSolo,
				Reference: "Algorithm 6 alone", Bound: "ceil(h/2)+O(1)",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) {
					r, err := rooted(c.Aux)
					if err != nil {
						return nil, err
					}
					return Solo(r, RootsAndLeaves(0)), nil
				},
			},
			{
				Name: "simple", Template: problem.TemplateSimple,
				Reference: "Init + Algorithm 6", Bound: "ceil(eta_t/2)+5",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) {
					r, err := rooted(c.Aux)
					if err != nil {
						return nil, err
					}
					return SimpleRootsLeaves(r), nil
				},
			},
			{
				Name: "consecutive", Template: problem.TemplateConsecutive,
				Reference: "GPS/CV 3-coloring + conversion", Bound: "2*ceil(eta_t/2)+O(log* d), robust",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) {
					r, err := rooted(c.Aux)
					if err != nil {
						return nil, err
					}
					return ConsecutiveColoring(r), nil
				},
			},
			{
				Name: "parallel", Template: problem.TemplateParallel,
				Reference: "GPS/CV 3-coloring + conversion (Corollary 15)", Bound: "min{ceil(eta_t/2)+5, O(log* d)}",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) {
					r, err := rooted(c.Aux)
					if err != nil {
						return nil, err
					}
					return ParallelColoring(r), nil
				},
			},
		},
	}
}
