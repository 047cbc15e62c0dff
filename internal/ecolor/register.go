package ecolor

import (
	"fmt"
	"math/rand"

	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/linegraph"
	"repro/internal/predict"
	"repro/internal/problem"
	"repro/internal/runtime"
	"repro/internal/verify"
)

func init() { problem.Register(descriptor()) }

// descriptor registers (2Δ−1)-edge coloring (Section 8.3). The outputs are
// per-node color vectors whose endpoint agreement is verified centrally;
// there is no healing machinery (the int-vector carving does not apply).
func descriptor() problem.Descriptor {
	return problem.Descriptor{
		Name:        "ecolor",
		Doc:         "(2Delta-1)-edge coloring (Section 8.3)",
		OutputLabel: "edge colors",
		Preds: func(g *graph.Graph, aux any, k int, seed int64) any {
			return predict.PerturbEColor(g, predict.PerfectEColor(g), k, rand.New(rand.NewSource(seed)))
		},
		EncodePreds: func(preds any) ([]any, error) {
			switch p := preds.(type) {
			case nil:
				return nil, nil
			case []predict.EdgePrediction:
				if p == nil {
					return nil, nil
				}
				out := make([]any, len(p))
				for i, v := range p {
					out[i] = []int(v)
				}
				return out, nil
			case []any:
				return p, nil
			default:
				return nil, fmt.Errorf("ecolor: predictions must be []predict.EdgePrediction, got %T", preds)
			}
		},
		Errors: func(g *graph.Graph, aux any, preds any) (string, error) {
			p, ok := preds.([]predict.EdgePrediction)
			if !ok {
				return "", fmt.Errorf("ecolor: predictions must be []predict.EdgePrediction, got %T", preds)
			}
			uncolored := predict.EColorBaseUncolored(g, p)
			return fmt.Sprintf("eta1=%d", predict.Eta1(predict.EdgeErrorComponents(g, uncolored))), nil
		},
		Finalize: func(g *graph.Graph, aux any, outs []any) (problem.Solution, error) {
			vecs := make([][]int, g.N())
			for i, o := range outs {
				v, ok := o.([]int)
				if !ok {
					return problem.Solution{}, fmt.Errorf("ecolor: node %d produced %T, want []int", g.ID(i), o)
				}
				vecs[i] = v
			}
			colors, err := verify.NodeEdgeColorsAgree(g, vecs)
			if err != nil {
				return problem.Solution{}, err
			}
			if g.M() > 0 {
				if err := verify.EColor(g, colors); err != nil {
					return problem.Solution{}, err
				}
			}
			return problem.Solution{Vectors: vecs, Edge: colors}, nil
		},
		Checker: check.EColor,
		Algorithms: []problem.Algorithm{
			{
				Name: "greedy", Template: problem.TemplateSolo,
				Reference: "distance-2 measure-uniform algorithm alone", Bound: "2*mu1+O(1)",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return Solo(MeasureUniform(0)), nil },
			},
			{
				Name: "simple", Template: problem.TemplateSimple,
				Reference: "Base + distance-2 measure-uniform algorithm", Bound: "2eta1+2",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return SimpleGreedy(), nil },
			},
			{
				Name: "collect", Template: problem.TemplateSimple,
				Reference: "Base + collect-and-solve", Bound: "min{2eta1+2, n+3}",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return SimpleCollect(), nil },
			},
			{
				Name: "consecutive", Template: problem.TemplateConsecutive,
				Reference: "collect-and-solve", Bound: "2eta+O(1), robust",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return ConsecutiveCollect(), nil },
			},
			{
				Name: "parallel", Template: problem.TemplateParallel,
				Reference: "fault-tolerant line-graph coloring + repair", Bound: "min{2eta1+O(1), O(Delta^2 log* d)}",
				Build: func(c problem.BuildCtx) (runtime.Factory, error) { return ParallelColoring(), nil },
				MaxRounds: func(g *graph.Graph) int {
					return linegraph.EngineCap(g.N(), g.D(), g.MaxDegree())
				},
			},
		},
	}
}
