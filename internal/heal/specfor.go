package heal

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/problem"
	"repro/internal/runtime"
	"repro/internal/verify"
)

// SpecFor assembles the engine-level healing Spec from a descriptor's
// registered recovery machinery: the carved partial solution is extended by
// the "simple" variant — the Simple Template — of the healing problem: the
// problem itself unless the descriptor redirects, as the tree problem does
// to the general MIS template. It is the one resolution path shared by the
// registry run helpers and the dynamic session supervisor, so the two always
// agree on what "healing problem X" means.
func SpecFor(d *problem.Descriptor) (Spec, error) {
	h := d.Heal
	if h == nil {
		return Spec{}, fmt.Errorf("%w: heal: recovery is not supported for problem %q", runtime.ErrConfig, d.Name)
	}
	healProblem := h.HealProblem
	if healProblem == "" {
		healProblem = d.Name
	}
	hd, err := problem.Get(healProblem)
	if err != nil {
		return Spec{}, fmt.Errorf("heal: resolve healing problem: %w", err)
	}
	a, err := hd.Algorithm("simple")
	if err != nil {
		return Spec{}, fmt.Errorf("heal: resolve healing algorithm: %w", err)
	}
	factory, err := a.Build(problem.BuildCtx{})
	if err != nil {
		return Spec{}, fmt.Errorf("heal: build healing template: %w", err)
	}
	return Spec{
		Verify:        h.Verify,
		Carve:         h.Carve,
		HealFactory:   factory,
		UndecidedPred: h.UndecidedPred,
	}, nil
}

// WidenCarve grows the undecided region of an extendable partial solution by
// a BFS ball of the given hop radius and re-carves. It is the middle rung of
// the dynamic session's degradation ladder: when healing from a carve fails,
// the damage estimate was too tight — demoting every node within hops of the
// current residual forgets the decisions nearest the damage, and re-carving
// restores extendability (the carve functions treat verify.Undecided as "no
// decision"). hops <= 0 re-carves without widening.
func WidenCarve(g *graph.Graph, partial []int, hops int, carve func(*graph.Graph, []int) (p, r []int)) (widened, residual []int) {
	n := g.N()
	next := make([]int, n)
	copy(next, partial)
	frontier := Residual(partial)
	seen := make([]bool, n)
	for _, v := range frontier {
		seen[v] = true
	}
	for h := 0; h < hops && len(frontier) > 0; h++ {
		var grow []int
		for _, v := range frontier {
			for _, u := range g.Neighbors(v) {
				if !seen[u] {
					seen[u] = true
					next[u] = verify.Undecided
					grow = append(grow, int(u))
				}
			}
		}
		frontier = grow
	}
	return carve(g, next)
}
