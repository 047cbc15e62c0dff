package repro

import (
	"fmt"
	"strings"

	"repro/internal/heal"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/runtime"

	// Each problem package registers its descriptor in init(); import them
	// all here so the registry is complete regardless of which problem
	// packages the rest of the package happens to reference.
	_ "repro/internal/ecolor"
	_ "repro/internal/matching"
	_ "repro/internal/mis"
	_ "repro/internal/tree"
	_ "repro/internal/vcolor"
)

// This file is the registry-driven generic problem layer: every registered
// (problem, algorithm) pair runs through one code path — prediction
// generation, error summaries, the run itself (with recovery), and
// distributed checking — with no per-problem dispatch. It is the package's
// run API: the CLIs consume it directly, and the two entry points in
// problems.go feed the same run body, so adding a problem or an algorithm is
// one registration in its package, not an edit across six layers.

// AlgorithmInfo describes one registered algorithm variant.
type AlgorithmInfo struct {
	// Problem and Name address the variant in RunProblem.
	Problem, Name string
	// Template is the paper template instantiated: solo, simple,
	// consecutive, interleaved, or parallel.
	Template string
	// Reference describes the stages plugged into the template.
	Reference string
	// Bound is the documented round bound.
	Bound string
	// Seeded reports that the variant consumes Options.Seed.
	Seeded bool
}

// ProblemInfo describes one registered problem.
type ProblemInfo struct {
	// Name addresses the problem in RunProblem and GeneratePreds.
	Name string
	// Doc is the one-line description.
	Doc string
	// OutputLabel labels the output vector in display.
	OutputLabel string
	// CanHeal reports that Options.Recover and RunProblemWithRecovery are
	// supported.
	CanHeal bool
	// Algorithms lists the variants in registration order.
	Algorithms []AlgorithmInfo
}

// Problems enumerates the registry: every problem with its algorithm
// variants, problems sorted by name.
func Problems() []ProblemInfo {
	var out []ProblemInfo
	for _, d := range problem.All() {
		p := ProblemInfo{
			Name:        d.Name,
			Doc:         d.Doc,
			OutputLabel: d.OutputLabel,
			CanHeal:     d.Heal != nil,
		}
		for _, a := range d.Algorithms {
			p.Algorithms = append(p.Algorithms, AlgorithmInfo{
				Problem:   d.Name,
				Name:      a.Name,
				Template:  a.Template,
				Reference: a.Reference,
				Bound:     a.Bound,
				Seeded:    a.Seeded,
			})
		}
		out = append(out, p)
	}
	return out
}

// RegistryTable renders the registry as a fixed-width text table (one row
// per algorithm) — the `dgp-run -list` output and the README's algorithm
// table.
func RegistryTable() string {
	rows := [][]string{{"PROBLEM", "ALGORITHM", "TEMPLATE", "REFERENCE", "ROUND BOUND"}}
	for _, p := range Problems() {
		for _, a := range p.Algorithms {
			rows = append(rows, []string{p.Name, a.Name, a.Template, a.Reference, a.Bound})
		}
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(row)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// auxFor builds the problem's default auxiliary instance data for g (the
// rooted forest for the tree problem; nil for the others).
func auxFor(d *problem.Descriptor, g *Graph) (any, error) {
	if d.NewAux == nil {
		return nil, nil
	}
	aux, err := d.NewAux(g)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return aux, nil
}

// GeneratePreds generates the problem's standard test predictions for g: an
// error-free prediction perturbed at flips positions by a generator seeded
// with seed. The concrete type is the problem's prediction type ([]int, or
// []EdgePrediction for edge coloring) — pass the value to RunProblem.
func GeneratePreds(problemName string, g *Graph, flips int, seed int64) (any, error) {
	d, err := problem.Get(problemName)
	if err != nil {
		return nil, err
	}
	aux, err := auxFor(d, g)
	if err != nil {
		return nil, err
	}
	return d.Preds(g, aux, flips, seed), nil
}

// ErrorSummary renders the instance's prediction error measures (e.g.
// "eta1=3 eta2=2 eta_bw=1 components=2").
func ErrorSummary(problemName string, g *Graph, preds any) (string, error) {
	d, err := problem.Get(problemName)
	if err != nil {
		return "", err
	}
	aux, err := auxFor(d, g)
	if err != nil {
		return "", err
	}
	return d.Errors(g, aux, preds)
}

// ProblemResult is the problem-generic outcome of RunProblem.
type ProblemResult struct {
	// Run carries the round/message metrics.
	Run Result
	// Output is the verified per-node output vector for the int-output
	// problems (MIS bit, partner identifier, color); nil for edge coloring.
	Output []int
	// EdgeOutput is the verified per-edge color vector (indexed like
	// Graph.Edges()) for edge coloring; nil for the other problems.
	EdgeOutput []int
	// Recovery is the detailed self-healing report when Options.Recover was
	// set; nil otherwise.
	Recovery *RecoveryResult

	// vectors holds edge coloring's raw per-node color vectors, which the
	// distributed checker consumes.
	vectors [][]int
}

// RunProblem executes one registered (problem, algorithm) pair on g with the
// given predictions (nil for prediction-free algorithms) and verifies the
// output. Options.Recover routes through the problem's healing machinery
// when the descriptor registers one.
func RunProblem(g *Graph, problemName, alg string, preds any, opts Options) (*ProblemResult, error) {
	d, err := problem.Get(problemName)
	if err != nil {
		return nil, err
	}
	aux, err := auxFor(d, g)
	if err != nil {
		return nil, err
	}
	return runGeneric(g, d, alg, nil, aux, preds, opts)
}

// runGeneric is the single run body behind RunProblem, RunTreeMIS,
// RunProblemWithRecovery and RunMISTradeoff. A nil factory builds the named
// registered algorithm and applies its engine round cap; a non-nil one (the
// trade-off variant) runs as given, with alg only labelling the trace. Then
// it encodes the predictions, runs (with recovery when requested), and
// finalizes.
func runGeneric(g *Graph, d *problem.Descriptor, alg string, factory runtime.Factory, aux any, preds any, opts Options) (*ProblemResult, error) {
	if factory == nil {
		a, err := d.Algorithm(alg)
		if err != nil {
			return nil, err
		}
		factory, err = a.Build(problem.BuildCtx{Seed: opts.Seed, Aux: aux})
		if err != nil {
			return nil, fmt.Errorf("repro: %w", err)
		}
		if opts.MaxRounds == 0 && a.MaxRounds != nil {
			opts.MaxRounds = a.MaxRounds(g)
		}
	}
	encoded, err := d.EncodePreds(preds)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	traceRunMeta(d, alg, g, aux, preds, opts)
	if opts.Recover {
		spec, err := heal.SpecFor(d)
		if err != nil {
			return nil, fmt.Errorf("repro: %w", err)
		}
		rr, err := runRecovered(g, factory, encoded, opts, spec)
		if err != nil {
			return nil, err
		}
		return &ProblemResult{Run: asResult(rr), Output: rr.Output, Recovery: rr}, nil
	}
	raw, err := runAndCollect(g, factory, encoded, opts)
	if err != nil {
		return nil, err
	}
	sol, err := d.Finalize(g, aux, raw.Outputs)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return &ProblemResult{
		Run:        baseResult(raw),
		Output:     sol.Node,
		EdgeOutput: sol.Edge,
		vectors:    sol.Vectors,
	}, nil
}

// traceRunMeta labels a traced run with its (problem, algorithm) pair and the
// input prediction-error summary, so a trace file is self-describing: the
// dgp-trace CLI surfaces the meta line as the run header and the η snapshot in
// the trajectory table. No-op without a recorder.
func traceRunMeta(d *problem.Descriptor, alg string, g *Graph, aux any, preds any, opts Options) {
	if opts.Trace == nil {
		return
	}
	opts.Trace.Emit(obs.Event{Type: obs.EvMeta, Name: d.Name + "/" + alg})
	if preds == nil {
		return
	}
	if summary, err := d.Errors(g, aux, preds); err == nil {
		opts.Trace.Emit(obs.Event{Type: obs.EvEta, Name: "input", Text: summary})
	}
}

// RunProblemWithRecovery executes the problem's Simple Template on g under
// the options' fault knobs (Adversary, RoundDeadline) and
// self-heals: if the run aborts or produces an invalid solution, the damaged
// outputs are carved down to an extendable partial solution (invalid values,
// conflicting pairs, and unjustified decisions demoted) and the Simple
// Template is re-run with the carved partial solution as predictions — the
// paper's Section 4 initialization keeps every decided node and the
// measure-uniform part extends the residual. The returned output always
// verifies; crashed nodes are treated as recovered in the healing run (chaos
// is transient). Configuration errors are returned, not healed. Available
// for every problem whose descriptor registers healing machinery (see
// ProblemInfo.CanHeal).
func RunProblemWithRecovery(g *Graph, problemName string, preds any, opts Options) (*RecoveryResult, error) {
	d, err := problem.Get(problemName)
	if err != nil {
		return nil, err
	}
	aux, err := auxFor(d, g)
	if err != nil {
		return nil, err
	}
	opts.Recover = true
	res, err := runGeneric(g, d, "simple", nil, aux, preds, opts)
	if err != nil {
		return nil, err
	}
	return res.Recovery, nil
}

// CheckSolution runs the problem's constant-round distributed checker
// (Section 1.3) over a RunProblem result: AllAccept iff the output is a
// correct solution.
func CheckSolution(g *Graph, problemName string, res *ProblemResult, opts Options) (*CheckResult, error) {
	var sol any = res.Output
	if res.vectors != nil {
		// Edge coloring is checked on its per-node color vectors, which
		// have the shape of its predictions.
		vecs := make([]EdgePrediction, len(res.vectors))
		for i, v := range res.vectors {
			vecs[i] = v
		}
		sol = vecs
	}
	return CheckPredictions(g, problemName, sol, opts)
}
