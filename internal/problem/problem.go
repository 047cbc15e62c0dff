// Package problem is the generic problem layer behind the templates, the
// public runners, the healing machinery, and the CLIs.
//
// The paper's framework (Section 7) is generic: the four templates are
// combinators instantiated per problem. This package makes the repository
// mirror that structure. A Descriptor captures everything problem-specific —
// how predictions are encoded for the engine, how raw outputs are decoded
// and verified, which distributed checker validates a solution, how a
// damaged output vector is carved for healing, and which algorithm variants
// exist with their template shape and round bound. Each problem package
// registers its descriptor at init time; the registry (name → descriptor →
// algorithm) then drives the generic Run path in the repro package, the
// recovery machinery, and the dgp-run/dgp-bench command lines, so adding a
// problem or an algorithm is one registration instead of edits across six
// layers.
package problem

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/runtime"
)

// Template names the paper template an algorithm instantiates.
const (
	// TemplateSolo marks a reference or measure-uniform algorithm run alone
	// (no predictions consumed).
	TemplateSolo = "solo"
	// TemplateSimple is the Simple Template (Algorithm 2, Observation 7).
	TemplateSimple = "simple"
	// TemplateConsecutive is the Consecutive Template (Algorithm 3, Lemma 8).
	TemplateConsecutive = "consecutive"
	// TemplateInterleaved is the Interleaved Template (Algorithm 4, Lemma 9).
	TemplateInterleaved = "interleaved"
	// TemplateParallel is the Parallel Template (Algorithm 5, Lemma 11).
	TemplateParallel = "parallel"
)

// BuildCtx carries the per-run inputs an algorithm factory may consume.
type BuildCtx struct {
	// Seed drives the seeded algorithms (Luby, the decomposition reference);
	// deterministic algorithms ignore it.
	Seed int64
	// Aux is the problem's extra instance data beyond the graph — the rooted
	// forest for the tree problem — produced by Descriptor.NewAux or passed
	// in by the caller (repro.RunTreeMIS). Nil for problems defined by the
	// graph alone.
	Aux any
}

// Algorithm is one registered algorithm variant of a problem.
type Algorithm struct {
	// Name is the variant's CLI name, unique within its problem.
	Name string
	// Template is the paper template the variant instantiates (one of the
	// Template* constants).
	Template string
	// Reference describes the stages plugged into the template.
	Reference string
	// Bound is the documented round bound.
	Bound string
	// Seeded reports that the variant consumes BuildCtx.Seed.
	Seeded bool
	// Build constructs the engine factory for one run.
	Build func(c BuildCtx) (runtime.Factory, error)
	// MaxRounds, when non-nil, computes the engine round cap the variant
	// needs when the caller did not set one (references whose bound
	// legitimately exceeds the engine's O(n)-algorithm default).
	MaxRounds func(g *graph.Graph) int
}

// Solution is a verified output in the problem-generic shape. Int-output
// problems (MIS, matching, vertex coloring, tree MIS) fill Node; edge
// coloring fills Vectors (the raw per-node color vectors) and Edge (the
// agreed per-edge colors, indexed like g.Edges()).
type Solution struct {
	Node    []int
	Vectors [][]int
	Edge    []int
}

// Heal describes a problem's recovery machinery: how to carve a damaged
// int-vector output down to an extendable partial solution and which
// registered algorithm extends it. Problems whose outputs are not int
// vectors (edge coloring) leave Descriptor.Heal nil.
type Heal struct {
	// Verify accepts a complete output vector iff it is a valid solution.
	Verify func(g *graph.Graph, out []int) error
	// Carve reduces a damaged output vector to an extendable partial
	// solution plus the residual (undecided node indices).
	Carve func(g *graph.Graph, out []int) (partial, residual []int)
	// UndecidedPred is the prediction value standing in for an undecided
	// node in the healing run (the problem's "no prediction" value).
	UndecidedPred int
	// HealProblem names the registered problem whose "simple" algorithm —
	// the Simple Template — extends the carved partial solution. Empty
	// means this problem; the tree problem heals through the general MIS
	// template.
	HealProblem string
}

// Descriptor is one problem's registration: identity, codecs, validation,
// healing, and algorithm variants.
type Descriptor struct {
	// Name is the registry key (e.g. "mis").
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// OutputLabel labels the output vector in CLI display ("in-set",
	// "partners", "colors", "edge colors").
	OutputLabel string
	// NewAux builds the default per-instance auxiliary data from the graph
	// (the tree problem roots the forest); nil when no aux is needed. It may
	// reject unusable graphs (a cyclic graph for the tree problem).
	NewAux func(g *graph.Graph) (any, error)
	// Preds generates the problem's standard test predictions: an error-free
	// prediction perturbed at k positions by a generator seeded with seed.
	Preds func(g *graph.Graph, aux any, k int, seed int64) any
	// EncodePreds converts the problem's typed prediction slice (or nil) to
	// the engine's per-node values.
	EncodePreds func(preds any) ([]any, error)
	// Errors renders the instance's prediction error measures for display
	// (e.g. "eta1=3 eta2=2").
	Errors func(g *graph.Graph, aux any, preds any) (string, error)
	// Finalize decodes the engine's raw outputs and verifies them as a
	// complete solution.
	Finalize func(g *graph.Graph, aux any, outs []any) (Solution, error)
	// Checker returns the problem's constant-round distributed checker
	// (Section 1.3). Its per-node inputs are a candidate solution in the
	// prediction encoding (EncodePreds).
	Checker func() runtime.Factory
	// Heal is the recovery machinery; nil when unsupported.
	Heal *Heal
	// Algorithms are the registered variants, in registration order.
	Algorithms []Algorithm
}

// Algorithm returns the named variant.
func (d *Descriptor) Algorithm(name string) (*Algorithm, error) {
	for i := range d.Algorithms {
		if d.Algorithms[i].Name == name {
			return &d.Algorithms[i], nil
		}
	}
	return nil, fmt.Errorf("problem %s: unknown algorithm %q (registered: %v)", d.Name, name, d.algorithmNames())
}

func (d *Descriptor) algorithmNames() []string {
	names := make([]string, len(d.Algorithms))
	for i, a := range d.Algorithms {
		names[i] = a.Name
	}
	return names
}

var registry = map[string]*Descriptor{}

// Register adds a descriptor to the registry. It panics on a duplicate or
// structurally incomplete registration: registration happens at package init
// time, so a violation is a programming error, not a runtime condition.
func Register(d Descriptor) {
	if d.Name == "" {
		panic("problem: Register with empty name")
	}
	if _, dup := registry[d.Name]; dup {
		panic(fmt.Sprintf("problem: duplicate registration of %q", d.Name))
	}
	if d.EncodePreds == nil || d.Finalize == nil || d.Preds == nil || d.Errors == nil || d.Checker == nil {
		panic(fmt.Sprintf("problem: %q registered without a complete codec", d.Name))
	}
	if len(d.Algorithms) == 0 {
		panic(fmt.Sprintf("problem: %q registered without algorithms", d.Name))
	}
	seen := map[string]bool{}
	for _, a := range d.Algorithms {
		if a.Name == "" || a.Build == nil {
			panic(fmt.Sprintf("problem: %q registered an incomplete algorithm %q", d.Name, a.Name))
		}
		if seen[a.Name] {
			panic(fmt.Sprintf("problem: %q registered algorithm %q twice", d.Name, a.Name))
		}
		seen[a.Name] = true
		switch a.Template {
		case TemplateSolo, TemplateSimple, TemplateConsecutive, TemplateInterleaved, TemplateParallel:
		default:
			panic(fmt.Sprintf("problem: %q algorithm %q has unknown template %q", d.Name, a.Name, a.Template))
		}
	}
	stored := d
	registry[d.Name] = &stored
}

// Get returns the named descriptor.
func Get(name string) (*Descriptor, error) {
	d, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("problem: unknown problem %q (registered: %v)", name, Names())
	}
	return d, nil
}

// Names returns the registered problem names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// All returns the registered descriptors sorted by name.
func All() []*Descriptor {
	names := Names()
	out := make([]*Descriptor, len(names))
	for i, name := range names {
		out[i] = registry[name]
	}
	return out
}

// EncodeInts boxes an int prediction/solution vector for the engine; nil
// stays nil (prediction-free runs).
func EncodeInts(preds []int) []any {
	if preds == nil {
		return nil
	}
	out := make([]any, len(preds))
	for i, p := range preds {
		out[i] = p
	}
	return out
}

// IntPredCodec returns the EncodePreds implementation shared by the
// int-vector problems: nil, []int, or pre-encoded []any are accepted.
func IntPredCodec(name string) func(preds any) ([]any, error) {
	return func(preds any) ([]any, error) {
		switch p := preds.(type) {
		case nil:
			return nil, nil
		case []int:
			return EncodeInts(p), nil
		case []any:
			return p, nil
		default:
			return nil, fmt.Errorf("problem %s: predictions must be []int, got %T", name, preds)
		}
	}
}

// IntFinalizer returns the Finalize implementation shared by the int-output
// problems: decode every node's int output and verify the complete vector.
func IntFinalizer(name string, verify func(g *graph.Graph, out []int) error) func(g *graph.Graph, aux any, outs []any) (Solution, error) {
	return func(g *graph.Graph, aux any, outs []any) (Solution, error) {
		out := make([]int, g.N())
		for i, o := range outs {
			v, ok := o.(int)
			if !ok {
				return Solution{}, fmt.Errorf("problem %s: node %d produced %T, want int", name, g.ID(i), o)
			}
			out[i] = v
		}
		if err := verify(g, out); err != nil {
			return Solution{}, err
		}
		return Solution{Node: out}, nil
	}
}
