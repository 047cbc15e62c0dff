package core

import "repro/internal/runtime"

// This file holds the two sequential template combinators of the paper's
// framework. Together with Interleaved (interleaved.go) and Parallel
// (parallel.go) they are the four templates of Section 7, each implemented
// exactly once; the problem packages instantiate them with their stages and
// register the instantiations in internal/problem.

// Simple composes the Simple Template (paper Algorithm 2, Observation 7): a
// reasonable initialization algorithm followed by one or more reference
// stages run to completion. With a measure-uniform reference the composition
// is η-degrading; with any reference it inherits the initialization's
// consistency.
func Simple(mem MemoryFactory, b Stage, ref ...Stage) runtime.Factory {
	return Sequence(mem, append([]Stage{b}, ref...)...)
}

// ConsecutiveSpec configures the Consecutive Template (paper Algorithm 3,
// Lemma 8): initialization, the measure-uniform algorithm budgeted at the
// reference's round bound, an optional clean-up, then the reference.
type ConsecutiveSpec struct {
	// Mem creates the per-node shared memory.
	Mem MemoryFactory
	// B is the reasonable initialization stage.
	B Stage
	// U builds the budgeted measure-uniform stage.
	U func(budget int) Stage
	// Budget computes the measure-uniform budget r(n, Δ, d) + c'(n, Δ, d)
	// from static information (all nodes compute the same value, as the
	// paper requires). A budget that aligns to 0 or less runs no
	// measure-uniform stage and no clean-up: initialization, then the
	// reference.
	Budget func(info runtime.NodeInfo) int
	// Align rounds the budget up to a multiple (a group boundary), so the
	// interruption point carries an extendable partial solution: 2 for
	// black/white alternation, 3 for the matching proposal groups. 0 or 1
	// leaves the budget as computed.
	Align int
	// C is the optional clean-up stage (nil when every interruption point is
	// already extendable, e.g. vertex coloring).
	C *Stage
	// Ref returns the reference stages; most problems have exactly one. The
	// info parameter lets references with per-instance budgets (the
	// rooted-tree coloring) size their stages.
	Ref func(info runtime.NodeInfo) []Stage
}

// Consecutive composes the Consecutive Template from a spec. The budget is
// evaluated per node from static information and aligned to the spec's group
// boundary; an aligned budget of 0 or less skips the measure-uniform and
// clean-up stages. The stage list depends only on the budget and Ref(info),
// so nodes that agree on both — with FixedRef, every node of a run — share
// one list, and their machines come from the same per-run slab as
// Sequence's.
func Consecutive(spec ConsecutiveSpec) runtime.Factory {
	var (
		slab   NodeSlab[seqMachine, runtime.Out]
		budget int
		ref    []Stage
		stages []Stage
	)
	return func(info runtime.NodeInfo, pred any) runtime.Machine {
		b, r := AlignUp(spec.Budget(info), spec.Align), spec.Ref(info)
		if stages == nil || b != budget || !sameStages(r, ref) {
			budget, ref = b, r
			stages = make([]Stage, 0, 3+len(r))
			stages = append(stages, spec.B)
			if b > 0 {
				stages = append(stages, spec.U(b))
				if spec.C != nil {
					stages = append(stages, *spec.C)
				}
			}
			stages = append(stages, r...)
		}
		return newSeqMachine(&slab, spec.Mem, stages, info, pred)
	}
}

// sameStages reports whether a and b are the same stage list: the same
// backing array and length, as FixedRef returns on every call.
func sameStages(a, b []Stage) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// FixedRef adapts a fixed stage list to ConsecutiveSpec.Ref.
func FixedRef(stages ...Stage) func(runtime.NodeInfo) []Stage {
	return func(runtime.NodeInfo) []Stage { return stages }
}

// AlignUp rounds r up to the next multiple of align (align <= 1 means no
// rounding). The templates use it to interrupt measure-uniform stages only at
// extendable group boundaries.
func AlignUp(r, align int) int {
	if align <= 1 {
		return r
	}
	if rem := r % align; rem != 0 {
		r += align - rem
	}
	return r
}
