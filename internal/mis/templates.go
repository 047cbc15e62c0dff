package mis

import (
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/runtime"
	"repro/internal/vcolor"
)

// Solo runs a single MIS stage as a complete algorithm (used to measure the
// measure-uniform algorithms on their own, without predictions).
func Solo(stage core.Stage) runtime.Factory {
	return core.Sequence(NewMemory(), stage)
}

// SimpleGreedy is the Simple Template (Observation 7) instantiated with the
// MIS Initialization Algorithm and the Greedy MIS Algorithm: consistency 3,
// round complexity at most η₁+3 (Lemma 1) and η₂+4 (Lemma 2).
func SimpleGreedy() runtime.Factory {
	return core.Simple(NewMemory(), Init(), Greedy())
}

// SimpleBase is SimpleGreedy but starting from the Base Algorithm instead of
// the Initialization Algorithm (for comparing initializations).
func SimpleBase() runtime.Factory {
	return core.Simple(NewMemory(), Base(), Greedy())
}

// SimpleBW is the Section 9.1 algorithm: initialization followed by the
// black/white alternating measure-uniform algorithm, whose round complexity
// tracks η_bw rather than η₁.
func SimpleBW() runtime.Factory {
	return core.Simple(NewMemory(), Init(), BWGreedy(0))
}

// SimpleLuby is the Section 10 discussion: Luby's randomized algorithm as
// the reference of the Simple Template.
func SimpleLuby(seed int64) runtime.Factory {
	return core.Simple(NewMemory(), Init(), Luby(seed))
}

// SimpleCollect is the Simple Template with the collect-and-solve reference.
func SimpleCollect() runtime.Factory {
	return core.Simple(NewMemory(), Init(), Collect())
}

// consecutiveSpec shares the MIS Consecutive Template wiring: initialization,
// Greedy budgeted at the reference's bound plus one (rounded up to even so
// the interruption point carries an extendable partial solution), the
// one-round clean-up, then the reference.
func consecutiveSpec(budget func(runtime.NodeInfo) int, ref core.Stage) runtime.Factory {
	cleanup := Cleanup()
	return core.Consecutive(core.ConsecutiveSpec{
		Mem:    NewMemory(),
		B:      Init(),
		U:      GreedyBudget,
		Budget: budget,
		Align:  2,
		C:      &cleanup,
		Ref:    core.FixedRef(ref),
	})
}

// ConsecutiveCollect is the Consecutive Template (Lemma 8) with the
// collect-and-solve reference: initialization, Greedy for r(n)+c'(n) rounds,
// the one-round clean-up, then the reference. Consistency 3, 2η-degrading,
// robust with respect to the reference.
func ConsecutiveCollect() runtime.Factory {
	return consecutiveSpec(func(info runtime.NodeInfo) int {
		return CollectBound(info) + 1
	}, Collect())
}

// ConsecutiveDecomp is the Consecutive Template with the decomposition
// reference (the stand-in for the paper's Ghaffari–Grunau reference [30]).
func ConsecutiveDecomp(seed int64) runtime.Factory {
	return consecutiveSpec(func(info runtime.NodeInfo) int {
		return decomp.Bound(info) + 1
	}, decomp.Stage(seed))
}

// ConsecutiveTradeoff is the Section 10 open-problem exploration: the
// Consecutive Template with a tunable measure-uniform budget λ·n instead of
// the reference's full round bound. λ ≥ 1 recovers degradation at least as
// good as the plain template (Greedy finishes any component within μ₁ ≤ n
// rounds); smaller λ caps the time spent trusting the predictions, improving
// the worst case towards the reference alone at the price of a worse
// degradation function — the consistency/robustness trade-off knob known
// from online algorithms with predictions. λ = 0 skips the measure-uniform
// stage entirely.
func ConsecutiveTradeoff(lambda float64, seed int64) runtime.Factory {
	cleanup := Cleanup()
	return core.Consecutive(core.ConsecutiveSpec{
		Mem:    NewMemory(),
		B:      Init(),
		U:      GreedyBudget,
		Budget: func(info runtime.NodeInfo) int { return int(lambda * float64(info.N)) },
		Align:  2,
		C:      &cleanup,
		Ref:    core.FixedRef(decomp.Stage(seed)),
	})
}

// InterleavedDecomp is the Interleaved Template (Lemma 9, Corollary 10):
// initialization, then alternating slices of Greedy and the decomposition
// reference, one reference phase per slice.
func InterleavedDecomp(seed int64) runtime.Factory {
	return core.Interleaved(NewMemory(), Init(), Greedy().New, decomp.MISReference(seed), decomp.Schedule)
}

// ParallelColoring is the Parallel Template instantiated per Corollary 12:
// initialization, then the Greedy MIS Algorithm running in parallel with the
// fault-tolerant Linial coloring (part 1 of the reference, storing its color
// locally), and finally the color-class/greedy-augmented part 2. The
// parallel section's budget is Rounds(d, Δ) rounded up to even, so the
// Greedy lane is interrupted at an extendable boundary and no clean-up stage
// is needed, exactly as in the corollary's proof.
func ParallelColoring() runtime.Factory {
	return core.Parallel(core.ParallelSpec{
		Mem: NewMemory(),
		B:   Init(),
		U:   Greedy().New,
		R1:  vcolor.LinialPart1(),
		R1Budget: func(info runtime.NodeInfo) int {
			return core.AlignUp(vcolor.Rounds(info.D, info.Delta), 2)
		},
		C:  nil,
		R2: ColorToMIS(),
	})
}
