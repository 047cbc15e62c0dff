package heal_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/heal"
	"repro/internal/mis"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
	"repro/internal/verify"
)

// TestCarveSingleNode: every carve handles the degenerate one-node graph —
// no neighbors to conflict with, but justification rules still apply.
func TestCarveSingleNode(t *testing.T) {
	g := graph.NewBuilder(1).MustBuild()
	t.Run("mis", func(t *testing.T) {
		// An isolated in-set node stands.
		partial, residual := heal.CarveMIS(g, []int{1})
		if partial[0] != 1 || len(residual) != 0 {
			t.Fatalf("valid singleton MIS carved to %v / %v", partial, residual)
		}
		// An isolated out-of-set node has no in-set neighbor: unjustified.
		partial, residual = heal.CarveMIS(g, []int{0})
		if partial[0] != verify.Undecided || len(residual) != 1 {
			t.Fatalf("unjustified 0 survived: %v / %v", partial, residual)
		}
	})
	t.Run("matching", func(t *testing.T) {
		// Decided-unmatched with no neighbors is maximal.
		partial, residual := heal.CarveMatching(g, []int{0})
		if partial[0] != 0 || len(residual) != 0 {
			t.Fatalf("isolated unmatched carved to %v / %v", partial, residual)
		}
		// A partner identifier with no such neighbor is invalid.
		partial, _ = heal.CarveMatching(g, []int{7})
		if partial[0] != 0 {
			// The clean-up closes it back to unmatched (all zero neighbors
			// are matched, vacuously).
			t.Fatalf("invalid partner carved to %v", partial)
		}
	})
	t.Run("vcolor", func(t *testing.T) {
		// Palette is Δ+1 = 1: color 1 stands, color 2 is out of palette.
		partial, residual := heal.CarveVColor(g, []int{1})
		if partial[0] != 1 || len(residual) != 0 {
			t.Fatalf("valid singleton color carved to %v / %v", partial, residual)
		}
		partial, residual = heal.CarveVColor(g, []int{2})
		if partial[0] != verify.Undecided || len(residual) != 1 {
			t.Fatalf("out-of-palette color survived: %v / %v", partial, residual)
		}
	})
}

// TestCarveEmptyPartial: a fully damaged vector carves to the empty partial
// solution — everything undecided, which is trivially extendable — and the
// residual is the whole graph.
func TestCarveEmptyPartial(t *testing.T) {
	g := graph.Clique(8)
	damaged := make([]int, g.N())
	for i := range damaged {
		damaged[i] = verify.Undecided
	}
	for _, carve := range []struct {
		name string
		fn   func(*graph.Graph, []int) ([]int, []int)
		chk  func(*graph.Graph, []int) error
	}{
		{"mis", heal.CarveMIS, verify.MISPartialExtendable},
		{"matching", heal.CarveMatching, verify.MatchingPartialExtendable},
		{"vcolor", heal.CarveVColor, func(g *graph.Graph, out []int) error {
			return verify.VColorPartial(g, out, g.MaxDegree()+1)
		}},
	} {
		t.Run(carve.name, func(t *testing.T) {
			partial, residual := carve.fn(g, damaged)
			if len(residual) != g.N() {
				t.Fatalf("residual %d, want all %d nodes", len(residual), g.N())
			}
			for v, pv := range partial {
				if pv != verify.Undecided {
					t.Fatalf("node %d decided as %d from pure damage", v, pv)
				}
			}
			if err := carve.chk(g, partial); err != nil {
				t.Fatalf("empty partial not accepted: %v", err)
			}
		})
	}
}

// TestCarveShortVector: vectors shorter than the graph (a run aborted
// before every node reported) are padded with undecided, not misread.
func TestCarveShortVector(t *testing.T) {
	g := graph.Line(5)
	partial, residual := heal.CarveMIS(g, []int{1, 0})
	if len(partial) != g.N() {
		t.Fatalf("partial has %d entries, want %d", len(partial), g.N())
	}
	if partial[0] != 1 || partial[1] != 0 {
		t.Fatalf("prefix not preserved: %v", partial)
	}
	if len(residual) != 3 {
		t.Fatalf("residual %v, want the 3 unreported nodes", residual)
	}
}

// TestRunRecoveredSingleNode: the recovery pipeline works end to end on a
// one-node graph, both clean and with the node crashed at round 1 (an empty
// partial solution: the healing run re-solves from scratch).
func TestRunRecoveredSingleNode(t *testing.T) {
	g := graph.NewBuilder(1).MustBuild()
	report, err := heal.RunRecovered(runtime.Config{
		Graph:   g,
		Factory: mis.SimpleGreedy(),
	}, misSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !report.Valid || report.Output[0] != 1 {
		t.Fatalf("clean single-node run not valid: %+v", report)
	}

	report, err = heal.RunRecovered(runtime.Config{
		Graph:     g,
		Factory:   mis.SimpleGreedy(),
		Adversary: fault.Schedule{0: 1},
	}, misSpec())
	if err != nil {
		t.Fatal(err)
	}
	if report.Valid {
		t.Fatalf("crashed run reported valid: %+v", report)
	}
	if !report.Healed || report.Residual != 1 {
		t.Fatalf("crash not healed from empty partial: %+v", report)
	}
	if err := verify.MIS(g, report.Output); err != nil {
		t.Fatalf("healed output invalid: %v", err)
	}
}
