package matching

import (
	"repro/internal/core"
	"repro/internal/linegraph"
	"repro/internal/runtime"
)

// This file builds a two-part reference for Maximal Matching in the style of
// Corollary 12, demonstrating the Parallel Template on a second problem
// (Section 8 leaves the choice of reference open):
//
//   part 1 — a fault-tolerant (2Δ−1)-edge coloring of the still-active
//   subgraph, computed by running the Linial reduction on the line graph:
//   each edge's color is maintained symmetrically by both endpoints, which
//   exchange the colors of their other incident edges every round and apply
//   the same deterministic reduction, so the two copies never diverge and a
//   crashed endpoint simply removes its edges;
//
//   part 2 — one color class per two rounds: the endpoints of a class-c edge
//   that are both still free propose to each other and match. Edge colors
//   are distinct around every node, so each node handles at most one edge
//   per class, and every remaining edge loses an endpoint by the time its
//   class is processed, which makes the matching maximal.

// EdgeColorRounds returns part 1's round bound (see internal/linegraph).
func EdgeColorRounds(d, delta int) int { return linegraph.Rounds(d, delta) }

// EdgeColorPart1 returns the fault-tolerant edge-coloring stage, hosted by
// this package's Memory (live edges = edges to still-active neighbors).
func EdgeColorPart1() core.StageFactory { return linegraph.Part1() }

// propose asks the class-c partner to match this round.
type propose2 struct{}

// Bits sizes the message for CONGEST accounting.
func (propose2) Bits() int { return 1 }

// ColorToMatching returns part 2: classes 1..2Δ−1 processed two rounds each
// (mutual proposal, then announce-and-terminate); one final round lets the
// leftover nodes — whose neighbors are all matched by then — output ⊥.
func ColorToMatching() core.StageFactory {
	return func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
		return &colorToMatchingMachine{mem: mem.(*Memory)}
	}
}

type colorToMatchingMachine struct {
	mem      *Memory
	proposed int // neighbor proposed to this class (0 = none)
	partner  int // sealed partner (0 = none)
}

// classEdge returns the active neighbor across this node's class-c edge, or
// 0 when there is none (edge colors are distinct per node, so it is unique).
func (m *colorToMatchingMachine) classEdge(info runtime.NodeInfo, class int) int {
	//lint:allow maporder (edge colors are distinct per node, so at most one entry matches and first-match is deterministic)
	for nb, col := range m.mem.R1Colors {
		if col != class {
			continue
		}
		if !m.mem.NbrOut.Has(nb) {
			return nb
		}
	}
	return 0
}

func (m *colorToMatchingMachine) Send(c *core.StageCtx) []runtime.Out {
	info := c.Info()
	palette := 2*info.Delta - 1
	r := c.StageRound()
	switch {
	case r > 2*palette || info.Delta == 0:
		// Final round: every neighbor is matched (each remaining edge lost
		// an endpoint during its class), so ⊥ is safe.
		c.Output(Unmatched)
		return nil
	case r%2 == 1:
		class := (r + 1) / 2
		m.proposed = 0
		if nb := m.classEdge(info, class); nb != 0 {
			m.proposed = nb
			return c.BroadcastTo([]int{nb}, propose2{})
		}
		return nil
	default:
		if m.partner != 0 {
			outs := c.BroadcastActive(m.mem.NbrOut, m.mem.announceMatch(m.partner))
			c.Output(m.partner)
			return outs
		}
		return nil
	}
}

func (m *colorToMatchingMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	for _, msg := range inbox {
		switch p := msg.Payload.(type) {
		case propose2:
			// Mutual proposals seal the pair (both sides hold the same
			// class edge this round).
			if msg.From == m.proposed {
				m.partner = msg.From
			}
		case *matched:
			m.mem.NbrOut.Set(msg.From, p.Partner)
		}
	}
}

// ParallelColoring is the Parallel Template for Maximal Matching: the
// initialization, the 3-round-group measure-uniform algorithm running in
// parallel with the fault-tolerant edge coloring (budget rounded to a group
// boundary so the interruption point is extendable), the one-round clean-up,
// and the color-class matching.
func ParallelColoring() runtime.Factory {
	cleanup := Cleanup()
	return core.Parallel(core.ParallelSpec{
		Mem: NewMemory(),
		B:   Init(),
		U:   MeasureUniform(0).New,
		R1:  EdgeColorPart1(),
		R1Budget: func(info runtime.NodeInfo) int {
			return core.AlignUp(EdgeColorRounds(info.D, info.Delta), 3)
		},
		C:  &cleanup,
		R2: ColorToMatching(),
	})
}
