package vcolor

import (
	"repro/internal/core"
	"repro/internal/runtime"
)

// Solo runs a single vertex-coloring stage as a complete algorithm.
func Solo(stage core.Stage) runtime.Factory {
	return core.Sequence(NewMemory, stage)
}

// SimpleGreedy is the Simple Template for (Δ+1)-vertex coloring: the
// reasonable initialization followed by the measure-uniform list-coloring
// algorithm. Consistency 2, η₁-degrading (the measure-uniform algorithm
// finishes a component of s nodes in at most s rounds).
func SimpleGreedy() runtime.Factory {
	return core.Simple(NewMemory, Init(), MeasureUniform(0))
}

// SimpleBase is SimpleGreedy starting from the Base Algorithm.
func SimpleBase() runtime.Factory {
	return core.Simple(NewMemory, Base(), MeasureUniform(0))
}

// SimpleLinial is the Simple Template with the list-aware Linial reference:
// consistent, with worst-case round complexity 2 + RoundsList(d, Δ)
// independent of the prediction error.
func SimpleLinial() runtime.Factory {
	return core.Simple(NewMemory, Init(), LinialList())
}

// ConsecutiveLinial is the Consecutive Template (no clean-up stage is needed
// for this problem, Section 8.2, and any interruption point is extendable,
// so no budget alignment either): initialization, the measure-uniform
// algorithm for r(n, Δ, d) rounds, then the list-aware Linial reference.
// Consistency 2, 2η₁-degrading, robust with respect to the reference.
func ConsecutiveLinial() runtime.Factory {
	return core.Consecutive(core.ConsecutiveSpec{
		Mem:    NewMemory,
		B:      Init(),
		U:      MeasureUniform,
		Budget: func(info runtime.NodeInfo) int { return RoundsList(info.D, info.Delta) },
		Ref:    core.FixedRef(LinialList()),
	})
}

// InterleavedLinial is the Interleaved Template for vertex coloring: slices
// of the measure-uniform algorithm alternate with slices of the list-aware
// Linial reference. Any partial proper coloring is extendable for this
// problem (Section 8.2), so every slice boundary is safe, and the Linial
// lane tolerates the measure-uniform lane's terminations (crashes from its
// point of view). The schedule keeps the reference's final Δ+1 palette-
// repair rounds inside a single slice: a measure-uniform termination between
// two repair rounds could otherwise re-poison an already-repaired color
// class. Consistency 2, 2η₁-degrading, robust with respect to the reference.
func InterleavedLinial() runtime.Factory {
	return core.Interleaved(NewMemory, Init(), MeasureUniform(0).New, LinialList().New,
		func(info runtime.NodeInfo) []int {
			total := RoundsList(info.D, info.Delta)
			tail := info.Delta + 2 // repair rounds + output must not straddle slices
			slice := 8
			if slice < tail {
				slice = tail
			}
			var sched []int
			remaining := total
			for remaining > slice+tail {
				sched = append(sched, slice)
				remaining -= slice
			}
			return append(sched, remaining)
		})
}

// ParallelLinial is the Parallel Template for vertex coloring: the
// measure-uniform algorithm runs alongside the fault-tolerant Linial
// coloring, whose result is stored locally; part 2 then spends Δ+1 repair
// rounds reconciling the stored colors with everything the measure-uniform
// lane output in the meantime (one color class per round, palettes always
// have room) before outputting. No clean-up stage is needed. Consistency 2
// and η₁-degrading without the Consecutive Template's factor two.
func ParallelLinial() runtime.Factory {
	return core.Parallel(core.ParallelSpec{
		Mem: NewMemory,
		B:   Init(),
		U:   MeasureUniform(0).New,
		R1:  LinialPart1(),
		R1Budget: func(info runtime.NodeInfo) int {
			return Rounds(info.D, info.Delta)
		},
		C:  nil,
		R2: RepairPart2(),
	})
}

// RepairPart2 returns the Parallel Template's second part for vertex
// coloring: Δ+1 rounds in which color class c (from Δ+1 down to 1) repairs
// collisions between the stored part-1 colors and the colors output by
// terminated neighbors, followed by the final output.
func RepairPart2() core.StageFactory {
	return func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
		return &repairMachine{mem: mem.(*Memory), total: info.Delta + 1}
	}
}

type repairMachine struct {
	mem   *Memory
	total int
	color int // 0-based working color
}

func (m *repairMachine) Send(c *core.StageCtx) []runtime.Out {
	if c.StageRound() == 1 {
		m.color = m.mem.Color - 1
	}
	return c.BroadcastActive(m.mem.NbrColor, colorMsg{C: m.color})
}

func (m *repairMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	delta := c.Info().Delta
	heard := make([]int, 0, len(inbox))
	for _, msg := range inbox {
		if cm, ok := msg.Payload.(colorMsg); ok {
			heard = append(heard, cm.C)
		}
	}
	forbidden := make([]bool, delta+1)
	for _, col := range m.mem.ForbiddenColors() {
		if col >= 1 && col <= delta+1 {
			forbidden[col-1] = true
		}
	}
	target := delta + 1 - c.StageRound() // delta down to 0 (0-based classes)
	if m.color == target && m.color >= 0 && m.color <= delta && forbidden[m.color] {
		taken := make([]bool, delta+1)
		copy(taken, forbidden)
		for _, h := range heard {
			if h >= 0 && h <= delta {
				taken[h] = true
			}
		}
		for v := 0; v <= delta; v++ {
			if !taken[v] {
				m.color = v
				break
			}
		}
	}
	if c.StageRound() >= m.total {
		c.Output(m.color + 1)
	}
}
