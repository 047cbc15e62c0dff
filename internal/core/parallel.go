package core

import (
	"fmt"

	"repro/internal/runtime"
)

// ParallelSpec configures the Parallel Template (paper Algorithm 5).
type ParallelSpec struct {
	// Mem creates the per-node shared memory. Part 1 of the reference stores
	// its locally held result (e.g. the node's color) here for part 2.
	Mem MemoryFactory
	// B is the reasonable initialization stage. As in Sequence, a positive
	// Budget caps it and a Budget of 0 or less runs it until it yields.
	B Stage
	// U is the measure-uniform algorithm run in parallel with part 1.
	U StageFactory
	// R1 is the fault-tolerant first part of the reference algorithm. Its
	// machines must not call Output; they record results in shared memory
	// and may Yield early (the lane then idles until the budget elapses).
	R1 StageFactory
	// R1Budget computes the known upper bound r_1(n, Δ, d) on part 1's round
	// complexity; every node runs the parallel section exactly this long. A
	// budget of 0 or less skips the section and the clean-up, as in
	// Consecutive.
	R1Budget func(info runtime.NodeInfo) int
	// C is the optional clean-up stage (nil to skip, e.g. when the partial
	// solution at the budget boundary is always extendable).
	C *Stage
	// R2 is the second part of the reference, run to completion on the nodes
	// still active; it reads part 1's result from shared memory.
	R2 StageFactory
}

// Section span names for the anonymous parallel-template lanes.
const (
	spanParallel = "parallel/U+R1"
	spanR2       = "parallel/R2"
)

// Parallel composes the Parallel Template: after initialization, the
// measure-uniform algorithm and part 1 of the reference run simultaneously on
// separate message lanes. A node that terminates through the measure-uniform
// lane is, from the reference's point of view, crashed — part 1 must be fault
// tolerant, exactly as the paper requires. After r_1 rounds the clean-up runs
// and the survivors finish with part 2 of the reference.
//
// It is the Consecutive Template whose budgeted stage is that section, at
// budget R1Budget, and whose reference is part 2.
func Parallel(spec ParallelSpec) runtime.Factory {
	return Consecutive(ConsecutiveSpec{
		Mem: spec.Mem,
		B:   spec.B,
		U: func(budget int) Stage {
			return Stage{
				Name:   spanParallel,
				Budget: budget,
				lanes:  true,
				New: func(info runtime.NodeInfo, pred any, mem any) StageMachine {
					return &sectionMachine{
						budget: budget,
						u:      newLane(spec.U, info, pred, mem),
						r1:     newLane(spec.R1, info, pred, mem),
					}
				},
			}
		},
		Budget: spec.R1Budget,
		C:      spec.C,
		Ref:    FixedRef(Stage{Name: spanR2, New: spec.R2}),
	})
}

// sectionMachine steps U and reference part 1 side by side for the
// section's budget; Sequence ends the stage when the budget elapses.
type sectionMachine struct {
	budget int
	u, r1  lane
	r1Done bool // R1 yielded early; its lane idles
	// uIn and rIn are the reusable buffers of the inbox split by lane.
	uIn, rIn []runtime.Msg
}

func (m *sectionMachine) Send(c *StageCtx) []runtime.Out {
	if c.Tracing() {
		// Span value: the rounds left in the section, counting this one
		// (summaries keep the first declared budget).
		annotateStage(c.env, spanParallel, m.budget-c.StageRound()+1)
	}
	outs := m.u.send(c, laneU)
	if c.env.Terminated() || m.r1Done {
		// A node leaving through the measure-uniform lane is a crash to
		// part 1, which sends nothing further.
		return outs
	}
	r1Outs := m.r1.send(c, laneR)
	if c.env.Terminated() {
		c.Fail(part1Output(c))
		return nil
	}
	ob := append(append(c.reserve(len(outs) + len(r1Outs))[:0], outs...), r1Outs...)
	c.outbox = ob
	return ob
}

func (m *sectionMachine) Receive(c *StageCtx, inbox []runtime.Msg) {
	uTag, rTag := tagOf(laneU, c.stage), tagOf(laneR, c.stage)
	m.uIn, m.rIn = m.uIn[:0], m.rIn[:0]
	for _, msg := range inbox {
		switch msg.Tag {
		case uTag:
			m.uIn = append(m.uIn, msg)
		case rTag:
			m.rIn = append(m.rIn, msg)
		default:
			c.Fail(fmt.Errorf("%w (parallel section)", tagError(msg, laneU, c.stage)))
			return
		}
	}
	m.u.receive(c, m.uIn)
	if c.env.Terminated() || m.r1Done {
		return
	}
	m.r1.receive(c, m.rIn)
	if c.env.Terminated() {
		c.Fail(part1Output(c))
		return
	}
	m.r1Done = m.r1.ctx.yielded
}

func part1Output(c *StageCtx) error {
	return fmt.Errorf("%w: core: parallel reference part 1 output at node %d", runtime.ErrProtocol, c.ID())
}
