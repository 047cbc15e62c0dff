package mis

import (
	"repro/internal/core"
	"repro/internal/runtime"
)

// Greedy returns the Greedy MIS Algorithm (paper Algorithm 1), the
// measure-uniform algorithm used throughout the templates. In each odd
// stage round, every node whose identifier exceeds those of all its active
// neighbors notifies them, outputs 1, and terminates; in the following even
// round, notified nodes output 0 and terminate. The partial solution at the
// end of every even round is extendable, so interrupting the stage at an
// even budget is always safe.
//
// Its round complexity on a component S is at most μ₁(S) (Lemma 1) and at
// most μ₂(S)+1 (Lemma 2); it is measure-uniform with respect to both — the
// code consults no graph parameter.
func Greedy() core.Stage { return GreedyBudget(0) }

// GreedyBudget is Greedy interrupted after the given number of rounds (0 for
// unbounded); budgets should be even so the interruption point carries an
// extendable partial solution.
func GreedyBudget(budget int) core.Stage {
	return core.Stage{
		Name:   "mis/greedy",
		Budget: budget,
		New: func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
			m := mem.(*Memory)
			m.greedy = greedyMachine{}
			return &m.greedy
		},
	}
}

// greedyMachine lives in the node's Memory, which it reaches through the
// stage context.
type greedyMachine struct {
	gotOne bool
}

func (m *greedyMachine) Send(c *core.StageCtx) []runtime.Out {
	mem := c.Memory().(*Memory)
	if c.StageRound()%2 == 1 {
		// NeighborIDs ascend: scan the larger identifiers from the top for
		// one still active.
		ids := c.Info().NeighborIDs
		for k := len(ids) - 1; k >= 0 && ids[k] > c.ID(); k-- {
			if _, gone := mem.NbrOut.At(k); !gone {
				return nil
			}
		}
		return c.BroadcastActive(mem.NbrOut, notifyThenOutput(c, 1))
	}
	if m.gotOne {
		return notifyAndOutput(c, mem, 0)
	}
	return nil
}

func (m *greedyMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	mem := c.Memory().(*Memory)
	for _, msg := range inbox {
		if nt, ok := msg.Payload.(notify); ok {
			mem.NbrOut.Set(msg.From, nt.Bit)
			if nt.Bit == 1 {
				m.gotOne = true
			}
		}
	}
}

// notifyThenOutput sets the node's final output and returns the notification
// payload to broadcast in the same round.
func notifyThenOutput(c *core.StageCtx, bit int) notify {
	c.Output(bit)
	return notify{Bit: bit}
}
