package matching

import (
	"repro/internal/core"
	"repro/internal/runtime"
)

// MeasureUniform returns the measure-uniform maximal matching algorithm of
// Section 8.1, working in groups of three rounds: local-maximum nodes
// propose to their smallest-identifier active neighbor; each proposee
// accepts its largest proposer; the new pair informs its active neighbors
// and terminates; nodes left with no active neighbors output ⊥. Its round
// complexity on a component with s ≥ 2 nodes is at most 3⌊s/2⌋, and the code
// consults no graph parameter, so it is measure-uniform with respect to μ₁.
// Budgets should be multiples of 3 (group boundaries carry extendable
// partial solutions).
func MeasureUniform(budget int) core.Stage {
	return core.Stage{
		Name:   "matching/greedy",
		Budget: budget,
		New: func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
			return &greedyMachine{mem: mem.(*Memory)}
		},
	}
}

// propose asks the receiver to match with the sender.
type propose struct{}

// Bits sizes the message for CONGEST accounting.
func (propose) Bits() int { return 1 }

// accept tells the proposer the match is on.
type accept struct{}

// Bits sizes the message for CONGEST accounting.
func (accept) Bits() int { return 1 }

type greedyMachine struct {
	mem      *Memory
	proposed int // neighbor we proposed to this group (0 = none)
	chosen   int // proposer we accepted this group (0 = none)
	partner  int // agreed partner (0 = none)
}

func (m *greedyMachine) Send(c *core.StageCtx) []runtime.Out {
	info := c.Info()
	switch (c.StageRound()-1)%3 + 1 {
	case 1:
		m.proposed, m.chosen, m.partner = 0, 0, 0
		active := m.mem.ActiveNeighbors(info)
		if len(active) == 0 {
			c.Output(Unmatched)
			return nil
		}
		for _, nb := range active {
			if nb > info.ID {
				return nil
			}
		}
		m.proposed = active[0] // smallest active neighbor
		return []runtime.Out{{To: m.proposed, Payload: propose{}}}
	case 2:
		if m.chosen != 0 {
			m.partner = m.chosen
			return []runtime.Out{{To: m.chosen, Payload: accept{}}}
		}
	case 3:
		if m.partner != 0 {
			outs := c.BroadcastActive(m.mem.NbrOut, matched{Partner: m.partner})
			c.Output(m.partner)
			return outs
		}
	}
	return nil
}

func (m *greedyMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	switch (c.StageRound()-1)%3 + 1 {
	case 1:
		for _, msg := range inbox {
			if _, ok := msg.Payload.(propose); ok && msg.From > m.chosen {
				m.chosen = msg.From
			}
		}
	case 2:
		for _, msg := range inbox {
			if _, ok := msg.Payload.(accept); ok {
				// We proposed to exactly one node; its accept seals the pair.
				m.partner = msg.From
			}
		}
	case 3:
		m.mem.recordMatched(inbox)
		if len(m.mem.ActiveNeighbors(c.Info())) == 0 {
			// No active neighbors remain; safe to leave unmatched (every
			// neighbor is matched, so maximality is preserved).
			c.Output(Unmatched)
		}
	}
}
