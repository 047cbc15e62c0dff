package mis

import (
	"repro/internal/core"
	"repro/internal/runtime"
)

// BWGreedy returns the black/white alternating measure-uniform algorithm of
// Section 9.1, U_bw, obtained from the Greedy MIS Algorithm: 2-round phases
// run alternately on the black nodes (prediction 1) and the white nodes
// (prediction 0). In a phase for color c, every active color-c node whose
// identifier exceeds those of its active *same-color* neighbors joins the
// independent set and informs all its active neighbors, including those of
// the other color; any notified node leaves in the phase's second round
// (Greedy's clean-up is part of each phase). Its round complexity is at most
// twice Greedy's, but when the black and white components are much smaller
// than the error components — as on the Figure 2 grid — it is much faster.
//
// The stage requires neighbor predictions in shared memory, so it must
// follow Base or Init.
func BWGreedy(budget int) core.Stage {
	return core.Stage{
		Name:   "mis/bw-greedy",
		Budget: budget,
		New: func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
			return &bwMachine{mem: mem.(*Memory)}
		},
	}
}

type bwMachine struct {
	mem    *Memory
	gotOne bool
}

// phaseColor returns the prediction bit whose nodes act in the phase
// containing stage round r (black first), and whether r is the phase's
// joining round (true) or clean-up round (false).
func phaseColor(r int) (color int, joining bool) {
	phase := (r - 1) / 2
	if phase%2 == 0 {
		color = 1
	}
	return color, (r-1)%2 == 0
}

func (m *bwMachine) Send(c *core.StageCtx) []runtime.Out {
	color, joining := phaseColor(c.StageRound())
	if joining {
		if m.mem.Pred != color || m.gotOne {
			return nil
		}
		for k, nb := range c.Info().NeighborIDs {
			if _, done := m.mem.NbrOut.At(k); done {
				continue
			}
			if p, _ := m.mem.NbrPred.At(k); p == color && nb > c.ID() {
				return nil
			}
		}
		return c.BroadcastActive(m.mem.NbrOut, notifyThenOutput(c, 1))
	}
	if m.gotOne {
		return notifyAndOutput(c, m.mem, 0)
	}
	return nil
}

func (m *bwMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	for _, msg := range inbox {
		if nt, ok := msg.Payload.(notify); ok {
			m.mem.NbrOut.Set(msg.From, nt.Bit)
			if nt.Bit == 1 {
				m.gotOne = true
			}
		}
	}
}
