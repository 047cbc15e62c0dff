package mis

import (
	"math/bits"

	"repro/internal/core"
	"repro/internal/runtime"
)

// ColorToMIS returns part 2 of the two-part reference of Corollary 12: given
// the proper coloring stored by part 1, color classes are added to the
// independent set one per round, augmented with the Greedy MIS rule — an
// active node with a color greater than the current class, no active
// neighbor in the current class, and an identifier larger than all its
// active neighbors' also joins — which makes the combined algorithm
// η₂-degrading (a node joins at least every other round in every remaining
// component).
func ColorToMIS() core.StageFactory {
	return func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
		return &colorToMISMachine{mem: mem.(*Memory), nbrColor: map[int]int{}}
	}
}

// myColor announces the node's stored color at the start of part 2.
type myColor struct{ C int }

// Bits sizes the message for CONGEST accounting.
func (m myColor) Bits() int { return bits.Len(uint(m.C)) + 1 }

type colorToMISMachine struct {
	mem      *Memory
	nbrColor map[int]int
	pending0 bool
}

func (m *colorToMISMachine) Send(c *core.StageCtx) []runtime.Out {
	if c.StageRound() == 1 {
		color, _ := m.mem.LoadColor()
		return c.BroadcastActive(m.mem.NbrOut, myColor{C: color})
	}
	if m.pending0 {
		return notifyAndOutput(c, m.mem, 0)
	}
	i := c.StageRound() - 1 // the color class considered this round
	if m.joins(c.Info(), i) {
		return c.BroadcastActive(m.mem.NbrOut, notifyThenOutput(c, 1))
	}
	return nil
}

// joins decides whether the node enters the independent set in class round i.
func (m *colorToMISMachine) joins(info runtime.NodeInfo, i int) bool {
	color, _ := m.mem.LoadColor()
	if color == i {
		return true
	}
	if color < i {
		return false
	}
	// Greedy augmentation (Corollary 12): no active neighbor holds class i
	// and this node's identifier beats all active neighbors'.
	for _, nb := range m.mem.ActiveNeighbors(info) {
		if m.nbrColor[nb] == i || nb > info.ID {
			return false
		}
	}
	return true
}

func (m *colorToMISMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	for _, msg := range inbox {
		switch p := msg.Payload.(type) {
		case myColor:
			m.nbrColor[msg.From] = p.C
		case notify:
			m.mem.NbrOut.Set(msg.From, p.Bit)
			if p.Bit == 1 {
				m.pending0 = true
			}
		}
	}
}
