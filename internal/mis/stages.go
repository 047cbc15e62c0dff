package mis

import (
	"repro/internal/core"
	"repro/internal/runtime"
)

// Base returns the MIS Base Algorithm (Section 4), the 3-round pruning
// algorithm that defines the problem's error components: round 1 exchanges
// predictions; the nodes with prediction 1 all of whose neighbors predict 0
// form the independent set I; round 2 they notify, output 1, and terminate;
// round 3 their neighbors notify, output 0, and terminate.
func Base() core.Stage {
	return core.Stage{Name: "mis/base", Budget: 3, New: newInitLike(false)}
}

// Init returns the MIS Initialization Algorithm (Section 4), the reasonable
// initialization used by the template instantiations: I instead consists of
// the nodes with prediction 1 whose neighbors with prediction 1 (if any) all
// have smaller identifiers; the partial solution it produces always contains
// the Base Algorithm's.
func Init() core.Stage {
	return core.Stage{Name: "mis/init", Budget: 3, New: newInitLike(true)}
}

// newInitLike builds the machine shared by Base and Init; tieBreak selects
// the Initialization Algorithm's larger independent set.
func newInitLike(tieBreak bool) core.StageFactory {
	return func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
		return &initMachine{mem: mem.(*Memory), tieBreak: tieBreak}
	}
}

type initMachine struct {
	mem      *Memory
	tieBreak bool
	sawOne   bool
}

func (m *initMachine) Send(c *core.StageCtx) []runtime.Out {
	switch c.StageRound() {
	case 1:
		return c.Broadcast(predMsg{Bit: m.mem.Pred})
	case 2:
		if m.inI(c.Info()) {
			return notifyAndOutput(c, m.mem, 1)
		}
	case 3:
		if m.sawOne {
			return notifyAndOutput(c, m.mem, 0)
		}
	}
	return nil
}

func (m *initMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	switch c.StageRound() {
	case 1:
		for _, msg := range inbox {
			if pm, ok := msg.Payload.(predMsg); ok {
				m.mem.NbrPred.Set(msg.From, pm.Bit)
			}
		}
	case 2:
		for _, msg := range inbox {
			if nt, ok := msg.Payload.(notify); ok {
				m.mem.NbrOut.Set(msg.From, nt.Bit)
				if nt.Bit == 1 {
					m.sawOne = true
				}
			}
		}
	case 3:
		recordNotifies(m.mem, inbox)
		c.Yield()
	}
}

// inI decides membership in the initialization's independent set.
func (m *initMachine) inI(info runtime.NodeInfo) bool {
	if m.mem.Pred != 1 {
		return false
	}
	for k, nb := range info.NeighborIDs {
		if p, _ := m.mem.NbrPred.At(k); p != 1 {
			continue
		}
		if !m.tieBreak {
			return false // Base Algorithm: any prediction-1 neighbor disqualifies.
		}
		if nb > info.ID {
			return false // Initialization Algorithm: larger-ID prediction-1 neighbor wins.
		}
	}
	return true
}

// Cleanup returns the one-round MIS clean-up algorithm (Section 7.2): every
// active node with a neighbor that output 1 informs its active neighbors,
// outputs 0, and terminates; the resulting partial solution is extendable.
func Cleanup() core.Stage {
	return core.Stage{
		Name:   "mis/cleanup",
		Budget: 1,
		New: func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
			return &cleanupMachine{mem: mem.(*Memory)}
		},
	}
}

type cleanupMachine struct{ mem *Memory }

func (m *cleanupMachine) Send(c *core.StageCtx) []runtime.Out {
	if m.mem.hasOutNeighbor(1) {
		return notifyAndOutput(c, m.mem, 0)
	}
	return nil
}

func (m *cleanupMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	recordNotifies(m.mem, inbox)
	c.Yield()
}
