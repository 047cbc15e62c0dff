// Package matching implements the Maximal Matching problem with predictions
// (paper Section 8.1): the two-round base algorithm, the reasonable
// initialization that additionally lets a node output ⊥ whenever all its
// neighbors are matched, the one-round clean-up, the 3-round-group
// measure-uniform proposal algorithm, and a collect-and-solve reference.
//
// Outputs and predictions are partner identifiers, with Unmatched (0)
// meaning ⊥.
package matching

import (
	"repro/internal/core"
	"repro/internal/runtime"
)

// Unmatched is the output/prediction for an unmatched node (the paper's ⊥).
const Unmatched = 0

// Memory is the per-node shared state across stages.
type Memory struct {
	// Pred is the predicted partner identifier, or Unmatched.
	Pred int
	// NbrPred holds each neighbor's announced prediction.
	NbrPred core.NbrTable
	// NbrOut holds each neighbor's output (partner or Unmatched); presence
	// means the neighbor has terminated.
	NbrOut core.NbrTable
	// R1Colors holds the edge colors (1-based classes, keyed by neighbor
	// ID) stored by the fault-tolerant edge coloring when it serves as part
	// 1 of the Parallel Template reference.
	R1Colors map[int]int
}

// NewMemory is the MemoryFactory for matching compositions.
func NewMemory(info runtime.NodeInfo, pred any) any {
	p := Unmatched
	if v, ok := pred.(int); ok {
		p = v
	}
	m := &Memory{Pred: p}
	core.NewNbrTables(info.NeighborIDs, &m.NbrPred, &m.NbrOut)
	return m
}

// LiveEdges implements linegraph.Host: the edges to still-active neighbors
// participate in the reference's edge coloring.
func (m *Memory) LiveEdges(info runtime.NodeInfo) []int {
	return m.ActiveNeighbors(info)
}

// StoreEdgeColors implements linegraph.Host.
func (m *Memory) StoreEdgeColors(colors map[int]int) { m.R1Colors = colors }

// ActiveNeighbors returns neighbors not known to have terminated.
func (m *Memory) ActiveNeighbors(info runtime.NodeInfo) []int {
	return m.NbrOut.Missing()
}

// allNeighborsMatched reports whether every neighbor has terminated with a
// partner (so outputting ⊥ is safe and the partial solution stays
// extendable).
func (m *Memory) allNeighborsMatched(info runtime.NodeInfo) bool {
	for k := range info.NeighborIDs {
		out, gone := m.NbrOut.At(k)
		if !gone || out == Unmatched {
			return false
		}
	}
	return true
}

// predAnnounce carries the sender's predicted partner.
type predAnnounce struct{ Partner int }

// Bits sizes the message for CONGEST accounting.
func (predAnnounce) Bits() int { return 32 }

// matched announces that the sender terminates matched to Partner.
type matched struct{ Partner int }

// Bits sizes the message for CONGEST accounting.
func (matched) Bits() int { return 32 }

func (m *Memory) recordMatched(inbox []runtime.Msg) {
	for _, msg := range inbox {
		if mm, ok := msg.Payload.(matched); ok {
			m.NbrOut.Set(msg.From, mm.Partner)
		}
	}
}

// Base returns the Maximal Matching Base Algorithm (Section 8.1): nodes
// exchange predictions; mutual predictions become matches, announced in
// round 2; a node predicted ⊥ whose neighbors all matched outputs ⊥.
// Two rounds.
func Base() core.Stage {
	return core.Stage{Name: "matching/base", Budget: 2, New: newInitLike(false)}
}

// Init returns the reasonable (non-pruning) initialization: additionally,
// any node all of whose neighbors are matched outputs ⊥, even if its own
// prediction was a partner.
func Init() core.Stage {
	return core.Stage{Name: "matching/init", Budget: 2, New: newInitLike(true)}
}

func newInitLike(relaxed bool) core.StageFactory {
	return func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
		return &initMachine{mem: mem.(*Memory), relaxed: relaxed}
	}
}

type initMachine struct {
	mem     *Memory
	relaxed bool
}

func (m *initMachine) Send(c *core.StageCtx) []runtime.Out {
	switch c.StageRound() {
	case 1:
		return c.Broadcast(predAnnounce{Partner: m.mem.Pred})
	case 2:
		p := m.mem.Pred
		// A mutual prediction: p is a neighbor that announced this node.
		// Get reads 0 for ⊥, for this node and for any non-neighbor.
		if back, _ := m.mem.NbrPred.Get(p); back == c.ID() {
			outs := c.Broadcast(matched{Partner: p})
			c.Output(p)
			return outs
		}
	}
	return nil
}

func (m *initMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	switch c.StageRound() {
	case 1:
		for _, msg := range inbox {
			if pa, ok := msg.Payload.(predAnnounce); ok {
				m.mem.NbrPred.Set(msg.From, pa.Partner)
			}
		}
	case 2:
		m.mem.recordMatched(inbox)
		eligible := m.mem.Pred == Unmatched || m.relaxed
		if eligible && m.mem.allNeighborsMatched(c.Info()) {
			// All neighbors terminated matched; nobody needs a notification.
			c.Output(Unmatched)
			return
		}
		c.Yield()
	}
}

// Cleanup returns the matching clean-up (Section 7.2 adapted per Section
// 8.1): in one round, every active node whose neighbors are all matched
// outputs ⊥; matches themselves complete within the measure-uniform
// algorithm's groups, so no pending pairs exist at group boundaries.
func Cleanup() core.Stage {
	return core.Stage{
		Name:   "matching/cleanup",
		Budget: 1,
		New: func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
			return &cleanupMachine{mem: mem.(*Memory)}
		},
	}
}

type cleanupMachine struct{ mem *Memory }

func (m *cleanupMachine) Send(c *core.StageCtx) []runtime.Out {
	if m.mem.allNeighborsMatched(c.Info()) {
		c.Output(Unmatched)
	}
	return nil
}

func (m *cleanupMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	m.mem.recordMatched(inbox)
	c.Yield()
}
