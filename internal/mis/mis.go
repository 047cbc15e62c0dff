// Package mis implements the paper's Maximal Independent Set algorithms with
// predictions: the MIS Base Algorithm and MIS Initialization Algorithm
// (Section 4), the one-round clean-up (Section 7.2), the Greedy MIS
// measure-uniform algorithm (Algorithm 1), Luby's randomized algorithm
// (Section 10), a collect-and-solve LOCAL reference, the coloring-based
// two-part reference of Corollary 12, and the black/white alternating
// measure-uniform algorithm of Section 9.1 — together with ready-made
// instantiations of the four templates.
package mis

import (
	"repro/internal/core"
	"repro/internal/runtime"
)

// Memory is the per-node shared state that persists across stages: the
// node's prediction, the predictions its neighbors announced during
// initialization, and the outputs of neighbors that have terminated. It also
// carries the color computed by part 1 of the coloring-based reference for
// part 2 (the Parallel template's "locally stored outputs").
type Memory struct {
	// Pred is the node's own prediction bit.
	Pred int
	// NbrPred holds each neighbor's announced prediction.
	NbrPred core.NbrTable
	// NbrOut holds each neighbor's output bit; presence means the neighbor
	// has terminated.
	NbrOut core.NbrTable
	// Color and Palette are part 1's locally stored coloring result.
	Color, Palette int

	// init and greedy are the node's initialization and Greedy stage
	// machines, reset when the node enters the stage, so entering one
	// allocates nothing. A node runs at most one stage of each kind at a
	// time in every composition of this package.
	init   initMachine
	greedy greedyMachine
}

// NewMemory returns the MemoryFactory for MIS compositions; every template
// builds its own. Each node's Memory and neighbor tables are carved from a
// per-run slab (core.NodeSlab), so the factory serves one run at a time.
func NewMemory() core.MemoryFactory {
	var slab core.NodeSlab[Memory, int]
	return func(info runtime.NodeInfo, pred any) any {
		m, buf := slab.Take(info, core.NbrTablesSize(info.Degree(), 2))
		if p, ok := pred.(int); ok {
			m.Pred = p
		}
		core.CarveNbrTables(buf, info.NeighborIDs, &m.NbrPred, &m.NbrOut)
		return m
	}
}

// StoreColor implements the color store used by reference part 1.
func (m *Memory) StoreColor(color, palette int) {
	m.Color, m.Palette = color, palette
}

// LoadColor returns part 1's stored color and palette size.
func (m *Memory) LoadColor() (color, palette int) {
	return m.Color, m.Palette
}

// RecordNeighborOutput notes that a neighbor terminated with the given
// output bit; it satisfies the memory interface of the decomposition
// reference.
func (m *Memory) RecordNeighborOutput(id, bit int) {
	m.NbrOut.Set(id, bit)
}

// ActiveNeighbors returns the IDs of neighbors not known to have terminated.
func (m *Memory) ActiveNeighbors(info runtime.NodeInfo) []int {
	return m.NbrOut.Missing()
}

// hasOutNeighbor reports whether some terminated neighbor output bit.
func (m *Memory) hasOutNeighbor(bit int) bool {
	return m.NbrOut.Contains(bit)
}

// notify is the message a node sends just before terminating: its output
// bit, as the paper's "inform their active neighbors about their output
// values".
type notify struct{ Bit int }

// Bits sizes the message for CONGEST accounting.
func (notify) Bits() int { return 2 }

// predMsg announces the sender's prediction (initialization round 1).
type predMsg struct{ Bit int }

// Bits sizes the message for CONGEST accounting.
func (predMsg) Bits() int { return 2 }

// recordNotifies folds termination notifications into memory.
func recordNotifies(mem *Memory, inbox []runtime.Msg) {
	for _, m := range inbox {
		if nt, ok := m.Payload.(notify); ok {
			mem.NbrOut.Set(m.From, nt.Bit)
		}
	}
}

// notifyAndOutput broadcasts the node's output bit to its active neighbors
// and terminates with that output.
func notifyAndOutput(c *core.StageCtx, mem *Memory, bit int) []runtime.Out {
	outs := c.BroadcastActive(mem.NbrOut, notify{Bit: bit})
	c.Output(bit)
	return outs
}
