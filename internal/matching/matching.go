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

	// announce and match are the node's two partner-carrying payloads. A
	// node broadcasts a pointer to them instead of boxing a partner
	// identifier per message, so each is written once, before its first
	// send, and never again: announce when the memory is made, match when
	// the node terminates matched. A duplicated or late copy of the
	// message therefore reads the same value.
	announce predAnnounce
	match    matched

	// init and greedy are the node's initialization and measure-uniform
	// stage machines, reset when the node enters the stage, so entering one
	// allocates nothing. A node runs at most one stage of each kind at a
	// time in every composition of this package.
	init   initMachine
	greedy greedyMachine
}

// NewMemory returns the MemoryFactory for matching compositions; every
// template builds its own. Each node's Memory and neighbor tables are carved
// from a per-run slab (core.NodeSlab), so the factory serves one run at a
// time.
func NewMemory() core.MemoryFactory {
	var slab core.NodeSlab[Memory, int]
	return func(info runtime.NodeInfo, pred any) any {
		m, buf := slab.Take(info, core.NbrTablesSize(info.Degree(), 2))
		m.Pred = Unmatched
		if v, ok := pred.(int); ok {
			m.Pred = v
		}
		m.announce = predAnnounce{Partner: m.Pred}
		core.CarveNbrTables(buf, info.NeighborIDs, &m.NbrPred, &m.NbrOut)
		return m
	}
}

// announceMatch records that the node terminates matched to partner and
// returns the payload announcing it. Call it once, as the node outputs
// partner.
func (m *Memory) announceMatch(partner int) *matched {
	m.match = matched{Partner: partner}
	return &m.match
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

// activeSpan returns the first and last positions in NeighborIDs of the
// neighbors not known to have terminated, or -1, -1 when there are none.
func (m *Memory) activeSpan() (first, last int) {
	first, last = -1, -1
	for k := range m.NbrOut.Len() {
		if _, gone := m.NbrOut.At(k); !gone {
			if first < 0 {
				first = k
			}
			last = k
		}
	}
	return first, last
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

// predAnnounce carries the sender's predicted partner. It is sent as a
// pointer to the sender's Memory.announce.
type predAnnounce struct{ Partner int }

// Bits sizes the message for CONGEST accounting.
func (predAnnounce) Bits() int { return 32 }

// matched announces that the sender terminates matched to Partner. It is
// sent as a pointer to the sender's Memory.match.
type matched struct{ Partner int }

// Bits sizes the message for CONGEST accounting.
func (matched) Bits() int { return 32 }

func (m *Memory) recordMatched(inbox []runtime.Msg) {
	for _, msg := range inbox {
		if mm, ok := msg.Payload.(*matched); ok {
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
		m := mem.(*Memory)
		m.init = initMachine{relaxed: relaxed}
		return &m.init
	}
}

// initMachine lives in the node's Memory, which it reaches through the
// stage context.
type initMachine struct {
	relaxed bool
}

func (m *initMachine) Send(c *core.StageCtx) []runtime.Out {
	mem := c.Memory().(*Memory)
	switch c.StageRound() {
	case 1:
		return c.Broadcast(&mem.announce)
	case 2:
		p := mem.Pred
		// A mutual prediction: p is a neighbor that announced this node.
		// Get reads 0 for ⊥, for this node and for any non-neighbor.
		if back, _ := mem.NbrPred.Get(p); back == c.ID() {
			outs := c.Broadcast(mem.announceMatch(p))
			c.Output(p)
			return outs
		}
	}
	return nil
}

func (m *initMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	mem := c.Memory().(*Memory)
	switch c.StageRound() {
	case 1:
		for _, msg := range inbox {
			if pa, ok := msg.Payload.(*predAnnounce); ok {
				mem.NbrPred.Set(msg.From, pa.Partner)
			}
		}
	case 2:
		mem.recordMatched(inbox)
		eligible := mem.Pred == Unmatched || m.relaxed
		if eligible && mem.allNeighborsMatched(c.Info()) {
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
			return cleanupMachine{}
		},
	}
}

// cleanupMachine is stateless: it keeps everything in the node's Memory, so
// the stage machine is a zero-size value and entering the stage allocates
// nothing.
type cleanupMachine struct{}

func (cleanupMachine) Send(c *core.StageCtx) []runtime.Out {
	if c.Memory().(*Memory).allNeighborsMatched(c.Info()) {
		c.Output(Unmatched)
	}
	return nil
}

func (cleanupMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	c.Memory().(*Memory).recordMatched(inbox)
	c.Yield()
}
