// Package core implements the paper's framework for distributed graph
// algorithms with predictions (Sections 4, 6, 7): algorithms are composed
// from stages — a reasonable initialization algorithm, a measure-uniform
// algorithm, a clean-up algorithm, and a reference algorithm — and the four
// templates (Simple, Consecutive, Interleaved, Parallel) are generic
// combinators over those stages. All four are one machine, Sequence's: the
// Parallel Template is the Consecutive Template whose budgeted stage runs
// the measure-uniform algorithm alongside part 1 of the reference, and the
// Interleaved Template is initialization followed by one stage alternating
// the measure-uniform algorithm and the reference. Every stage with a
// positive Budget runs at most that many rounds; a Budget of 0 or less runs
// it until every node outputs or yields.
//
// Stage machines are written exactly like ordinary per-node machines; the
// combinators multiplex their messages onto the underlying network by
// stamping each message's runtime.Out.Tag header with the lane and stage it
// belongs to (lane 0 for an ordinary stage, lanes 1 and 2 for the two
// children of a multi-lane stage), and check the header of every delivery
// before handing the engine's inbox view unchanged to the stage, so the
// composed algorithms use their components as black boxes, as the paper
// prescribes. A stage's broadcasts (StageCtx.Broadcast and friends) take
// the engine's broadcast path as one tagged batch with a destination mask,
// and lanes build theirs in a reusable per-node outbox, so steady-state
// template rounds allocate nothing per message.
//
// Collect is the one collect-and-solve reference stage: it floods Rows for
// n rounds and hands the learned rows to a problem's Finish hook, with the
// round bound CollectBound. The mis, matching and edge-coloring collect
// references instantiate it, and Component, which rebuilds the graph a row
// set describes, also serves the cluster solve of internal/decomp.
//
// A per-node shared memory (created once per node, visible to every stage of
// that node) carries the knowledge the paper assumes persists across stages,
// such as which neighbors have terminated with which outputs.
//
// Per-node state comes from per-run slabs (NodeSlab): the templates carve
// every node's machine and broadcast mask (and outbox, for a multi-lane
// stage's merged sends), and the mis and matching memory
// factories every node's memory and neighbor tables, from a few
// allocations made when the engine builds node 0 and released with the
// run's machines. A template factory therefore serves one run at a
// time, and runs in sequence may share it.
package core

import (
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/runtime"
)

// StageMachine is the per-node behaviour of one algorithm stage. The
// send/receive contract matches runtime.Machine; the StageCtx additionally
// allows the machine to yield (finish the stage without a final output,
// handing the node to the next stage).
type StageMachine interface {
	Send(c *StageCtx) []runtime.Out
	Receive(c *StageCtx, inbox []runtime.Msg)
}

// StageFactory creates the stage machine for one node. mem is the node's
// shared memory (see Compose); pred is the node's prediction.
type StageFactory func(info runtime.NodeInfo, pred any, mem any) StageMachine

// Stage is one stage of a composed algorithm.
type Stage struct {
	// Name identifies the stage in error messages and traces.
	Name string
	// Budget caps the stage at a fixed number of rounds; after the budget
	// elapses every node still in the stage is forcibly yielded (the paper's
	// "interrupted after a given number of rounds"). A Budget of 0 or less
	// means the stage runs until every node outputs or yields.
	Budget int
	// New builds the per-node machine for this stage.
	New StageFactory
	// lanes marks the multi-lane stages of Interleaved and Parallel: their
	// machines step two child stages on lanes 1 and 2 under the stage's
	// index, so they tag their own messages, check their own inbox and
	// annotate their own span. Every other stage runs on lane 0.
	lanes bool
}

// MemoryFactory creates the per-node shared memory visible to all stages of
// that node. It may return nil when stages need no shared state.
type MemoryFactory func(info runtime.NodeInfo, pred any) any

// StageCtx is the environment a stage machine sees. It wraps the node's
// runtime environment and adds stage-local control flow.
type StageCtx struct {
	env        *runtime.Env
	mem        any
	stageRound int
	yielded    bool
	// stage is the index of the stage in its Sequence, under which a
	// multi-lane stage tags its lanes' messages.
	stage uint16
	// pending marks, in a Sequence's own context, a yield observed this
	// round: the Sequence advances to the next stage at the round's end.
	pending bool
	// staged marks a Sequence's own context: its Broadcast methods stage
	// one batch on the engine's broadcast path (runtime.Env's
	// BroadcastMasked) under the stage's tag, selecting destinations with
	// mask, the node's ⌈degree/64⌉ words carved from the run's slab. The
	// engine reads the mask until the round's routing is done.
	staged bool
	mask   []uint64
	// outbox backs the Broadcast methods of a lane context: the node's
	// reusable []Out, rebuilt in place by each call. The engine reads the
	// slice a Send returned only until the round's routing is done. A
	// Sequence context holds one only to merge a multi-lane stage's sends.
	outbox []runtime.Out
}

// Info returns the node's static information.
func (c *StageCtx) Info() runtime.NodeInfo { return c.env.Info() }

// ID returns the node's identifier.
func (c *StageCtx) ID() int { return c.env.ID() }

// Round returns the global round number (1-based).
func (c *StageCtx) Round() int { return c.env.Round() }

// StageRound returns the number of rounds this stage has been stepped on
// this node, counting the current round (1-based).
func (c *StageCtx) StageRound() int { return c.stageRound }

// Memory returns the node's shared memory.
func (c *StageCtx) Memory() any { return c.mem }

// Output assigns the node's final output and terminates it; later stages
// never run on this node.
func (c *StageCtx) Output(v any) {
	c.env.Output(v)
	c.env.Terminate()
}

// PartialOutput records an output value without terminating the node. Used
// by problems whose nodes emit outputs over several rounds (edge coloring);
// the final call to Output fixes the complete value.
func (c *StageCtx) PartialOutput(v any) {
	c.env.Output(v)
}

// Yield finishes this stage for the node without a final output; the next
// stage takes over starting next round.
func (c *StageCtx) Yield() { c.yielded = true }

// Fail records a protocol error that aborts the run.
func (c *StageCtx) Fail(err error) { c.env.Fail(err) }

// Tracing reports whether a trace recorder is attached to the run; guard
// annotation-string construction on it to keep the disabled path free.
func (c *StageCtx) Tracing() bool { return c.env.Tracing() }

// Annotate stages a trace annotation for this node (see runtime.Env's
// Annotate); the combinators use it to mark stage and lane transitions.
func (c *StageCtx) Annotate(name string, value int64) { c.env.Annotate(name, value) }

// Broadcast sends payload to every neighbor. Call at most one of the
// Broadcast methods per Send, and return what it returns. In a Sequence's
// own stage it stages the batch on the engine's broadcast path and returns
// nil; in a lane of a multi-lane stage it returns one Out per neighbor,
// built in the lane's reusable outbox, which the next call rebuilds.
//
//dgp:hotpath
func (c *StageCtx) Broadcast(payload any) []runtime.Out {
	if !c.staged {
		return c.BroadcastTo(c.env.Info().NeighborIDs, payload)
	}
	if len(c.mask) > 0 { // the node has neighbors
		c.env.BroadcastMasked(tagOf(0, c.stage), nil, payload)
	}
	return nil
}

// BroadcastTo is Broadcast to the listed destinations, one message per
// entry; an empty list sends nothing. In a Sequence's own stage a list of
// ascending, distinct neighbors — one a mask expresses — takes the
// engine's broadcast path. Any other list goes out as one Out per entry,
// as in a lane, and a non-neighbor among them aborts the run with the
// engine's protocol error.
//
//dgp:hotpath
func (c *StageCtx) BroadcastTo(dests []int, payload any) []runtime.Out {
	if c.staged && c.selectDests(dests) {
		if len(dests) > 0 {
			c.env.BroadcastMasked(tagOf(0, c.stage), c.mask, payload)
		}
		return nil
	}
	ob := c.reserve(len(dests))[:0]
	for _, to := range dests {
		ob = append(ob, runtime.Out{To: to, Payload: payload})
	}
	c.outbox = ob
	return ob
}

// selectDests sets the mask to the positions of dests among the node's
// NeighborIDs and reports whether dests are ascending, distinct neighbors,
// so that the mask selects exactly them.
//
//dgp:hotpath
func (c *StageCtx) selectDests(dests []int) bool {
	ids := c.env.Info().NeighborIDs
	clear(c.mask)
	lo := 0
	for _, to := range dests {
		k, ok := slices.BinarySearch(ids[lo:], to)
		if !ok {
			return false
		}
		k += lo
		c.mask[k>>6] |= 1 << (k & 63)
		lo = k + 1
	}
	return true
}

// BroadcastActive is Broadcast to the neighbors with no entry in done, in
// ascending identifier order: with done the table of terminated neighbors'
// outputs, the neighbors still active. When every neighbor has an entry it
// sends nothing. In a Sequence's own stage a table over the node's
// NeighborIDs takes the engine's broadcast path; a table over other
// identifiers is sent to them as one Out each, as BroadcastTo sends a list
// no mask expresses.
//
//dgp:hotpath
func (c *StageCtx) BroadcastActive(done NbrTable, payload any) []runtime.Out {
	d := len(done.ids)
	if !c.staged || !sameIDs(done.ids, c.env.Info().NeighborIDs) {
		ob := c.reserve(d)[:0]
		for k, to := range done.ids {
			if !done.present(k) {
				ob = append(ob, runtime.Out{To: to, Payload: payload})
			}
		}
		c.outbox = ob
		return ob
	}
	// The mask is the complement of done's presence words, cut at d.
	sel := uint64(0)
	for w := range c.mask {
		m := ^uint64(done.buf[d+w])
		if rest := d - 64*w; rest < 64 {
			m &= 1<<rest - 1
		}
		c.mask[w] = m
		sel |= m
	}
	if sel != 0 {
		c.env.BroadcastMasked(tagOf(0, c.stage), c.mask, payload)
	}
	return nil
}

// sameIDs reports whether a and b hold the same identifiers. Tables share
// their node's NeighborIDs view, so the first-element check settles the
// usual case without a scan.
func sameIDs(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0] || slices.Equal(a, b))
}

// reserve returns the outbox with room for n messages. A Sequence machine
// holding a multi-lane stage starts with a degree-sized outbox carved from
// the run's slab; lane contexts allocate theirs here — once per node and
// lane in steady state — at the node's degree or n, whichever is larger.
func (c *StageCtx) reserve(n int) []runtime.Out {
	if cap(c.outbox) < n {
		c.outbox = make([]runtime.Out, 0, max(n, c.env.Info().Degree()))
	}
	return c.outbox
}

// annotateStage stages the span annotation for entering a named stage with
// the given round budget. All combinators funnel through this so stage
// spans share one naming convention (obs.SpanStagePrefix + name).
func annotateStage(env *runtime.Env, name string, budget int) {
	env.Annotate(obs.SpanStagePrefix+name, int64(budget))
}

// tagOf packs a lane and stage into a message tag header. The marker bit
// keeps every combinator tag nonzero, so untagged and corrupted deliveries
// (runtime.Msg.Tag 0) are never mistaken for lane 0, stage 0.
func tagOf(lane uint8, stage uint16) uint32 {
	return 1<<24 | uint32(lane)<<16 | uint32(stage)
}

// wrapOuts stamps the (lane, stage) tag on every outgoing message in place.
//
//dgp:hotpath
func wrapOuts(outs []runtime.Out, lane uint8, stage uint16) []runtime.Out {
	tag := tagOf(lane, stage)
	for i := range outs {
		outs[i].Tag = tag
	}
	return outs
}

// checkInbox verifies that every delivery carries the (lane, stage) tag, so
// the caller can hand the engine's inbox view to the stage unchanged.
//
//dgp:hotpath
func checkInbox(inbox []runtime.Msg, lane uint8, stage uint16) error {
	tag := tagOf(lane, stage)
	for _, m := range inbox {
		if m.Tag != tag {
			return tagError(m, lane, stage)
		}
	}
	return nil
}

// tagError reports a delivery whose tag is not the expected (lane, stage):
// untagged (or corrupted on the wire), or sent from another lane or stage.
func tagError(m runtime.Msg, lane uint8, stage uint16) error {
	if m.Tag == 0 {
		return fmt.Errorf("%w: core: untagged message from node %d", runtime.ErrProtocol, m.From)
	}
	return fmt.Errorf("%w: core: lockstep violation: message from node %d on lane %d stage %d, expected lane %d stage %d",
		runtime.ErrProtocol, m.From, uint8(m.Tag>>16), uint16(m.Tag), lane, stage)
}
