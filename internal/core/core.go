// Package core implements the paper's framework for distributed graph
// algorithms with predictions (Sections 4, 6, 7): algorithms are composed
// from stages — a reasonable initialization algorithm, a measure-uniform
// algorithm, a clean-up algorithm, and a reference algorithm — and the four
// templates (Simple, Consecutive, Interleaved, Parallel) are generic
// combinators over those stages.
//
// Stage machines are written exactly like ordinary per-node machines; the
// combinators multiplex their messages onto the underlying network by
// stamping each message's runtime.Out.Tag header with the lane and stage it
// belongs to, and check the header of every delivery before handing the
// engine's inbox view unchanged to the stage, so the composed algorithms use
// their components as black boxes, as the paper prescribes. A stage builds
// its broadcasts in a reusable per-node outbox (StageCtx.Broadcast and
// friends), so steady-state template rounds allocate nothing per message.
// A per-node shared memory (created once per node, visible to every stage of
// that node) carries the knowledge the paper assumes persists across stages,
// such as which neighbors have terminated with which outputs.
//
// Per-node state comes from per-run slabs (NodeSlab): Sequence and
// Consecutive carve every node's machine and outbox, and the mis and
// matching memory factories every node's memory and neighbor tables, from
// a few allocations made when the engine builds node 0 and released with
// the run's machines. A template factory therefore serves one run at a
// time, and runs in sequence may share it.
package core

import (
	"fmt"

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
	// "interrupted after a given number of rounds"). Budget 0 means the
	// stage runs until every node outputs or yields.
	Budget int
	// New builds the per-node machine for this stage.
	New StageFactory
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
	// outbox backs Broadcast/BroadcastTo/BroadcastActive: the node's
	// reusable []Out, rebuilt in place by each call. The engine reads the
	// slice a Send returned only until the round's routing is done.
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

// Broadcast returns one Out per neighbor carrying payload, built in the
// node's reusable outbox: return it from Send. It replaces the previous
// outbox contents, so call at most one of the Broadcast methods per Send.
//
//dgp:hotpath
func (c *StageCtx) Broadcast(payload any) []runtime.Out {
	return c.BroadcastTo(c.env.Info().NeighborIDs, payload)
}

// BroadcastTo is Broadcast to the listed destinations.
//
//dgp:hotpath
func (c *StageCtx) BroadcastTo(dests []int, payload any) []runtime.Out {
	ob := c.reserve(len(dests))[:0]
	for _, to := range dests {
		ob = append(ob, runtime.Out{To: to, Payload: payload})
	}
	c.outbox = ob
	return ob
}

// BroadcastActive is Broadcast to the neighbors with no entry in done, in
// ascending identifier order: with done the table of terminated neighbors'
// outputs, the neighbors still active.
//
//dgp:hotpath
func (c *StageCtx) BroadcastActive(done NbrTable, payload any) []runtime.Out {
	ob := c.reserve(len(done.ids))[:0]
	for k, to := range done.ids {
		if !done.present(k) {
			ob = append(ob, runtime.Out{To: to, Payload: payload})
		}
	}
	c.outbox = ob
	return ob
}

// reserve returns the outbox with room for n messages. Sequence machines
// start with a degree-sized outbox carved from the run's slab; other
// contexts allocate theirs here — once per node and stage context in steady
// state — at the node's degree or n, whichever is larger.
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
