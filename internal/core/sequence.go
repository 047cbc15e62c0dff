package core

import (
	"fmt"
	"slices"

	"repro/internal/runtime"
)

// Sequence composes stages to run one after another: every node executes
// stage k until it outputs (terminating the node) or yields, after which the
// next stage takes over. Transitions must be lockstep across nodes — every
// stage in this repository either has a fixed length or is entered and left
// by all nodes in the same round — and the message tags enforce this at run
// time.
//
// The Simple Template (paper Algorithm 2) is Sequence(mem, B, R); the
// Consecutive Template (Algorithm 3) is Sequence(mem, B, U(budget), C, R);
// the Parallel Template (Algorithm 5) is the same with a section stage
// running U alongside reference part 1 in place of U(budget); and the
// Interleaved Template (Algorithm 4) is Sequence(mem, B, the alternation
// of U and R).
//
// A stage sends without an outbox: its Broadcast methods stage one batch
// on the engine's broadcast path, under the stage's tag and a destination
// mask (a destination list no mask expresses goes out as one Out per
// entry, in an outbox the node allocates the first time). The nodes' sequence machines and masks — and, when a stage is
// multi-lane, the degree-sized outboxes that merge its lanes' sends — are
// carved from per-run slabs (NodeSlab), so the factory serves one run at a
// time.
func Sequence(mem MemoryFactory, stages ...Stage) runtime.Factory {
	f := &seqFactory{stages: stages}
	return func(info runtime.NodeInfo, pred any) runtime.Machine {
		return newSeqMachine(&f.slabs, mem, &f.stages, info, pred)
	}
}

// seqFactory is a Sequence factory's state: its per-run slabs and the stage
// list every machine it builds points to.
type seqFactory struct {
	slabs  seqSlabs
	stages []Stage
}

// seqSlabs are a sequence factory's per-run slabs: the machines with their
// mask words, and the outboxes of multi-lane sequences.
type seqSlabs struct {
	machines NodeSlab[seqMachine, uint64]
	outboxes NodeSlab[struct{}, runtime.Out]
}

// newSeqMachine builds node info's sequence machine over the shared stage
// list from slabs, with its shared memory from mem, and enters the first
// stage.
func newSeqMachine(slabs *seqSlabs, mem MemoryFactory, stages *[]Stage, info runtime.NodeInfo, pred any) *seqMachine {
	var m any
	if mem != nil {
		m = mem(info, pred)
	}
	sm, mask := slabs.machines.Take(info, (info.Degree()+63)/64)
	// Every node takes from the outbox slab, with 0 when it needs no
	// outbox, so the slab's index-order contract holds.
	out := 0
	if slices.ContainsFunc(*stages, func(s Stage) bool { return s.lanes }) {
		out = info.Degree()
	}
	_, outbox := slabs.outboxes.Take(info, out)
	*sm = seqMachine{pred: pred, stages: stages}
	sm.ctx.mem, sm.ctx.mask, sm.ctx.outbox = m, mask, outbox[:0]
	sm.enter(0, info)
	return sm
}

// seqMachine is one node's Sequence machine. It keeps each fact once: the
// node's memory and current stage index live in ctx, and the stage list is
// shared with every node of the factory that runs the same list.
type seqMachine struct {
	pred    any
	stages  *[]Stage
	machine StageMachine
	ctx     StageCtx
}

// enter starts stage k on the node info describes.
func (s *seqMachine) enter(k int, info runtime.NodeInfo) {
	if stages := *s.stages; k < len(stages) {
		s.machine = stages[k].New(info, s.pred, s.ctx.mem)
	} else {
		s.machine = nil
	}
	// The memory, mask and outbox outlive the stage: they are the node's.
	s.ctx = StageCtx{mem: s.ctx.mem, stage: uint16(k), staged: true, mask: s.ctx.mask, outbox: s.ctx.outbox}
}

func (s *seqMachine) Send(env *runtime.Env) []runtime.Out {
	if s.machine == nil {
		env.Fail(fmt.Errorf("%w: core: node %d active past final stage without output", runtime.ErrProtocol, env.ID()))
		return nil
	}
	st := &(*s.stages)[s.ctx.stage]
	// One span note per round in the stage: summaries then see the stage's
	// true round span and node-rounds, not just its entry.
	if env.Tracing() && !st.lanes {
		annotateStage(env, st.Name, st.Budget)
	}
	s.ctx.env = env
	s.ctx.stageRound++
	outs := s.machine.Send(&s.ctx)
	if s.ctx.yielded {
		s.ctx.pending = true
	}
	if st.lanes {
		return outs
	}
	return wrapOuts(outs, 0, s.ctx.stage)
}

func (s *seqMachine) Receive(env *runtime.Env, inbox []runtime.Msg) {
	s.ctx.env = env
	st := &(*s.stages)[s.ctx.stage]
	if !st.lanes {
		if err := checkInbox(inbox, 0, s.ctx.stage); err != nil {
			env.Fail(fmt.Errorf("%w (stage %q)", err, st.Name))
			return
		}
	}
	// A node whose stage already yielded this round still receives the
	// round's messages (the model delivers them), but the stage is done; we
	// require stages to have nothing useful left to hear after yielding, and
	// drop the inbox in that case.
	if !s.ctx.pending {
		s.machine.Receive(&s.ctx, inbox)
		if s.ctx.yielded {
			s.ctx.pending = true
		}
	}
	if env.Terminated() {
		return
	}
	if s.ctx.pending || (st.Budget > 0 && s.ctx.stageRound >= st.Budget) {
		s.enter(int(s.ctx.stage)+1, env.Info())
	}
}

// The lanes of a multi-lane stage's two children; an ordinary stage runs
// on lane 0.
const (
	laneU uint8 = 1
	laneR uint8 = 2
)

// lane is one child stage of a multi-lane stage: its machine and its own
// context, stepped under the lane's tag and the enclosing stage's index.
type lane struct {
	m   StageMachine
	ctx StageCtx
}

func newLane(f StageFactory, info runtime.NodeInfo, pred, mem any) lane {
	return lane{m: f(info, pred, mem), ctx: StageCtx{mem: mem}}
}

// send steps the lane's Send in the enclosing stage's round c and tags the
// messages with the lane id.
func (l *lane) send(c *StageCtx, id uint8) []runtime.Out {
	l.ctx.env = c.env
	l.ctx.stageRound++
	return wrapOuts(l.m.Send(&l.ctx), id, c.stage)
}

// receive steps the lane's Receive in the enclosing stage's round c.
func (l *lane) receive(c *StageCtx, inbox []runtime.Msg) {
	l.ctx.env = c.env
	l.m.Receive(&l.ctx, inbox)
}
