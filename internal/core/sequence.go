package core

import (
	"fmt"

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
// Consecutive Template (Algorithm 3) is Sequence(mem, B, U(budget), C, R).
func Sequence(mem MemoryFactory, stages ...Stage) runtime.Factory {
	return func(info runtime.NodeInfo, pred any) runtime.Machine {
		var m any
		if mem != nil {
			m = mem(info, pred)
		}
		sm := &seqMachine{info: info, pred: pred, mem: m, stages: stages}
		sm.enter(0)
		return sm
	}
}

type seqMachine struct {
	info   runtime.NodeInfo
	pred   any
	mem    any
	stages []Stage

	cur     int
	machine StageMachine
	ctx     StageCtx
	pending bool // yield observed; advance at end of round
}

func (s *seqMachine) enter(k int) {
	s.cur = k
	if k < len(s.stages) {
		s.machine = s.stages[k].New(s.info, s.pred, s.mem)
	} else {
		s.machine = nil
	}
	// The outbox outlives the stage: it is the node's, not the stage's.
	s.ctx = StageCtx{mem: s.mem, outbox: s.ctx.outbox}
	s.pending = false
}

func (s *seqMachine) Send(env *runtime.Env) []runtime.Out {
	if s.machine == nil {
		env.Fail(fmt.Errorf("%w: core: node %d active past final stage without output", runtime.ErrProtocol, env.ID()))
		return nil
	}
	// One span note per round in the stage: summaries then see the stage's
	// true round span and node-rounds, not just its entry.
	if env.Tracing() {
		annotateStage(env, s.stages[s.cur].Name, s.stages[s.cur].Budget)
	}
	s.ctx.env = env
	s.ctx.stageRound++
	outs := s.machine.Send(&s.ctx)
	if s.ctx.yielded {
		s.pending = true
	}
	return wrapOuts(outs, 0, uint16(s.cur))
}

func (s *seqMachine) Receive(env *runtime.Env, inbox []runtime.Msg) {
	s.ctx.env = env
	if err := checkInbox(inbox, 0, uint16(s.cur)); err != nil {
		env.Fail(fmt.Errorf("%w (stage %q)", err, s.stages[s.cur].Name))
		return
	}
	// A node whose stage already yielded this round still receives the
	// round's messages (the model delivers them), but the stage is done; we
	// require stages to have nothing useful left to hear after yielding, and
	// drop the inbox in that case.
	if !s.pending {
		s.machine.Receive(&s.ctx, inbox)
		if s.ctx.yielded {
			s.pending = true
		}
	}
	if env.Terminated() {
		return
	}
	budget := s.stages[s.cur].Budget
	if s.pending || (budget > 0 && s.ctx.stageRound >= budget) {
		s.enter(s.cur + 1)
	}
}
