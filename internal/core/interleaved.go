package core

import (
	"fmt"

	"repro/internal/runtime"
)

// PhaseSchedule returns the per-phase round budgets r_1, ..., r_m that every
// node can compute from its static information (paper Section 7.3). The
// Interleaved combinator runs r_i rounds of the measure-uniform lane followed
// by r_i rounds of the reference lane for each phase i.
type PhaseSchedule func(info runtime.NodeInfo) []int

// Interleaved composes the Interleaved Template (paper Algorithm 4): a
// reasonable initialization stage B, then one stage that alternates slices
// of a measure-uniform algorithm U and a phase-decomposed reference
// algorithm R. It is Sequence(mem, B, alternation), so B follows Sequence's
// budget rule: a positive Budget caps it, and a Budget of 0 or less runs it
// until it yields.
//
// Both U and R must leave an extendable partial solution at the end of every
// slice (for the algorithms in this repository this holds when every r_i is
// even, matching the paper's choice). If a node is still active after the
// schedule is exhausted, the combinator keeps running the reference lane, so
// a reference whose true round complexity exceeds its declared schedule still
// terminates; the overshoot is visible in the round count.
func Interleaved(mem MemoryFactory, b Stage, u StageFactory, r StageFactory, sched PhaseSchedule) runtime.Factory {
	return Sequence(mem, b, Stage{
		Name:  "interleave",
		lanes: true,
		New: func(info runtime.NodeInfo, pred any, mem any) StageMachine {
			return &interleaveMachine{
				sched: sched(info),
				u:     newLane(u, info, pred, mem),
				r:     newLane(r, info, pred, mem),
			}
		},
	})
}

// laneSpans names the lanes' trace spans: the interleaved lanes are
// anonymous StageFactories, so their spans carry fixed combinator-level
// names.
var laneSpans = [...]string{laneU: "interleave/U", laneR: "interleave/R"}

// interleaveMachine alternates the U and R lanes by the phase schedule.
type interleaveMachine struct {
	sched []int
	u, r  lane
	uDone bool // U yielded; its lane idles thereafter
	// pos counts rounds since the interleaving started (0-based).
	pos int
	// cur caches the lane chosen in Send for the matching Receive.
	cur uint8
}

// laneAt maps an interleaving round index to the lane scheduled for it:
// phase i contributes sched[i] rounds of U then sched[i] rounds of R; past
// the schedule, the reference lane runs every round.
func (m *interleaveMachine) laneAt(pos int) uint8 {
	for _, ri := range m.sched {
		if pos < ri {
			return laneU
		}
		pos -= ri
		if pos < ri {
			return laneR
		}
		pos -= ri
	}
	return laneR
}

func (m *interleaveMachine) Send(c *StageCtx) []runtime.Out {
	m.cur = m.laneAt(m.pos)
	if c.Tracing() {
		annotateStage(c.env, laneSpans[m.cur], 0)
	}
	if m.cur == laneR {
		return m.r.send(c, laneR)
	}
	if m.uDone {
		return nil
	}
	return m.u.send(c, laneU)
}

func (m *interleaveMachine) Receive(c *StageCtx, inbox []runtime.Msg) {
	if err := checkInbox(inbox, m.cur, c.stage); err != nil {
		c.Fail(fmt.Errorf("%w (interleaved lane %d)", err, m.cur))
		return
	}
	if m.cur == laneU {
		if !m.uDone {
			m.u.receive(c, inbox)
			m.uDone = m.u.ctx.yielded
		}
	} else {
		m.r.receive(c, inbox)
		if m.r.ctx.yielded && !c.env.Terminated() {
			c.Fail(fmt.Errorf("%w: core: interleaved reference yielded without output at node %d", runtime.ErrProtocol, c.ID()))
			return
		}
	}
	if !c.env.Terminated() {
		m.pos++
	}
}
