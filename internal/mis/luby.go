package mis

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/runtime"
)

// Luby returns Luby's randomized MIS algorithm [48], used by the Section 10
// discussion of randomized references. Each 3-round phase: nodes draw fresh
// random priorities and exchange them; local maxima (ties broken by
// identifier) join the independent set, notify, and terminate; notified
// nodes then output 0 and terminate.
//
// The algorithm is randomized but the run is reproducible: node i draws from
// a PRNG seeded with seed and its identifier.
func Luby(seed int64) core.Stage {
	return core.Stage{
		Name: "mis/luby",
		New: func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
			return &lubyMachine{
				mem: mem.(*Memory),
				rng: rand.New(rand.NewSource(seed ^ (int64(info.ID) * 0x5851F42D4C957F2D))),
			}
		},
	}
}

// prio carries a phase priority draw.
type prio struct{ V uint64 }

// Bits sizes the message for CONGEST accounting (a Θ(log n)-bit priority
// suffices in theory; we account the full 64-bit draw).
func (prio) Bits() int { return 64 }

type lubyMachine struct {
	mem    *Memory
	rng    *rand.Rand
	myPrio uint64
	isMax  bool
	gotOne bool
}

func (m *lubyMachine) Send(c *core.StageCtx) []runtime.Out {
	switch c.StageRound() % 3 {
	case 1: // draw and exchange priorities
		m.myPrio = m.rng.Uint64()
		m.isMax = true
		return c.BroadcastActive(m.mem.NbrOut, prio{V: m.myPrio})
	case 2: // local maxima join
		if m.isMax {
			return c.BroadcastActive(m.mem.NbrOut, notifyThenOutput(c, 1))
		}
	case 0: // notified nodes leave
		if m.gotOne {
			return notifyAndOutput(c, m.mem, 0)
		}
	}
	return nil
}

func (m *lubyMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	switch c.StageRound() % 3 {
	case 1:
		for _, msg := range inbox {
			p, ok := msg.Payload.(prio)
			if !ok {
				continue
			}
			if p.V > m.myPrio || (p.V == m.myPrio && msg.From > c.ID()) {
				m.isMax = false
			}
		}
	default:
		for _, msg := range inbox {
			if nt, ok := msg.Payload.(notify); ok {
				m.mem.NbrOut.Set(msg.From, nt.Bit)
				if nt.Bit == 1 {
					m.gotOne = true
				}
			}
		}
	}
}
