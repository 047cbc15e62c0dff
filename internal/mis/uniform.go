package mis

import (
	"math/bits"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/vcolor"
)

// Uniform returns the Δ-doubling MIS reference, our rendition of the
// paper's second Simple-Template example (Section 7.1): a coloring-based MIS
// algorithm that is *uniform with respect to Δ* in the sense of Korman,
// Sereni and Viennot [42] — its round complexity depends on the maximum
// degree of the subgraph it actually runs on (after an initialization, the
// error components), not on the whole graph's Δ.
//
// It proceeds in phases with doubling degree guesses D̂ = 2, 4, 8, ...; in
// each phase the active nodes whose active degree is at most D̂ become
// participants, color themselves with the Linial reduction for maximum
// degree D̂, and convert the coloring to independent-set outputs one color
// class per round. Nodes adjacent to a joiner leave, everyone else carries
// over to the next phase. Every participant terminates within its phase, so
// the algorithm ends once D̂ reaches the largest remaining degree; the total
// round count is a function of Δ' (the error components' maximum degree) and
// log* d only. The paper's O(Δ'+log* d) reference is sharper than our
// O(Δ'²+log Δ'·log* d) — a documented substitution (DESIGN.md) that
// preserves the property under test: independence of the global Δ and n.
func Uniform() core.Stage {
	return core.Stage{
		Name: "mis/uniform",
		New: func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
			return &uniformMachine{mem: mem.(*Memory)}
		},
	}
}

// SimpleUniform is the Simple Template with the Δ-doubling reference: round
// complexity O(f(Δ') + log Δ'·log* d) where Δ' is the maximum degree inside
// the error components (paper Section 7.1, second example).
func SimpleUniform() runtime.Factory {
	return core.Simple(NewMemory(), Init(), Uniform())
}

// UniformMaxRounds returns a safe engine round cap for runs involving the
// Δ-doubling reference: the sum of all phase lengths up to the first guess
// covering Δ, plus the initialization and a Greedy-scale allowance. The
// default engine cap (8n+64) targets O(n)-round algorithms and can be too
// small for this reference on small dense graphs.
func UniformMaxRounds(info runtime.NodeInfo) int {
	total := 8*info.N + 64
	for dHat := 2; ; dHat *= 2 {
		total += uniformPhaseLen(info.D, dHat)
		if dHat >= info.Delta {
			return total
		}
	}
}

// phaseLen returns the round count of phase i (0-based, guess 2^(i+1)):
// one participation round, the Linial schedule for (d, D̂), D̂+1 conversion
// rounds, and one flush round for pending exits.
func uniformPhaseLen(d, dHat int) int {
	return 1 + vcolor.Rounds(d, dHat) + (dHat + 1) + 1
}

// participate is the phase-opening announcement.
type participate struct{}

// Bits sizes the message for CONGEST accounting.
func (participate) Bits() int { return 1 }

// uColor carries a participant's current color during the phase coloring.
type uColor struct{ C int }

// Bits sizes the message for CONGEST accounting.
func (m uColor) Bits() int { return bits.Len(uint(m.C)) + 1 }

type uniformMachine struct {
	mem *Memory

	phase   int // 0-based; guess is 2^(phase+1)
	inPhase int // rounds already spent in the current phase

	participant bool
	partNbrs    []int // participating neighbors (IDs), fixed per phase
	color       int   // 0-based during coloring, 1-based class after
	steps       []vcolor.ReductionStep
	kStar       int

	pendingKill bool
}

func (m *uniformMachine) guess() int { return 1 << uint(m.phase+1) }

func (m *uniformMachine) Send(c *core.StageCtx) []runtime.Out {
	if m.pendingKill {
		return notifyAndOutput(c, m.mem, 0)
	}
	info := c.Info()
	d := info.D
	dHat := m.guess()
	r := m.inPhase + 1 // 1-based round within the phase
	colorRounds := vcolor.Rounds(d, dHat)
	switch {
	case r == 1:
		// Participation announcement.
		active := m.mem.ActiveNeighbors(info)
		m.participant = len(active) <= dHat
		m.partNbrs = nil
		if m.participant {
			m.steps, m.kStar = vcolor.Schedule(d, dHat)
			m.color = info.ID - 1
			return c.BroadcastTo(active, participate{})
		}
		return nil
	case r <= 1+colorRounds:
		if m.participant {
			return c.BroadcastTo(m.activePartNbrs(), uColor{C: m.color})
		}
		return nil
	case r <= 1+colorRounds+dHat+1:
		j := r - 1 - colorRounds // conversion class 1..dHat+1
		if m.participant && m.color+1 == j {
			return c.BroadcastActive(m.mem.NbrOut, notifyThenOutput(c, 1))
		}
		return nil
	default:
		// Flush round: pending exits were handled at the top; idle.
		return nil
	}
}

// activePartNbrs returns the participating neighbors still active.
func (m *uniformMachine) activePartNbrs() []int {
	out := make([]int, 0, len(m.partNbrs))
	for _, nb := range m.partNbrs {
		if !m.mem.NbrOut.Has(nb) {
			out = append(out, nb)
		}
	}
	return out
}

func (m *uniformMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	info := c.Info()
	d := info.D
	dHat := m.guess()
	r := m.inPhase + 1
	colorRounds := vcolor.Rounds(d, dHat)

	var heard []int
	for _, msg := range inbox {
		switch p := msg.Payload.(type) {
		case participate:
			if r == 1 {
				m.partNbrs = append(m.partNbrs, msg.From)
			}
		case uColor:
			heard = append(heard, p.C)
		case notify:
			m.mem.NbrOut.Set(msg.From, p.Bit)
			if p.Bit == 1 {
				m.pendingKill = true
			}
		}
	}
	if m.participant && r > 1 && r <= 1+colorRounds {
		m.applyColoringRound(r-1, heard, dHat)
	}
	m.inPhase++
	if m.inPhase >= uniformPhaseLen(d, dHat) {
		m.inPhase = 0
		m.phase++
		m.participant = false
	}
}

// applyColoringRound advances the participant-subgraph Linial coloring by
// one round (cr is 1-based within the coloring).
func (m *uniformMachine) applyColoringRound(cr int, heard []int, dHat int) {
	switch {
	case cr <= len(m.steps):
		m.color = vcolor.ApplyReduction(m.steps[cr-1], m.color, heard)
	default:
		target := m.kStar - (cr - len(m.steps))
		if m.color == target && target > dHat {
			m.color = vcolor.SmallestFreeColor(heard, dHat+1)
		}
	}
}
