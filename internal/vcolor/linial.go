package vcolor

import (
	"errors"
	"math/bits"

	"repro/internal/core"
	"repro/internal/runtime"
)

// ColorStore receives the color computed by the Linial algorithm when it is
// used as the first part of a two-part reference (Parallel Template): the
// color is stored locally rather than output, as Algorithm 5 prescribes.
type ColorStore interface {
	StoreColor(color, palette int)
}

// colorMsg announces the sender's current color (0-based).
type colorMsg struct{ C int }

// Bits sizes the message for CONGEST accounting.
func (m colorMsg) Bits() int { return bits.Len(uint(m.C)) + 1 }

// LinialPart1 returns the fault-tolerant (Δ+1)-coloring stage for use as
// part 1 of a two-part reference: it runs exactly Rounds(d, Δ) rounds,
// broadcasting the node's current color every round and recoloring from the
// colors actually heard (so terminated or crashed neighbors drop out), then
// stores the final color in the node's shared memory (which must implement
// ColorStore) and yields without output.
func LinialPart1() core.StageFactory {
	return func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
		return newLinial(info, func(c *core.StageCtx, color, palette int) {
			store, ok := c.Memory().(ColorStore)
			if !ok {
				c.Fail(ErrNoColorStore)
				return
			}
			store.StoreColor(color, palette)
			c.Yield()
		})
	}
}

// LinialStandalone returns the Linial coloring as a complete algorithm: all
// nodes output their (1-based) color and terminate in round Rounds(d, Δ).
func LinialStandalone() core.Stage {
	return core.Stage{
		Name: "vcolor/linial",
		New: func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
			return newLinial(info, func(c *core.StageCtx, color, palette int) {
				c.Output(color)
			})
		},
	}
}

// ErrNoColorStore reports a composition bug: LinialPart1 requires the shared
// memory to implement ColorStore.
var ErrNoColorStore = errors.New("vcolor: shared memory does not implement ColorStore")

type linialMachine struct {
	steps  []ReductionStep
	kStar  int
	total  int
	color  int // 0-based current color
	finish func(c *core.StageCtx, color, palette int)
	// heard is the reusable buffer of the colors heard in a round.
	heard []int
}

func newLinial(info runtime.NodeInfo, finish func(c *core.StageCtx, color, palette int)) *linialMachine {
	steps, kStar := Schedule(info.D, info.Delta)
	color := info.ID - 1
	if info.Delta == 0 {
		// No edges anywhere: the palette is {1}, so every node takes color 0.
		color = 0
	}
	return &linialMachine{
		steps:  steps,
		kStar:  kStar,
		total:  Rounds(info.D, info.Delta),
		color:  color,
		finish: finish,
	}
}

func (m *linialMachine) Send(c *core.StageCtx) []runtime.Out {
	return c.Broadcast(colorMsg{C: m.color})
}

func (m *linialMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	r := c.StageRound()
	delta := c.Info().Delta
	switch {
	case r <= len(m.steps):
		m.color = ApplyReduction(m.steps[r-1], m.color, m.hear(inbox))
	default:
		// Final reduction: one color class per round, from kStar-1 down to
		// Δ+1 (0-based), recolors to the smallest free color in [0, Δ].
		// Only the nodes of the round's class read the colors they heard.
		target := m.kStar - (r - len(m.steps))
		if m.color == target && target > delta {
			m.color = SmallestFreeColor(m.hear(inbox), delta+1)
		}
	}
	if r >= m.total {
		// 1-based color for the standard palette {1, ..., Δ+1}.
		m.finish(c, m.color+1, delta+1)
	}
}

// hear collects the colors announced in inbox into the machine's reusable
// buffer, valid until the next call.
func (m *linialMachine) hear(inbox []runtime.Msg) []int {
	heard := m.heard[:0]
	for _, msg := range inbox {
		if cm, ok := msg.Payload.(colorMsg); ok {
			heard = append(heard, cm.C)
		}
	}
	m.heard = heard
	return heard
}

// SmallestFreeColor is the final-reduction recoloring rule: the least value
// in [0, palette) missing from used.
func SmallestFreeColor(used []int, palette int) int {
	taken := make([]bool, palette)
	for _, u := range used {
		if u >= 0 && u < palette {
			taken[u] = true
		}
	}
	for v := 0; v < palette; v++ {
		if !taken[v] {
			return v
		}
	}
	return 0
}
