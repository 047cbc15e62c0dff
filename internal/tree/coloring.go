package tree

import (
	"math/bits"

	"repro/internal/core"
	"repro/internal/runtime"
)

// CVIters returns the number of Cole–Vishkin bit-reduction rounds needed to
// shrink a palette of size d to at most 6 colors: k ← 2·⌈log₂ k⌉ until
// k ≤ 6, i.e. O(log* d) iterations.
func CVIters(d int) int {
	k := d
	iters := 0
	for k > 6 {
		k = 2 * ceilLog2(k)
		iters++
	}
	return iters
}

// CVRounds returns the full round bound of the 3-coloring algorithm:
// CVIters(d) bit-reduction rounds plus six shift-down/recolor rounds
// (two per eliminated color 6, 5, 4).
func CVRounds(d int) int { return CVIters(d) + 6 }

func ceilLog2(k int) int {
	if k <= 1 {
		return 1
	}
	return bits.Len(uint(k - 1))
}

// treeColor announces the sender's current color.
type treeColor struct{ C int }

// Bits sizes the message for CONGEST accounting.
func (m treeColor) Bits() int { return bits.Len(uint(m.C)) + 1 }

// ColoringPart1 returns the Goldberg–Plotkin–Shannon 3-coloring of rooted
// trees (Cole–Vishkin bit reduction to 6 colors, then three shift-down and
// recolor steps) as the fault-tolerant first part of the Corollary 15
// reference: it runs exactly CVRounds(d) rounds, stores the final color
// (1-based, in {1, 2, 3}) in the node's shared memory, and yields.
//
// Every recoloring decision uses only the colors heard in the current round,
// so a node whose parent has terminated or crashed simply proceeds as the
// root of its subtree; the coloring stays proper on the survivors.
func ColoringPart1() core.StageFactory {
	return func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
		m := mem.(*Memory)
		return &cvMachine{
			mem:   m,
			iters: CVIters(info.D),
			total: CVRounds(info.D),
			color: info.ID - 1,
		}
	}
}

type cvMachine struct {
	mem    *Memory
	iters  int
	total  int
	color  int
	shadow int // pre-shift color, the common color of this node's children
}

func (m *cvMachine) Send(c *core.StageCtx) []runtime.Out {
	return c.BroadcastActive(m.mem.NbrOut, treeColor{C: m.color})
}

// parentColor extracts the parent's announced color; ok is false when the
// node has no live parent and must act as a root.
func (m *cvMachine) parentColor(inbox []runtime.Msg) (int, bool) {
	if m.mem.ParentID == 0 {
		return 0, false
	}
	for _, msg := range inbox {
		if msg.From != m.mem.ParentID {
			continue
		}
		if tc, ok := msg.Payload.(treeColor); ok {
			return tc.C, true
		}
	}
	return 0, false
}

func (m *cvMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	r := c.StageRound()
	pc, hasParent := m.parentColor(inbox)
	switch {
	case r <= m.iters:
		if !hasParent {
			// Roots reduce against a virtual parent color differing in the
			// lowest bit.
			pc = m.color ^ 1
		}
		i := bits.TrailingZeros(uint(m.color ^ pc))
		m.color = 2*i + (m.color>>uint(i))&1
	default:
		step := r - m.iters // 1..6: three (shift, recolor) pairs
		if step%2 == 1 {
			// Shift down: adopt the parent's color; roots switch to the
			// smallest small color different from their own.
			m.shadow = m.color
			if hasParent {
				m.color = pc
			} else {
				m.color = smallestOutside3(m.shadow, -1)
			}
		} else {
			// Recolor the class being eliminated: 6, then 5, then 4
			// (0-based 5, 4, 3).
			target := 6 - step/2 // 5, 4, 3
			if m.color == target {
				parent := -1
				if hasParent {
					parent = pc
				}
				m.color = smallestOutside3(m.shadow, parent)
			}
		}
	}
	if r >= m.total {
		m.mem.StoreColor(m.color+1, 3)
		c.Yield()
	}
}

// smallestOutside3 returns the least color in {0, 1, 2} distinct from both
// arguments (-1 means no constraint).
func smallestOutside3(a, b int) int {
	for v := 0; v < 3; v++ {
		if v != a && v != b {
			return v
		}
	}
	return 0
}

// join is sent by a color-2 node entering the independent set to its color-3
// neighbors in the final round.
type join struct{}

// Bits sizes the message for CONGEST accounting.
func (join) Bits() int { return 1 }

// MISFrom3Coloring returns part 2 of the Corollary 15 reference: the
// two-round algorithm that converts the stored 3-coloring into a maximal
// independent set — color 1 joins immediately, its neighbors leave; active
// color-2 nodes join and poke their color-3 neighbors; the remaining color-3
// nodes join exactly when unpoked.
func MISFrom3Coloring() core.StageFactory {
	return func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
		return &from3Machine{mem: mem.(*Memory), nbrColor: map[int]int{}}
	}
}

type from3Machine struct {
	mem      *Memory
	nbrColor map[int]int
}

func (m *from3Machine) Send(c *core.StageCtx) []runtime.Out {
	switch c.StageRound() {
	case 1:
		outs := c.BroadcastActive(m.mem.NbrOut, treeColor{C: m.mem.Color})
		if m.mem.Color == 1 {
			c.Output(1)
		}
		return outs
	default:
		if m.mem.Color == 2 {
			var outs []runtime.Out
			for _, nb := range m.mem.ActiveNeighbors(c.Info()) {
				if m.nbrColor[nb] == 3 {
					outs = append(outs, runtime.Out{To: nb, Payload: join{}})
				}
			}
			c.Output(1)
			return outs
		}
		return nil
	}
}

func (m *from3Machine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	switch c.StageRound() {
	case 1:
		sawOne := false
		for _, msg := range inbox {
			if tc, ok := msg.Payload.(treeColor); ok {
				m.nbrColor[msg.From] = tc.C
				if tc.C == 1 {
					sawOne = true
				}
			}
		}
		if sawOne {
			c.Output(0)
		}
	default:
		for _, msg := range inbox {
			if _, ok := msg.Payload.(join); ok {
				c.Output(0)
				return
			}
		}
		c.Output(1)
	}
}

// ParallelColoring is the Corollary 15 Parallel Template on rooted trees:
// the rooted-tree initialization, Algorithm 6 in parallel with the
// fault-tolerant 3-coloring (budget rounded to even so the Algorithm 6 lane
// is interrupted at an extendable boundary and no clean-up is needed), then
// the two-round conversion. Round complexity min{⌈η_t/2⌉+5, O(log* d)} and
// ⌈η_t/2⌉-degrading.
func ParallelColoring(r *Rooted) runtime.Factory {
	return core.Parallel(core.ParallelSpec{
		Mem: NewMemory(r),
		B:   Init(),
		U:   RootsAndLeaves(0).New,
		R1:  ColoringPart1(),
		R1Budget: func(info runtime.NodeInfo) int {
			return core.AlignUp(CVRounds(info.D), 2)
		},
		C:  nil,
		R2: MISFrom3Coloring(),
	})
}
