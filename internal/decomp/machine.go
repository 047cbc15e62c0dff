package decomp

import (
	"sort"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/runtime"
)

// Memory is the slice of shared per-node state the reference needs: which
// neighbors remain active, and a place to record the outputs of neighbors
// that terminate. mis.Memory satisfies it.
type Memory interface {
	ActiveNeighbors(info runtime.NodeInfo) []int
	RecordNeighborOutput(id, bit int)
}

// MISReference returns the clustering MIS reference as a stage factory for
// the templates. The seed drives the per-phase delays and priorities; runs
// are deterministic given the seed.
func MISReference(seed int64) core.StageFactory {
	return func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
		m, ok := mem.(Memory)
		if !ok {
			m = nil
		}
		return &machine{seed: seed, mem: m, l: DelayLimit(info.N)}
	}
}

// Stage wraps MISReference as a standalone unbounded stage.
func Stage(seed int64) core.Stage {
	return core.Stage{Name: "decomp/mis", New: MISReference(seed)}
}

// best is a shifted-BFS candidate: the paper-of-record ordering is
// lexicographic on (key, center), where key = delay(center) + distance.
type best struct {
	Key    int
	Center int
}

func (b best) better(o best) bool {
	if b.Key != o.Key {
		return b.Key < o.Key
	}
	return b.Center < o.Center
}

// bfMsg carries the sender's current candidate during carving, and the final
// (key, center) in the exchange round.
type bfMsg struct {
	Key    int
	Center int
}

// Bits sizes the message for CONGEST accounting.
func (bfMsg) Bits() int { return 64 }

// row is one cluster member's report, convergecast to the center.
type row struct {
	ID         int
	Nbrs       []int // active same-cluster neighbor IDs
	Foreign    uint64
	ForeignID  int
	HasForeign bool
}

// bits sizes one row: ID, Foreign, ForeignID, HasForeign, and the
// same-cluster neighbor list.
func (r row) bits() int {
	return 32 + 64 + 32 + 1 + 32*len(r.Nbrs)
}

// rowsMsg carries newly learned rows up the cluster tree (LOCAL-size).
type rowsMsg struct{ Rows []row }

// Bits sizes the convergecast batch for CONGEST accounting (LOCAL-size by
// design; honest accounting keeps Result.Bits meaningful).
func (m rowsMsg) Bits() int {
	n := 0
	for _, r := range m.Rows {
		n += r.bits()
	}
	return n
}

// decideMsg floods the center's decision through the cluster (LOCAL-size).
// MIS maps member ID to its bit of the cluster's canonical MIS.
type decideMsg struct {
	Phase  int
	Center int
	Win    bool
	MIS    map[int]int
}

// Bits sizes the decision for CONGEST accounting: header plus one (ID, bit)
// pair per cluster member. Clusters have LOCAL-size diameter, so this is
// large by design; accounting it honestly keeps Result.Bits meaningful.
func (m decideMsg) Bits() int {
	return 64 + 1 + 33*len(m.MIS)
}

// outMsg is the pre-termination notification carrying the output bit.
type outMsg struct{ Bit int }

// Bits sizes the message for CONGEST accounting.
func (outMsg) Bits() int { return 2 }

type machine struct {
	seed int64
	mem  Memory
	l    int

	phase int
	// Carving state.
	cur       best
	center    int
	parent    int // 0 when root or unset
	sameNbrs  []int
	foreign   uint64
	foreignID int
	hasForppn bool
	// Convergecast state.
	rows    map[int]row
	pending []row
	// Decision state.
	decided  bool
	decision decideMsg
	sent     bool
	gotOne   bool
}

// segment boundaries within a phase of length 3(L+2)+2.
func (m *machine) seg(q int) (segment string, idx int) {
	l := m.l
	switch {
	case q <= l+1:
		return "carve", q
	case q == l+2:
		return "exchange", 1
	case q <= 2*l+4:
		return "up", q - (l + 2)
	case q <= 3*l+6:
		return "down", q - (2*l + 4)
	case q == 3*l+7:
		return "out1", 1
	default:
		return "out0", 1
	}
}

func (m *machine) phaseRound(c *core.StageCtx) (phase, q int) {
	p := PhaseRounds(c.Info().N)
	r := c.StageRound() - 1
	return r / p, r%p + 1
}

func (m *machine) active(c *core.StageCtx) []int {
	if m.mem != nil {
		return m.mem.ActiveNeighbors(c.Info())
	}
	return c.Info().NeighborIDs
}

func (m *machine) record(id, bit int) {
	if m.mem != nil {
		m.mem.RecordNeighborOutput(id, bit)
	}
}

func (m *machine) Send(c *core.StageCtx) []runtime.Out {
	phase, q := m.phaseRound(c)
	seg, _ := m.seg(q)
	switch seg {
	case "carve":
		if q == 1 {
			m.resetPhase(c, phase)
		}
		return c.BroadcastTo(m.active(c), bfMsg(m.cur))
	case "exchange":
		return c.BroadcastTo(m.active(c), bfMsg(m.cur))
	case "up":
		if m.parent == 0 || len(m.pending) == 0 {
			return nil
		}
		out := c.BroadcastTo([]int{m.parent}, rowsMsg{Rows: m.pending})
		m.pending = nil
		return out
	case "down":
		if m.decided && !m.sent {
			m.sent = true
			outs := make([]runtime.Out, 0, len(m.sameNbrs))
			for _, nb := range m.sameNbrs {
				outs = append(outs, runtime.Out{To: nb, Payload: m.decision})
			}
			return outs
		}
		return nil
	case "out1":
		if m.decided && m.decision.Win && m.decision.MIS[c.ID()] == 1 {
			outs := c.BroadcastTo(m.active(c), outMsg{Bit: 1})
			c.Output(1)
			return outs
		}
		return nil
	default: // out0
		if (m.decided && m.decision.Win) || m.gotOne {
			outs := c.BroadcastTo(m.active(c), outMsg{Bit: 0})
			c.Output(0)
			return outs
		}
		return nil
	}
}

// resetPhase reinitializes the per-phase state at the first carving round.
func (m *machine) resetPhase(c *core.StageCtx, phase int) {
	m.phase = phase
	m.cur = best{Key: delay(m.seed, phase, c.ID(), m.l), Center: c.ID()}
	m.center = 0
	m.parent = 0
	m.sameNbrs = nil
	m.foreign = 0
	m.foreignID = 0
	m.hasForppn = false
	m.rows = map[int]row{}
	m.pending = nil
	m.decided = false
	m.decision = decideMsg{}
	m.sent = false
	m.gotOne = false
}

func (m *machine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	_, q := m.phaseRound(c)
	seg, _ := m.seg(q)
	switch seg {
	case "carve":
		for _, msg := range inbox {
			bm, ok := msg.Payload.(bfMsg)
			if !ok {
				continue
			}
			cand := best{Key: bm.Key + 1, Center: bm.Center}
			if cand.better(m.cur) {
				m.cur = cand
			}
		}
	case "exchange":
		m.finishCarve(c, inbox)
	case "up":
		for _, msg := range inbox {
			rm, ok := msg.Payload.(rowsMsg)
			if !ok {
				continue
			}
			for _, r := range rm.Rows {
				if _, seen := m.rows[r.ID]; !seen {
					m.rows[r.ID] = r
					m.pending = append(m.pending, r)
				}
			}
		}
		if q == 2*m.l+4 && m.center == c.ID() {
			m.decide(c)
		}
	case "down":
		for _, msg := range inbox {
			dm, ok := msg.Payload.(decideMsg)
			if !ok || dm.Center != m.center {
				continue
			}
			if !m.decided {
				m.decided = true
				m.decision = dm
			}
		}
	case "out1":
		m.recordOut(inbox)
	default:
		m.recordOut(inbox)
	}
}

func (m *machine) recordOut(inbox []runtime.Msg) {
	for _, msg := range inbox {
		om, ok := msg.Payload.(outMsg)
		if !ok {
			continue
		}
		m.record(msg.From, om.Bit)
		if om.Bit == 1 {
			m.gotOne = true
		}
	}
}

// finishCarve fixes the node's cluster, parent, same-cluster neighbors, and
// the strongest foreign priority seen, from the final exchange.
func (m *machine) finishCarve(c *core.StageCtx, inbox []runtime.Msg) {
	m.center = m.cur.Center
	m.parent = 0
	m.sameNbrs = nil
	for _, msg := range inbox {
		bm, ok := msg.Payload.(bfMsg)
		if !ok {
			continue
		}
		if bm.Center == m.center {
			m.sameNbrs = append(m.sameNbrs, msg.From)
			if m.center != c.ID() && bm.Key == m.cur.Key-1 && (m.parent == 0 || msg.From < m.parent) {
				m.parent = msg.From
			}
		} else {
			prio := priority(m.seed, m.phase, bm.Center)
			if !m.hasForppn || prio > m.foreign || (prio == m.foreign && bm.Center > m.foreignID) {
				m.hasForppn = true
				m.foreign = prio
				m.foreignID = bm.Center
			}
		}
	}
	sort.Ints(m.sameNbrs)
	mine := row{
		ID:         c.ID(),
		Nbrs:       m.sameNbrs,
		Foreign:    m.foreign,
		ForeignID:  m.foreignID,
		HasForeign: m.hasForppn,
	}
	m.rows = map[int]row{c.ID(): mine}
	m.pending = []row{mine}
}

// decide runs at the center once the convergecast window closes: the cluster
// wins when its priority beats every adjacent cluster's, in which case the
// center computes the canonical MIS of the cluster subgraph and floods it.
func (m *machine) decide(c *core.StageCtx) {
	myPrio := priority(m.seed, m.phase, c.ID())
	win := true
	for _, r := range m.rows {
		if !r.HasForeign {
			continue
		}
		if r.Foreign > myPrio || (r.Foreign == myPrio && r.ForeignID > c.ID()) {
			win = false
			break
		}
	}
	dec := decideMsg{Phase: m.phase, Center: m.center, Win: win}
	if win {
		rows := make([]core.Row, 0, len(m.rows))
		for id, r := range m.rows {
			rows = append(rows, core.Row{ID: id, Nbrs: r.Nbrs})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
		sub := core.Component(c.Info().D, rows)
		bitsOut := exact.GreedyMISByID(sub)
		dec.MIS = make(map[int]int, len(rows))
		for i, r := range rows {
			dec.MIS[r.ID] = bitsOut[i]
		}
	}
	m.decided = true
	m.decision = dec
}
