package runtime

// This file hosts the engine's execution units ("lanes") and its one router.
// Every run is S lanes over a node partition, each owning a disjoint slice
// of the frontier, its own inbox arena and (in Parallel mode) its own inner
// worker pool. A sequential or Parallel run without Shards/Partition is one
// lane; Config.Shards or Config.Partition with S ≥ 2 gives S lanes that
// exchange boundary-edge message batches at the round barrier over the
// typed-channel fabric in internal/shard.
//
// The determinism contract — results, error surfaces, and trace streams
// byte-identical for every lane count — rests on a strict division of labor
// between the supervisor (Run's goroutine) and the lanes:
//
//   - Everything order-sensitive stays serial on the supervisor: the
//     counting pass walks senders in global ascending-identifier order, so
//     the adversary sees one fixed call sequence, the ledgers and
//     EvBatch/EvFault events accrue identically, and every delivery's arena
//     slot (destination region + within-region cursor) is fixed before any
//     lane moves a byte.
//   - Everything embarrassingly parallel fans out to the lanes: the machine
//     send/receive phases, and the placement pass, where each lane replays
//     its own senders' recorded fates, writes local deliveries straight
//     into its own arena, and ships boundary deliveries — slot included —
//     to the owning lane. Lanes write only their own arenas, so placement
//     needs no locks, and because slots were assigned serially, the arena
//     contents come out identical no matter how the exchange interleaves.
//
// Lane 0 always runs on the dispatching goroutine; lanes 1..S-1 each have a
// runner goroutine. A one-lane run therefore has no runner at all, and it
// needs no slots either: with every destination local, placement walks the
// senders in the counting pass's order and fills each region at its inFill
// cursor, so no slot stream, per-shard ledger, boundary staging or exchange
// is kept. Its lists alias the global frontier lists instead of copying
// them.

import (
	"runtime"

	"repro/internal/obs"
	"repro/internal/shard"
)

// slotMsg is one boundary delivery in flight between lanes: the message and
// its precomputed slot in the destination lane's arena. Slots are assigned
// during the serial counting pass, so the receiving lane writes each
// message straight to its place with no per-message coordination.
type slotMsg struct {
	slot int32
	msg  Msg
}

// laneCmd is one unit of work dispatched to the lanes.
type laneCmd uint8

const (
	cmdSend laneCmd = iota
	cmdReceive
	cmdPlace
)

// laneState is one execution unit. The lane owns its compact active lists,
// its inbox arena, the replay streams for messages its nodes sent, its
// boundary staging buffers, an optional inner worker pool, and (lanes
// 1..S-1) a runner goroutine driven by the supervisor's command channel.
type laneState struct {
	st *state
	id int32
	// actByIdx/actByID are the lane's active lists — the subsequences of the
	// global lists owned by this lane, maintained in the same two orders
	// (node index for phase dispatch and arena layout, identifier for
	// routing replay). A single lane aliases the global lists.
	actByIdx []int32
	actByID  []int32
	// inbox is the lane-local arena; inMsgs the slice acquired for the
	// round. The global inOff/inFill carve it into per-node regions.
	inbox  msgSlab
	inMsgs []Msg
	// fateCopies/fateSwap replay the adversary's verdicts for messages sent
	// by this lane's nodes; within (multi-lane runs only) replays each
	// surviving message's destination-region cursor. All three are appended
	// by the supervisor's serial counting pass and consumed by this lane's
	// placement pass.
	fateCopies []int32
	fateSwap   []Payload
	within     []int32
	// outB[d] stages boundary deliveries for lane d, reused across rounds
	// (refilled only after the next round's counting barrier, per the
	// Exchange handover contract). nil on a one-lane run.
	outB [][]slotMsg
	// cmds drives the runner (nil for lane 0, which runs on the
	// dispatcher); the supervisor waits on st.laneDone after each dispatch
	// wave — that wait is the intra-round barrier.
	cmds chan laneCmd
	// pool is the lane's inner worker pool (Parallel mode; nil otherwise).
	pool *workerPool
}

// initLanes attaches the lanes to a fresh state: one lane without a
// partition (or with a one-shard partition), else one lane per shard with
// its own active lists, arena, and runner goroutine, plus the exchange
// fabric and per-shard ledgers. In Parallel mode each lane gets an inner
// pool of ⌈GOMAXPROCS/S⌉ workers.
func (st *state) initLanes(part *shard.Partition) {
	s := 1
	if part != nil {
		s = part.S
	}
	workers := 0
	if st.cfg.Parallel {
		workers = (runtime.GOMAXPROCS(0) + s - 1) / s
	}
	st.lanes = make([]*laneState, s)
	if s == 1 {
		ls := st.newLane(0, st.n, workers)
		ls.actByIdx, ls.actByID = st.actByIdx, st.actByID
		return
	}
	st.laneOf = part.Of
	st.laneDone = make(chan struct{}, s)
	st.exch = shard.NewExchange[slotMsg](s)
	st.shardStats = make([]ShardRoundStats, s)
	for sh := 0; sh < s; sh++ {
		nodes := part.Nodes[sh]
		ls := st.newLane(sh, len(nodes), workers)
		ls.actByIdx = make([]int32, len(nodes))
		copy(ls.actByIdx, nodes)
		ls.actByID = make([]int32, 0, len(nodes))
		ls.outB = make([][]slotMsg, s)
		if sh > 0 {
			ls.cmds = make(chan laneCmd, 1)
			go ls.run()
		}
	}
	// The lanes' identifier-order lists are the global list filtered by
	// owner, preserving the global order within each lane.
	for _, si := range st.actByID {
		ls := st.lanes[st.laneOf[si]]
		ls.actByID = append(ls.actByID, si)
	}
}

// newLane registers lane id owning n nodes, with an inner pool of at most
// workers goroutines.
func (st *state) newLane(id, n, workers int) *laneState {
	ls := &laneState{st: st, id: int32(id), pool: newWorkerPool(n, workers)}
	st.lanes[id] = ls
	return ls
}

// closeLanes shuts the lane runners and their pools down. Callable only
// between barriers (no command in flight); Run skips it after a deadline
// abort, which may have left the dispatching goroutine mid-send.
func (st *state) closeLanes() {
	for _, ls := range st.lanes {
		if ls.cmds != nil {
			close(ls.cmds)
		}
		if ls.pool != nil {
			ls.pool.close()
		}
	}
}

// run is a runner goroutine: it executes dispatched commands and signals
// the supervisor's barrier after each.
func (ls *laneState) run() {
	for cmd := range ls.cmds {
		ls.exec(cmd)
		ls.st.laneDone <- struct{}{}
	}
}

// exec performs one command on this lane: a machine phase over the lane's
// frontier (on the inner pool when present) or the placement pass.
//
//dgp:hotpath
func (ls *laneState) exec(cmd laneCmd) {
	switch {
	case cmd == cmdPlace:
		ls.place()
	case ls.pool != nil:
		ls.pool.run(ls, cmd, ls.actByIdx)
	default:
		ls.runNodes(cmd, ls.actByIdx)
	}
}

// runNodes runs the send or receive phase for nodes, a share of this
// lane's frontier.
//
//dgp:hotpath
func (ls *laneState) runNodes(cmd laneCmd, nodes []int32) {
	for _, si := range nodes {
		if cmd == cmdSend {
			ls.st.sendPhase(int(si))
		} else {
			ls.receivePhase(int(si))
		}
	}
}

// runPhase runs one command on every lane and returns once all of them
// finished — the engine's phase barrier. Lane 0 runs on the calling
// goroutine while the runners execute the others.
//
//dgp:hotpath
func (st *state) runPhase(cmd laneCmd) {
	rest := st.lanes[1:]
	for _, ls := range rest {
		ls.cmds <- cmd
	}
	st.lanes[0].exec(cmd)
	for range rest {
		<-st.laneDone
	}
}

// compactLanes drops settled nodes from every lane's active lists,
// mirroring beginRound's global compaction. O(live frontier) per round.
//
//dgp:hotpath
func (st *state) compactLanes() {
	if len(st.lanes) == 1 {
		ls := st.lanes[0]
		ls.actByIdx, ls.actByID = st.actByIdx, st.actByID
		return
	}
	for _, ls := range st.lanes {
		k := 0
		for _, si := range ls.actByIdx {
			if st.frontier.test(int(si)) {
				ls.actByIdx[k] = si
				k++
			}
		}
		ls.actByIdx = ls.actByIdx[:k]
		k = 0
		for _, si := range ls.actByID {
			if st.frontier.test(int(si)) {
				ls.actByID[k] = si
				k++
			}
		}
		ls.actByID = ls.actByID[:k]
	}
}

// routeLanes is the engine's router: it delivers this round's messages
// into the lane arenas in three passes:
//
//  1. counting (serial, supervisor) — walk senders in ascending identifier
//     order, apply the model-level drop rules, consult the adversary once
//     per surviving message (recording its fate in the sending lane's
//     stream), book every delivery/drop ledger, and count arriving copies
//     per destination;
//  2. offsets — per-lane prefix sums over each lane's frontier carve each
//     lane's arena into per-node regions;
//  3. placement (on the lanes) — each lane replays its senders' fates and
//     fills the regions, exchanging boundary deliveries when S ≥ 2.
//
// Inbox regions come out sorted by sender identifier, and the adversary and
// trace observe one per-message call and event sequence for every lane
// count — the golden and parity tests pin both.
//
//dgp:hotpath
func (st *state) routeLanes(round int, res *Result) {
	st.roundMsgs, st.roundBits = 0, 0
	for k := range st.shardStats {
		st.shardStats[k] = ShardRoundStats{}
	}
	for _, ls := range st.lanes {
		clear(ls.fateSwap)
		ls.fateCopies = ls.fateCopies[:0]
		ls.fateSwap = ls.fateSwap[:0]
		ls.within = ls.within[:0]
	}
	adv := st.cfg.Adversary
	tr := st.trace
	sl := st.lanes[0]
	for _, si := range st.actByID {
		i := int(si)
		e := &st.envs[i]
		from := e.info.ID
		if st.laneOf != nil {
			sl = st.lanes[st.laneOf[i]]
		}
		msgs0, bits0 := st.roundMsgs, st.roundBits
		if e.bcastSet {
			// Uniform batch: one payload-size lookup covers the whole
			// neighbor range.
			b := MessageBits(0, e.bcast)
			delivered := 0
			for _, dj := range st.csrNbr[st.csrOff[i]:st.csrOff[i+1]] {
				j := int(dj)
				if !st.frontier.test(j) || st.terminatedThisSend[j] {
					continue
				}
				if adv == nil {
					st.count(sl, j, 1, b)
					delivered++
					continue
				}
				copies, cb := st.recordFate(sl, round, from, j, e.bcast, b)
				if copies > 0 {
					st.count(sl, j, copies, cb)
					st.account(cb, copies, res)
				}
			}
			if delivered > 0 {
				st.account(b, delivered, res)
			}
		} else {
			for k, out := range e.outs {
				j := int(e.dst[k])
				// Messages to nodes that already left the computation vanish;
				// a node terminating during this round's send phase has, by
				// the model, already assigned all outputs, so deliveries to
				// it are moot and are dropped as well. The adversary is
				// consulted only for messages that survive these rules.
				if !st.frontier.test(j) || st.terminatedThisSend[j] {
					continue
				}
				copies, b := 1, MessageBits(out.Tag, out.Payload)
				if adv != nil {
					copies, b = st.recordFate(sl, round, from, j, out.Payload, b)
					if copies == 0 {
						continue
					}
				}
				st.count(sl, j, copies, b)
				st.account(b, copies, res)
			}
		}
		if tr != nil && st.roundMsgs > msgs0 {
			tr.Emit(obs.Event{Type: obs.EvBatch, Round: round, Node: from, Value: int64(st.roundMsgs - msgs0), Aux: int64(st.roundBits - bits0)})
		}
	}

	// Offsets: region layout within a lane matches the global layout
	// restricted to the lane's nodes, and the prefix sum's end sizes the
	// lane's arena. One lane fills each region at its inFill cursor, so the
	// cursor starts at the region head; several lanes write at recorded
	// slots, so inFill is the region end from the start.
	multi := st.exch != nil
	for _, ls := range st.lanes {
		cur := int32(0)
		for _, si := range ls.actByIdx {
			i := int(si)
			st.inOff[i] = cur
			st.inFill[i] = cur
			cur += st.inCnt[i]
			if multi {
				st.inFill[i] = cur
			}
			st.inCnt[i] = 0
		}
		ls.inMsgs = ls.inbox.acquire(int(cur))
	}

	st.runPhase(cmdPlace)
	st.emitShardLedgers(round)
}

// recordFate intercepts one in-flight message of b bits and records the
// verdict in the sending lane's replay stream for the placement pass. It
// returns the delivered copy count (0 = dropped) with the delivered size,
// which corruption may have changed.
//
//dgp:hotpath
func (st *state) recordFate(ls *laneState, round, from, j int, payload Payload, b int) (int, int) {
	copies, cb, swap := st.interceptFate(round, from, j, payload, b)
	ls.fateCopies = append(ls.fateCopies, int32(copies))
	ls.fateSwap = append(ls.fateSwap, swap)
	return copies, cb
}

// count books one surviving delivery of copies messages of b bits to j:
// the destination's region count, plus, on multi-lane runs, the slot
// cursor and the per-shard ledgers.
//
//dgp:hotpath
func (st *state) count(src *laneState, j, copies, b int) {
	if st.exch != nil {
		st.countShard(src, j, copies, b)
		return
	}
	st.inCnt[j] += int32(copies)
}

// countShard is count's multi-lane half: the slot cursor for the sender's
// replay stream, the destination's region count, and the per-shard
// delivered/injected/boundary ledgers.
//
//dgp:hotpath
func (st *state) countShard(src *laneState, j, copies, b int) {
	dst := st.laneOf[j]
	src.within = append(src.within, st.inCnt[j])
	st.inCnt[j] += int32(copies)
	if b < 0 {
		b = 0
	}
	ss := &st.shardStats[dst]
	ss.Delivered += copies
	ss.DeliveredBits += copies * b
	if copies > 1 {
		ss.Injected += copies - 1
		ss.InjectedBits += (copies - 1) * b
	}
	if dst != src.id {
		out := &st.shardStats[src.id]
		out.BoundaryOut += copies
		out.BoundaryOutBits += copies * b
	}
}

// place is the lane's placement pass: replay the counting pass's verdicts
// over this lane's senders and write every delivery into its region. On a
// multi-lane run local deliveries go straight into the lane arena, boundary
// deliveries are staged per destination lane, and the lane then posts its
// batches and drains the inbound ones into their precomputed slots. Runs
// concurrently across lanes; each lane writes only its own arena.
//
//dgp:hotpath
func (ls *laneState) place() {
	st := ls.st
	for d := range ls.outB {
		// Stale slotMsgs hold payload references; release them before
		// truncating, exactly like the arena's stale-tail clear.
		clear(ls.outB[d])
		ls.outB[d] = ls.outB[d][:0]
	}
	multi := st.exch != nil
	// direct: one lane and no adversary, so every message is delivered
	// once, locally, and lands at its destination's inFill cursor.
	direct := !multi && st.cfg.Adversary == nil
	arena := ls.inMsgs
	fi, wi := 0, 0
	for _, si := range ls.actByID {
		i := int(si)
		e := &st.envs[i]
		from := e.info.ID
		if e.bcastSet {
			m := Msg{From: from, Payload: e.bcast}
			for _, dj := range st.csrNbr[st.csrOff[i]:st.csrOff[i+1]] {
				j := int(dj)
				if !st.frontier.test(j) || st.terminatedThisSend[j] {
					continue
				}
				if direct {
					arena[st.inFill[j]] = m
					st.inFill[j]++
					continue
				}
				fi, wi = ls.put(j, m, fi, wi)
			}
		} else {
			for k, out := range e.outs {
				j := int(e.dst[k])
				if !st.frontier.test(j) || st.terminatedThisSend[j] {
					continue
				}
				m := Msg{From: from, Tag: out.Tag, Payload: out.Payload}
				if direct {
					arena[st.inFill[j]] = m
					st.inFill[j]++
					continue
				}
				fi, wi = ls.put(j, m, fi, wi)
			}
		}
	}
	if !multi {
		return
	}
	self := int(ls.id)
	for d := range st.lanes {
		if d != self {
			st.exch.Post(self, d, ls.outB[d])
		}
	}
	for _, b := range st.exch.Collect(self) {
		for _, sm := range b.Msgs {
			ls.inMsgs[sm.slot] = sm.msg
		}
	}
}

// put places one surviving message outside the direct case: it replays
// the recorded fate under an adversary (copies, replacement payload, which
// travels untagged), then
// writes the copies at j's inFill cursor on one lane or through deliver on
// several. It returns the advanced fate and within cursors.
//
//dgp:hotpath
func (ls *laneState) put(j int, m Msg, fi, wi int) (int, int) {
	st := ls.st
	copies := 1
	if st.cfg.Adversary != nil {
		copies = int(ls.fateCopies[fi])
		if swap := ls.fateSwap[fi]; swap != nil {
			m.Tag, m.Payload = 0, swap
		}
		fi++
	}
	if copies == 0 {
		return fi, wi
	}
	if st.exch != nil {
		return fi, ls.deliver(j, m, copies, wi)
	}
	f := st.inFill[j]
	for c := 0; c < copies; c++ {
		ls.inMsgs[f] = m
		f++
	}
	st.inFill[j] = f
	return fi, wi
}

// deliver is the multi-lane placement: it writes copies of m for
// destination j at the slot the counting pass recorded for this sender
// stream — directly into the lane arena when j is local, staged for the
// boundary exchange otherwise — and returns the advanced within-cursor.
//
//dgp:hotpath
func (ls *laneState) deliver(j int, m Msg, copies, wi int) int {
	st := ls.st
	slot := st.inOff[j] + ls.within[wi]
	wi++
	if d := st.laneOf[j]; d != ls.id {
		ob := ls.outB[d]
		for c := 0; c < copies; c++ {
			ob = append(ob, slotMsg{slot: slot, msg: m})
			slot++
		}
		ls.outB[d] = ob
		return wi
	}
	for c := 0; c < copies; c++ {
		ls.inMsgs[slot] = m
		slot++
	}
	return wi
}

// emitShardLedgers publishes the round's per-shard ledgers as
// EvShardExchange events, shards ascending, skipping zero entries: one
// "delivered" (and "injected" under duplication) event per shard that
// received traffic, one "boundary" per shard that exported any. Emitted
// from the supervisor strictly after the placement barrier; a one-lane run
// keeps no per-shard ledgers and emits none.
func (st *state) emitShardLedgers(round int) {
	if st.trace == nil {
		return
	}
	for s := range st.shardStats {
		ss := &st.shardStats[s]
		if ss.Delivered > 0 {
			st.trace.Emit(obs.Event{Type: obs.EvShardExchange, Round: round, Node: s, Name: "delivered", Value: int64(ss.Delivered), Aux: int64(ss.DeliveredBits)})
		}
		if ss.Injected > 0 {
			st.trace.Emit(obs.Event{Type: obs.EvShardExchange, Round: round, Node: s, Name: "injected", Value: int64(ss.Injected), Aux: int64(ss.InjectedBits)})
		}
		if ss.BoundaryOut > 0 {
			st.trace.Emit(obs.Event{Type: obs.EvShardExchange, Round: round, Node: s, Name: "boundary", Value: int64(ss.BoundaryOut), Aux: int64(ss.BoundaryOutBits)})
		}
	}
}

// poolTask is one phase dispatch to one worker: the lane, the phase, and
// the worker's contiguous share of the lane's frontier list.
type poolTask struct {
	ls    *laneState
	cmd   laneCmd
	nodes []int32
}

// workerPool is a lane's persistent pool of goroutines, created once per
// Run. Each phase, run splits the lane's frontier list into contiguous
// per-worker ranges of the shared columnar slabs and blocks until all
// workers signal done; run acts as the inter-phase barrier, which realizes
// the synchronous round structure without spawning a goroutine wave per
// phase per round.
type workerPool struct {
	work []chan poolTask
	done chan struct{}
}

// newWorkerPool builds a pool of at most workers goroutines for n nodes
// (nil when one worker would remain — the lane runs its nodes itself).
func newWorkerPool(n, workers int) *workerPool {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return nil
	}
	p := &workerPool{done: make(chan struct{}, workers)}
	for w := 0; w < workers; w++ {
		ch := make(chan poolTask, 1)
		p.work = append(p.work, ch)
		go func(ch chan poolTask) {
			for t := range ch {
				t.ls.runNodes(t.cmd, t.nodes)
				p.done <- struct{}{}
			}
		}(ch)
	}
	return p
}

// run executes lane ls's cmd phase on every worker's share of nodes and
// returns once all workers have finished (the barrier).
//
//dgp:hotpath
func (p *workerPool) run(ls *laneState, cmd laneCmd, nodes []int32) {
	chunk := (len(nodes) + len(p.work) - 1) / len(p.work)
	if chunk < 1 {
		chunk = 1
	}
	for w, ch := range p.work {
		lo := w * chunk
		if lo > len(nodes) {
			lo = len(nodes)
		}
		hi := lo + chunk
		if hi > len(nodes) {
			hi = len(nodes)
		}
		ch <- poolTask{ls: ls, cmd: cmd, nodes: nodes[lo:hi]}
	}
	for range p.work {
		<-p.done
	}
}

// close shuts the workers down; the pool must not be used afterwards.
func (p *workerPool) close() {
	for _, ch := range p.work {
		close(ch)
	}
}
