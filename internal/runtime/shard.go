package runtime

// This file hosts the engine's execution units ("lanes"), its one worker
// set and its one router. Every run is S lanes over a node partition, each
// owning a disjoint slice of the frontier; all lanes deliver into the one
// inbox arena the state owns. A run without Shards/Partition is one lane;
// Config.Shards or Config.Partition with S ≥ 2 gives S lanes, and a
// delivery whose sender and destination sit in different lanes crosses the
// partition cut.
//
// The determinism contract — results, error surfaces, and trace streams
// byte-identical for every lane count — rests on a strict division of labor
// between the supervisor (Run's goroutine) and the worker set:
//
//   - Everything order-sensitive stays serial on the supervisor: the
//     counting pass walks senders in global ascending-identifier order, so
//     the adversary sees one fixed call sequence, the ledgers and
//     EvBatch/EvFault events accrue identically, and every delivery's arena
//     slot (destination region + within-region cursor) is fixed before any
//     task moves a byte.
//   - Everything embarrassingly parallel fans out to the workers: the
//     machine send/receive phases, and the placement pass, where each lane
//     replays its own senders' recorded fates and writes every delivery,
//     local or across the cut, straight to its slot. Slots are disjoint, so
//     placement needs no locks, and because they were assigned serially,
//     the arena contents come out identical however the tasks interleave.
//
// A one-lane run needs no slots: with every destination local, placement
// walks the senders in the counting pass's order and fills each region at
// its inFill cursor, so no slot stream or per-shard ledger is kept. Its
// lists alias the global frontier lists instead of copying them.
//
// One worker set of W = S·k executors runs every phase, k = ⌈GOMAXPROCS/S⌉
// under Config.Parallel and 1 otherwise; the dispatching goroutine is one
// of them, so a sequential one-lane run starts no goroutine at all.

import (
	"runtime"

	"repro/internal/obs"
	"repro/internal/shard"
)

// laneCmd is one phase dispatched to the worker set.
type laneCmd uint8

const (
	cmdSend laneCmd = iota
	cmdReceive
	cmdPlace
)

// laneState is one lane: its compact active lists and the replay streams
// for messages its nodes sent.
type laneState struct {
	st *state
	id int32
	// actByIdx/actByID are the lane's active lists — the subsequences of the
	// global lists owned by this lane, maintained in the same two orders
	// (node index for phase dispatch, identifier for routing replay). A
	// single lane aliases the global lists.
	actByIdx []int32
	actByID  []int32
	// fateCopies/fateSwap replay the adversary's verdicts for messages sent
	// by this lane's nodes; within (multi-lane runs only) replays each
	// surviving message's destination-region cursor. All three are appended
	// by the supervisor's serial counting pass and consumed by this lane's
	// placement pass.
	fateCopies []int32
	fateSwap   []Payload
	within     []int32
}

// task is one unit of a phase: a send or receive phase over a contiguous
// chunk of one lane's frontier, or one lane's placement pass.
type task struct {
	cmd   laneCmd
	ls    *laneState
	nodes []int32
}

// run executes the task.
//
//dgp:hotpath
func (t task) run() {
	st := t.ls.st
	switch t.cmd {
	case cmdPlace:
		t.ls.place()
	case cmdSend:
		for _, si := range t.nodes {
			st.sendPhase(int(si))
		}
	default:
		for _, si := range t.nodes {
			st.receivePhase(int(si))
		}
	}
}

// initLanes attaches the lanes to a fresh state — one lane without a
// partition (or with a one-shard partition), else one lane per shard with
// its own active lists plus the per-shard ledgers — and starts the worker
// set: W-1 goroutines beside the dispatcher, k = ⌈GOMAXPROCS/S⌉ chunks per
// lane under Parallel (never more than the largest lane has nodes), else 1.
func (st *state) initLanes(part *shard.Partition) {
	s := 1
	if part != nil {
		s = part.S
	}
	st.lanes = make([]*laneState, s)
	biggest := st.n
	if s == 1 {
		st.lanes[0] = &laneState{st: st, actByIdx: st.actByIdx, actByID: st.actByID}
	} else {
		st.laneOf = part.Of
		st.shardStats = make([]ShardRoundStats, s)
		biggest = 0
		for sh, nodes := range part.Nodes {
			ls := &laneState{st: st, id: int32(sh)}
			ls.actByIdx = make([]int32, len(nodes))
			copy(ls.actByIdx, nodes)
			ls.actByID = make([]int32, 0, len(nodes))
			st.lanes[sh] = ls
			biggest = max(biggest, len(nodes))
		}
		// The lanes' identifier-order lists are the global list filtered by
		// owner, preserving the global order within each lane.
		for _, si := range st.actByID {
			ls := st.lanes[st.laneOf[si]]
			ls.actByID = append(ls.actByID, si)
		}
	}
	st.chunks = 1
	if st.cfg.Parallel {
		st.chunks = max(1, min((runtime.GOMAXPROCS(0)+s-1)/s, biggest))
	}
	w := s * st.chunks
	if w == 1 {
		return
	}
	st.tasks = make([]task, 0, w)
	st.done = make(chan struct{}, w)
	st.work = make([]chan task, w-1)
	for k := range st.work {
		ch := make(chan task, 1)
		st.work[k] = ch
		go func() {
			for t := range ch {
				t.run()
				st.done <- struct{}{}
			}
		}()
	}
}

// closeLanes shuts the worker set down. Callable only between barriers (no
// task in flight); Run skips it after a deadline abort, which may have left
// the dispatching goroutine mid-send.
func (st *state) closeLanes() {
	for _, ch := range st.work {
		close(ch)
	}
}

// runPhase runs one phase on the worker set and returns once every task
// finished — the engine's phase barrier. A send or receive phase is every
// lane's frontier cut into st.chunks contiguous chunks; placement is one
// task per lane. The calling goroutine runs task 0 while the workers run
// the rest; a set of one executor runs its one lane's phase inline.
//
//dgp:hotpath
func (st *state) runPhase(cmd laneCmd) {
	if st.work == nil {
		ls := st.lanes[0]
		task{cmd: cmd, ls: ls, nodes: ls.actByIdx}.run()
		return
	}
	ts := st.tasks[:0]
	for _, ls := range st.lanes {
		if cmd == cmdPlace {
			ts = append(ts, task{cmd: cmd, ls: ls})
			continue
		}
		nodes := ls.actByIdx
		chunk := max(1, (len(nodes)+st.chunks-1)/st.chunks)
		for lo := 0; lo < len(nodes); lo += chunk {
			ts = append(ts, task{cmd: cmd, ls: ls, nodes: nodes[lo:min(lo+chunk, len(nodes))]})
		}
	}
	st.tasks = ts
	if len(ts) == 0 {
		return
	}
	for k, t := range ts[1:] {
		st.work[k] <- t
	}
	ts[0].run()
	for range ts[1:] {
		<-st.done
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
// into the inbox arena in three passes:
//
//  1. counting (serial, supervisor) — walk senders in ascending identifier
//     order, apply the model-level drop rules, consult the adversary once
//     per surviving message (recording its fate in the sending lane's
//     stream), book every delivery/drop ledger, and count arriving copies
//     per destination;
//  2. offsets — a prefix sum over the global frontier carves the arena into
//     per-node regions;
//  3. placement (one task per lane) — each lane replays its senders' fates
//     and fills the regions.
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
	adv := st.adv
	tr := st.trace
	sl := st.lanes[0]
	for _, si := range st.actByID {
		i := int(si)
		e := &st.envs[i]
		from := e.id
		if st.laneOf != nil {
			sl = st.lanes[st.laneOf[i]]
		}
		msgs0, bits0 := st.roundMsgs, st.roundBits
		if e.bcastSet {
			// Uniform batch: one payload-size lookup covers every neighbor
			// the mask selects.
			b := MessageBits(e.bcastTag, e.bcast)
			mask := e.bcastMask
			delivered := 0
			for k, dj := range st.csrNbr[st.run.off[i]:st.run.off[i+1]] {
				j := int(dj)
				if (mask != nil && !mask.test(k)) || !st.frontier.test(j) || st.terminatedThisSend[j] {
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

	// Offsets: one lane fills each region at its inFill cursor, so the
	// cursor starts at the region head; several lanes write at recorded
	// slots, so inFill is the region end from the start.
	multi := st.laneOf != nil
	cur := int32(0)
	for _, si := range st.actByIdx {
		i := int(si)
		st.inOff[i] = cur
		st.inFill[i] = cur
		cur += st.inCnt[i]
		if multi {
			st.inFill[i] = cur
		}
		st.inCnt[i] = 0
	}
	st.inMsgs = st.inbox.acquire(int(cur))

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
	if st.laneOf != nil {
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
// over this lane's senders and write every delivery into its region of the
// shared arena. Runs concurrently across lanes; on a multi-lane run each
// delivery goes to the slot the counting pass fixed for it, so no two lanes
// write the same slot.
//
//dgp:hotpath
func (ls *laneState) place() {
	st := ls.st
	// direct: one lane and no intercepting adversary, so every message is
	// delivered once and lands at its destination's inFill cursor.
	direct := st.laneOf == nil && st.adv == nil
	arena := st.inMsgs
	fi, wi := 0, 0
	for _, si := range ls.actByID {
		i := int(si)
		e := &st.envs[i]
		from := e.id
		if e.bcastSet {
			m := Msg{From: from, Tag: e.bcastTag, Payload: e.bcast}
			mask := e.bcastMask
			for k, dj := range st.csrNbr[st.run.off[i]:st.run.off[i+1]] {
				j := int(dj)
				if (mask != nil && !mask.test(k)) || !st.frontier.test(j) || st.terminatedThisSend[j] {
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
}

// put places one surviving message outside the direct case: it replays
// the recorded fate under an adversary (copies, replacement payload, which
// travels untagged), then writes the copies at the slot the counting pass
// recorded for this sender stream on several lanes, or at j's inFill
// cursor on one. It returns the advanced fate and within cursors.
//
//dgp:hotpath
func (ls *laneState) put(j int, m Msg, fi, wi int) (int, int) {
	st := ls.st
	copies := 1
	if st.adv != nil {
		copies = int(ls.fateCopies[fi])
		if swap := ls.fateSwap[fi]; swap != nil {
			m.Tag, m.Payload = 0, swap
		}
		fi++
	}
	if copies == 0 {
		return fi, wi
	}
	var f int32
	if st.laneOf != nil {
		f = st.inOff[j] + ls.within[wi]
		wi++
	} else {
		f = st.inFill[j]
		st.inFill[j] += int32(copies)
	}
	for c := 0; c < copies; c++ {
		st.inMsgs[f] = m
		f++
	}
	return fi, wi
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
