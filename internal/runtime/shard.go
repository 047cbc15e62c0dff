package runtime

// This file hosts the engine's one worker set and its one router. Every
// phase of a round cuts the one global frontier into at most W contiguous
// chunks, and every delivery lands in the one inbox arena the state owns.
// A partition with S ≥ 2 shards (Config.Shards or Config.Partition) sets no
// part of that work split: it only labels the per-shard delivery ledgers,
// where a delivery whose sender and destination sit in different shards
// crosses the partition cut.
//
// The determinism contract — results, error surfaces, and trace streams
// byte-identical for every shard and executor count — rests on a strict
// division of labor between the supervisor (Run's goroutine) and the worker
// set:
//
//   - Everything order-sensitive stays serial on the supervisor: the
//     counting pass walks senders in global ascending-identifier order, so
//     the adversary sees one fixed call sequence, the ledgers and
//     EvBatch/EvFault events accrue identically, and every delivery's arena
//     slot (destination region + within-region cursor) is fixed before any
//     task moves a byte.
//   - Everything embarrassingly parallel fans out to the workers: the
//     machine send/receive phases, and the placement pass of a sharded run,
//     where each chunk of the identifier-ordered senders replays its
//     recorded fates and slot cursors from the stream positions the
//     counting pass marked at the chunk's first sender, and writes every
//     delivery straight to its slot. Slots are disjoint, so placement needs
//     no locks, and because they were assigned serially, the arena contents
//     come out identical however the tasks interleave.
//
// A one-shard run needs no slots: placement is one task that walks the
// senders in the counting pass's order and fills each region at its inFill
// cursor, so no slot stream or per-shard ledger is kept.
//
// The worker set has W = S·k executors, k = ⌈GOMAXPROCS/S⌉ under
// Config.Parallel and 1 otherwise, never more than n; the dispatching
// goroutine is one of them, so a sequential one-shard run starts no
// goroutine at all.

import (
	"runtime"

	"repro/internal/obs"
	"repro/internal/shard"
)

// phaseCmd is one phase dispatched to the worker set.
type phaseCmd uint8

const (
	cmdSend phaseCmd = iota
	cmdReceive
	cmdPlace
)

// task is one unit of a phase: a contiguous chunk of the frontier, in node
// index order for send and receive, in identifier order for placement,
// whose replay starts at position fi of the fate streams and position wi of
// the within stream.
type task struct {
	cmd    phaseCmd
	nodes  []int32
	fi, wi int
}

// runTask executes one task.
//
//dgp:hotpath
func (st *state) runTask(t task) {
	switch t.cmd {
	case cmdPlace:
		st.place(t.nodes, t.fi, t.wi)
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

// initWorkers attaches the per-shard ledgers of a partition with two or
// more shards to a fresh state and starts the worker set: W-1 goroutines
// beside the dispatcher.
func (st *state) initWorkers(part *shard.Partition) {
	s := 1
	if part != nil && part.S > 1 {
		s = part.S
		st.shardOf = part.Of
		st.shardStats = make([]ShardRoundStats, s)
		st.within = make([]int32, 0, len(st.csrNbr))
	}
	k := 1
	if st.cfg.Parallel {
		k = (runtime.GOMAXPROCS(0) + s - 1) / s
	}
	st.workers = max(1, min(s*k, st.n))
	if st.workers == 1 {
		return
	}
	st.tasks = make([]task, 0, st.workers)
	st.done = make(chan struct{}, st.workers)
	st.work = make([]chan task, st.workers-1)
	for k := range st.work {
		ch := make(chan task, 1)
		st.work[k] = ch
		go func() {
			for t := range ch {
				st.runTask(t)
				st.done <- struct{}{}
			}
		}()
	}
}

// closeWorkers shuts the worker set down. Callable only between barriers
// (no task in flight); Run skips it after a deadline abort, which may have
// left the dispatching goroutine mid-send.
func (st *state) closeWorkers() {
	for _, ch := range st.work {
		close(ch)
	}
}

// runPhase runs one send or receive phase: the frontier in node-index
// order, cut into W contiguous chunks.
//
//dgp:hotpath
func (st *state) runPhase(cmd phaseCmd) {
	nodes := st.actByIdx
	if st.work == nil {
		st.runTask(task{cmd: cmd, nodes: nodes})
		return
	}
	chunk := max(1, (len(nodes)+st.workers-1)/st.workers)
	ts := st.tasks[:0]
	for lo := 0; lo < len(nodes); lo += chunk {
		ts = append(ts, task{cmd: cmd, nodes: nodes[lo:min(lo+chunk, len(nodes))]})
	}
	st.dispatch(ts)
}

// dispatch runs the tasks on the worker set and returns once every task
// finished — the engine's phase barrier. The calling goroutine runs task 0
// while the workers run the rest; there are never more tasks than
// executors, so a set of one runs its one task inline.
//
//dgp:hotpath
func (st *state) dispatch(ts []task) {
	st.tasks = ts
	if len(ts) == 0 {
		return
	}
	for k, t := range ts[1:] {
		st.work[k] <- t
	}
	st.runTask(ts[0])
	for range ts[1:] {
		<-st.done
	}
}

// route is the engine's router: it delivers this round's messages into the
// inbox arena in three passes:
//
//  1. counting (serial, supervisor) — walk senders in ascending identifier
//     order, apply the model-level drop rules, consult the adversary once
//     per surviving message (recording its fate in the fate streams), book
//     every delivery/drop ledger, and count arriving copies per
//     destination;
//  2. offsets — a prefix sum over the global frontier carves the arena into
//     per-node regions;
//  3. placement — one task on a one-shard run; on a sharded run, the
//     identifier-ordered senders cut into W chunks, each replaying its
//     senders' fates and slot cursors from the positions the counting pass
//     marked at its first sender.
//
// Inbox regions come out sorted by sender identifier, and the adversary and
// trace observe one per-message call and event sequence for every shard
// count — the golden and parity tests pin both.
//
//dgp:hotpath
func (st *state) route(round int, res *Result) {
	st.roundMsgs, st.roundBits = 0, 0
	for k := range st.shardStats {
		st.shardStats[k] = ShardRoundStats{}
	}
	clear(st.fateSwap)
	st.fateCopies = st.fateCopies[:0]
	st.fateSwap = st.fateSwap[:0]
	st.within = st.within[:0]
	sharded := st.shardOf != nil
	senders := st.actByID
	if !sharded {
		st.countSenders(round, senders, res)
	} else {
		chunk := max(1, (len(senders)+st.workers-1)/st.workers)
		ts := st.tasks[:0]
		for lo := 0; lo < len(senders); lo += chunk {
			c := senders[lo:min(lo+chunk, len(senders))]
			ts = append(ts, task{cmd: cmdPlace, nodes: c, fi: len(st.fateCopies), wi: len(st.within)})
			st.countSenders(round, c, res)
		}
		st.tasks = ts
	}

	// Offsets: a one-shard run fills each region at its inFill cursor, so
	// the cursor starts at the region head; a sharded run writes at recorded
	// slots, so inFill is the region end from the start.
	cur := int32(0)
	for _, si := range st.actByIdx {
		i := int(si)
		st.inOff[i] = cur
		st.inFill[i] = cur
		cur += st.inCnt[i]
		if sharded {
			st.inFill[i] = cur
		}
		st.inCnt[i] = 0
	}
	st.inMsgs = st.inbox.acquire(int(cur))

	if sharded {
		st.dispatch(st.tasks)
	} else {
		st.runTask(task{cmd: cmdPlace, nodes: senders})
	}
	st.emitShardLedgers(round)
}

// countSenders is the counting pass over a run of identifier-ordered
// senders.
//
//dgp:hotpath
func (st *state) countSenders(round int, senders []int32, res *Result) {
	adv := st.adv
	tr := st.trace
	for _, si := range senders {
		i := int(si)
		e := &st.envs[i]
		from := e.id
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
					st.count(i, j, 1, b)
					delivered++
					continue
				}
				copies, cb := st.recordFate(round, from, j, e.bcast, b)
				if copies > 0 {
					st.count(i, j, copies, cb)
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
					copies, b = st.recordFate(round, from, j, out.Payload, b)
					if copies == 0 {
						continue
					}
				}
				st.count(i, j, copies, b)
				st.account(b, copies, res)
			}
		}
		if tr != nil && st.roundMsgs > msgs0 {
			tr.Emit(obs.Event{Type: obs.EvBatch, Round: round, Node: from, Value: int64(st.roundMsgs - msgs0), Aux: int64(st.roundBits - bits0)})
		}
	}
}

// recordFate intercepts one in-flight message of b bits and records the
// verdict in the fate streams for the placement pass. It returns the
// delivered copy count (0 = dropped) with the delivered size, which
// corruption may have changed.
//
//dgp:hotpath
func (st *state) recordFate(round, from, j int, payload Payload, b int) (int, int) {
	copies, cb, swap := st.interceptFate(round, from, j, payload, b)
	st.fateCopies = append(st.fateCopies, int32(copies))
	st.fateSwap = append(st.fateSwap, swap)
	return copies, cb
}

// count books one surviving delivery of copies messages of b bits from
// node i to j: the destination's region count, plus, on sharded runs, the
// slot cursor and the per-shard ledgers.
//
//dgp:hotpath
func (st *state) count(i, j, copies, b int) {
	if st.shardOf != nil {
		st.countShard(i, j, copies, b)
		return
	}
	st.inCnt[j] += int32(copies)
}

// countShard is count's sharded half: the slot cursor in the within stream,
// the destination's region count, and the per-shard
// delivered/injected/boundary ledgers.
//
//dgp:hotpath
func (st *state) countShard(i, j, copies, b int) {
	src, dst := st.shardOf[i], st.shardOf[j]
	st.within = append(st.within, st.inCnt[j])
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
	if dst != src {
		out := &st.shardStats[src]
		out.BoundaryOut += copies
		out.BoundaryOutBits += copies * b
	}
}

// place is the placement pass over a run of identifier-ordered senders:
// replay the counting pass's verdicts from fate stream position fi and
// within stream position wi, and write every delivery into its region of
// the shared arena. On a sharded run, chunks run concurrently and each
// delivery goes to the slot the counting pass fixed for it, so no two
// chunks write the same slot.
//
//dgp:hotpath
func (st *state) place(senders []int32, fi, wi int) {
	// direct: one shard and no intercepting adversary, so every message is
	// delivered once and lands at its destination's inFill cursor.
	direct := st.shardOf == nil && st.adv == nil
	arena := st.inMsgs
	for _, si := range senders {
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
				fi, wi = st.put(j, m, fi, wi)
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
				fi, wi = st.put(j, m, fi, wi)
			}
		}
	}
}

// put places one surviving message outside the direct case: it replays
// the recorded fate under an adversary (copies, replacement payload, which
// travels untagged), then writes the copies at the slot the counting pass
// recorded on a sharded run, or at j's inFill cursor on a one-shard run.
// It returns the advanced fate and within cursors.
//
//dgp:hotpath
func (st *state) put(j int, m Msg, fi, wi int) (int, int) {
	copies := 1
	if st.adv != nil {
		copies = int(st.fateCopies[fi])
		if swap := st.fateSwap[fi]; swap != nil {
			m.Tag, m.Payload = 0, swap
		}
		fi++
	}
	if copies == 0 {
		return fi, wi
	}
	var f int32
	if st.shardOf != nil {
		f = st.inOff[j] + st.within[wi]
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
// from the supervisor strictly after the placement barrier; a one-shard run
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
