package runtime

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Config describes one execution of a distributed algorithm.
type Config struct {
	// Graph is the communication graph. Required.
	Graph *graph.Graph
	// Factory builds the per-node machines. Required.
	Factory Factory
	// Predictions, when non-nil, must have length Graph.N(); Predictions[i]
	// is handed to the factory for node index i.
	Predictions []any
	// Parallel gives the run's one worker set S·⌈GOMAXPROCS/S⌉ executors
	// instead of S (S shards, see Shards; never more than n): every phase
	// cuts the one frontier into that many contiguous chunks. The set is
	// created once per Run and driven by phase signals with a barrier
	// between phases. Semantics are identical with or without it.
	Parallel bool
	// Shards sets the shard count S; 0 and 1 give one shard. With Shards
	// >= 2 the graph is partitioned into Shards node sets (contiguous index
	// ranges unless Partition overrides the strategy), and the engine keeps
	// per-shard delivery ledgers, booking deliveries across the partition
	// cut as boundary traffic. Shards do not split the work: each phase
	// cuts the one frontier into S·k chunks (k = 1, or ⌈GOMAXPROCS/S⌉ under
	// Parallel), and placement on a sharded run writes every delivery
	// straight to the slot a serial counting pass fixed. The determinism
	// contract extends across shard counts: results, error surfaces, and
	// trace streams (EvShardExchange ledgers, emitted only with two or more
	// shards, excepted) are identical for every Shards value. See
	// internal/runtime/shard.go.
	Shards int
	// Partition, when non-nil, fixes the node→shard assignment the ledgers
	// are kept by (e.g. shard.GreedyEdgeCut); its shard count must agree
	// with Shards when both are set. nil with Shards >= 2 selects
	// shard.Contiguous.
	Partition *shard.Partition
	// MaxRounds caps the execution; 0 selects 8*n + 64, a generous bound for
	// every algorithm in this repository (all are O(n)-round or better).
	MaxRounds int
	// Adversary, when non-nil, intercepts message routing and supplies the
	// run's crash schedule — the only way faults enter a run (a fixed
	// schedule is fault.Schedule); see the Adversary interface for the
	// determinism contract. Adversary state is consumed by the run: pass a
	// fresh value per Run.
	Adversary Adversary
	// RoundDeadline, when positive, bounds the wall-clock time of each send
	// and receive phase; a phase that exceeds it aborts the run with an
	// ErrRoundDeadline diagnostic. The wedged phase goroutine cannot be
	// killed and is abandoned, so a deadline abort is a terminal condition
	// for the process's engine use, not a recoverable per-round event.
	RoundDeadline time.Duration
	// MaxMessageBits, when positive, enforces the CONGEST model: every
	// payload must implement BitSized and report at most this many bits;
	// violations abort the run. The conventional budget is O(log n) — see
	// CongestBudget.
	MaxMessageBits int
	// Stats, when non-nil, is invoked at the end of every round with the
	// engine's instrumentation record for that round (wall time, deliveries,
	// payload bits). Purely observational: it never affects semantics.
	Stats func(RoundStats)
	// Trace, when non-nil, receives the run's typed event stream (see
	// internal/obs for the taxonomy). All events are emitted from the
	// engine's main goroutine in an order identical for every shard count
	// and pool setting; only wall-clock durations differ. Purely
	// observational. When nil the instrumented paths reduce to a nil check.
	Trace *obs.Recorder
	// Telemetry, when non-nil, receives per-phase round wall-time
	// observations into dgp_round_seconds{phase,shards} histograms (phases:
	// send, route, receive, round). The histograms are resolved once on the
	// run's setup path; the round loop only reads the observational clock
	// and updates pre-resolved histograms, so semantics are untouched and a
	// nil Telemetry costs a single pointer check per round.
	Telemetry *obs.Telemetry
}

// RoundStats is the engine's per-round instrumentation record, reported
// through Config.Stats.
type RoundStats struct {
	// Round is the 1-based round number.
	Round int
	// Duration is the wall time of the whole round (send, route, receive,
	// bookkeeping).
	Duration time.Duration
	// Messages is the number of messages delivered this round.
	Messages int
	// Bits is the total size of the round's delivered payloads that
	// implement BitSized, in bits; unsized payloads contribute nothing.
	Bits int
	// Active is the number of nodes that participated in this round.
	Active int
	// Shards holds the per-shard delivery ledgers of a round on two or more
	// shards, from Shards or Partition (nil otherwise — a single shard's
	// ledger is the global fields above). Indexed by shard; the slice is
	// reused across rounds, copy to keep.
	Shards []ShardRoundStats
}

// ShardRoundStats is one shard's slice of a round's delivery ledgers
// (RoundStats.Shards). Injected counts the adversary's extra duplicate
// copies: they are real deliveries, so they appear in Delivered too. Boundary
// fields ledger the traffic this shard exported across the partition cut.
type ShardRoundStats struct {
	Delivered       int
	DeliveredBits   int
	Injected        int
	InjectedBits    int
	BoundaryOut     int
	BoundaryOutBits int
}

// Result reports the outcome of a run. A run that aborts after it started
// returns its partial Result together with the error: Rounds is then the
// last completed round, and Outputs and TerminatedAt hold the nodes that
// terminated by the end of it — the settled state at that round boundary.
// Messages and MaxMsgBits include the aborted round's deliveries. Fault
// totals are not kept here: the trace's EvFault events carry them (see
// obs.Summarize).
type Result struct {
	// Rounds is the round in which the last node terminated (0 if the graph
	// is empty), or, when the run aborted, the last round it completed.
	Rounds int
	// Outputs holds each node's final output, indexed by node index; nil for
	// crashed nodes that never output and for nodes still active when the
	// run aborted.
	Outputs []any
	// TerminatedAt holds the round each node terminated, 0 for nodes that
	// never terminated.
	TerminatedAt []int
	// Messages is the total number of point-to-point messages delivered.
	Messages int
	// MaxMsgBits is the largest single-message size observed, in bits, over
	// payloads implementing BitSized. It is -1 when no sized payload was
	// ever observed: either some delivered payload did not implement
	// BitSized (the run is LOCAL-only) or the run delivered no messages at
	// all, so no bandwidth claim can be made either way.
	MaxMsgBits int
}

// ErrNoTermination is returned when MaxRounds elapses with active nodes.
var ErrNoTermination = errors.New("runtime: algorithm did not terminate within MaxRounds")

// ErrConfig wraps every configuration-validation error from Run (nil graph
// or factory, mismatched predictions, a bad shard count or partition, an
// invalid Adversary crash schedule): the run never started. Callers
// distinguishing misconfiguration from runtime failure — e.g. the recovery
// wrapper, which can heal a damaged run but not an impossible one — test
// errors.Is(err, ErrConfig).
var ErrConfig = errors.New("runtime: invalid configuration")

// ErrCongestViolation is returned when MaxMessageBits is set and a message
// is unsized or too large for the CONGEST budget.
var ErrCongestViolation = errors.New("runtime: CONGEST bandwidth violation")

// ErrMachinePanic is returned when a machine's Send or Receive panics. The
// panic is contained: it surfaces as a per-node error from Run (wrapping
// this sentinel, with node, round, phase, and the panic value) and the
// worker set shuts down cleanly instead of crashing the process.
var ErrMachinePanic = errors.New("runtime: machine panicked")

// ErrRoundDeadline is returned when Config.RoundDeadline is set and a send
// or receive phase exceeds it (a wedged machine). The returned error wraps
// this sentinel and names the phase and round.
var ErrRoundDeadline = errors.New("runtime: round deadline exceeded")

// ErrProtocol wraps every violation of the node-machine contract detected at
// runtime: sending to a non-neighbor, producing output after termination,
// terminating without output, or breaking a template's lockstep/lane
// discipline (internal/core). Test errors.Is(err, ErrProtocol).
var ErrProtocol = errors.New("runtime: protocol violation")

// CongestBudget returns the conventional CONGEST message budget for an
// n-node graph with identifier domain d: c·⌈log₂(max(n,d))⌉ bits with c = 4,
// enough for a constant number of identifiers or colors per message. The
// degenerate single-node case gets the one-bit floor, 4·1.
func CongestBudget(n, d int) int {
	m := n
	if d > m {
		m = d
	}
	if m < 2 {
		return 4
	}
	// bits.Len(m-1) is exactly ⌈log₂ m⌉ for m >= 2.
	return 4 * bits.Len(uint(m-1))
}

// Run executes the algorithm to completion and returns the result. A
// configuration error returns a nil Result; any later abort returns the
// partial Result (see Result) with the error.
func Run(cfg Config) (*Result, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("%w: Config.Graph is required", ErrConfig)
	}
	if cfg.Factory == nil {
		return nil, fmt.Errorf("%w: Config.Factory is required", ErrConfig)
	}
	g := cfg.Graph
	n := g.N()
	if cfg.Predictions != nil && len(cfg.Predictions) != n {
		return nil, fmt.Errorf("%w: %d predictions for %d nodes", ErrConfig, len(cfg.Predictions), n)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("%w: Config.Shards = %d; must be >= 0", ErrConfig, cfg.Shards)
	}
	part := cfg.Partition
	if part != nil {
		if err := part.Validate(n); err != nil {
			return nil, fmt.Errorf("%w: Config.Partition: %v", ErrConfig, err)
		}
		if cfg.Shards != 0 && cfg.Shards != part.S {
			return nil, fmt.Errorf("%w: Config.Shards = %d but Config.Partition has %d shards",
				ErrConfig, cfg.Shards, part.S)
		}
	} else if cfg.Shards > 1 {
		part = shard.Contiguous(n, cfg.Shards)
	}
	var crashes map[int]int
	if cfg.Adversary != nil {
		crashes = cfg.Adversary.Crashes(n)
		if err := validCrashes(crashes, n); err != nil {
			return nil, err
		}
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = 8*n + 64
	}

	st := newState(cfg, g, n, crashes, part)
	// A deadline abort abandons the in-flight phase goroutine, which may
	// still be dispatching on the workers' channels; closing them underneath
	// it would race, so an abandoned worker set leaks with it.
	defer func() {
		if !st.abandoned {
			st.closeWorkers()
		}
	}()
	res := &Result{
		Outputs:      make([]any, n),
		TerminatedAt: make([]int, n),
	}
	if st.trace != nil {
		st.trace.Emit(obs.Event{Type: obs.EvRunStart, Value: int64(n), Aux: int64(g.M())})
	}

	telemetry := st.telRound != nil
	timed := cfg.Stats != nil || st.trace != nil || telemetry
	for round := 1; st.activeCount > 0; round++ {
		if round > maxRounds {
			err := fmt.Errorf("%w (round %d, %d nodes active)", ErrNoTermination, maxRounds, st.activeCount)
			// The round that overran never began; close the run after the
			// last round that did execute.
			st.traceRunEnd(maxRounds, res, err)
			return st.closeResult(res, round-1), err
		}
		var start, mark time.Time
		if timed {
			// Observational wall-clock only (RoundStats.Duration, trace
			// DurNS, telemetry histograms); the obs funnel is exempted
			// package-wide by the seededrand analyzer and never feeds back
			// into semantics.
			start = obs.Now()
			mark = start
		}
		st.beginRound(round)
		activeThisRound := st.activeCount
		if err := st.phase(cmdSend, round, "send"); err != nil {
			st.traceAbort(round, res, err, "send", false)
			return st.closeResult(res, round-1), err
		}
		if err := st.firstError(); err != nil {
			st.traceAbort(round, res, err, "send", true)
			return st.closeResult(res, round-1), err
		}
		if telemetry {
			mark = telObserve(st.telSend, mark)
		}
		st.route(round, res)
		if telemetry {
			mark = telObserve(st.telRoute, mark)
		}
		if err := st.phase(cmdReceive, round, "receive"); err != nil {
			st.traceAbort(round, res, err, "receive", false)
			return st.closeResult(res, round-1), err
		}
		if err := st.firstError(); err != nil {
			st.traceAbort(round, res, err, "receive", true)
			return st.closeResult(res, round-1), err
		}
		if telemetry {
			telObserve(st.telReceive, mark)
		}
		st.endRound(round, res)
		var dur time.Duration
		if timed {
			dur = obs.Since(start)
		}
		if telemetry {
			st.telRound.Observe(dur.Seconds())
		}
		if st.trace != nil {
			st.trace.Emit(obs.Event{
				Type: obs.EvRoundEnd, Round: round,
				Value: int64(st.roundMsgs), Aux: int64(st.roundBits),
				DurNS: dur.Nanoseconds(),
			})
		}
		if cfg.Stats != nil {
			cfg.Stats(RoundStats{
				Round:    round,
				Duration: dur,
				Messages: st.roundMsgs,
				Bits:     st.roundBits,
				Active:   activeThisRound,
				Shards:   st.shardStats,
			})
		}
	}
	st.traceRunEnd(res.Rounds, res, nil)
	return st.closeResult(res, res.Rounds), nil
}

// closeResult completes res with its round count and MaxMsgBits. A run
// aborting in round r passes r-1: endRound never ran for round r, so res
// holds the settled state at the end of r-1. Only the main goroutine writes
// res — an abandoned deadline phase goroutine touches machines and envs,
// never res — so the caller may read it.
func (st *state) closeResult(res *Result, rounds int) *Result {
	res.Rounds = rounds
	res.MaxMsgBits = st.maxMsgBits
	if st.localOnly {
		res.MaxMsgBits = -1
	}
	return res
}

// telObserve records the wall time elapsed since mark into the phase
// histogram and returns a fresh mark for the next phase. Callers guard with
// the telemetry flag, so h is never nil here and disabled telemetry costs
// one boolean test per phase.
func telObserve(h *obs.Histogram, mark time.Time) time.Time {
	now := obs.Now()
	h.Observe(now.Sub(mark).Seconds())
	return now
}

// traceRunEnd emits the terminal run-end event (no-op without a recorder).
func (st *state) traceRunEnd(lastRound int, res *Result, err error) {
	if st.trace == nil {
		return
	}
	e := obs.Event{Type: obs.EvRunEnd, Value: int64(lastRound), Aux: int64(res.Messages)}
	if err != nil {
		e.Err = err.Error()
	}
	st.trace.Emit(e)
}

// traceAbort closes the trace of a run aborting inside round `round`: the
// terminal round event carries the error, preceded by a deadline marker
// when the watchdog fired, then the run-end event. drain controls whether
// staged machine annotations are flushed first: phases that completed
// (protocol/panic aborts, detected after the barrier) drain; a deadline
// abort abandons the phase goroutine mid-flight, so the staging buffers may
// still be written to and must not be touched.
func (st *state) traceAbort(round int, res *Result, err error, phase string, drain bool) {
	if st.trace == nil {
		return
	}
	if drain {
		st.drainNotes(round)
	}
	if errors.Is(err, ErrRoundDeadline) {
		st.trace.Emit(obs.Event{Type: obs.EvDeadline, Round: round, Name: phase})
	}
	st.trace.Emit(obs.Event{Type: obs.EvRoundEnd, Round: round, Err: err.Error()})
	st.traceRunEnd(round, res, err)
}

// validCrashes checks a crash schedule: node indices in [0, n), rounds >= 1.
// Entries are examined in ascending index order so a schedule with several
// invalid entries reports the same one every run — the chaos parity tests
// compare error strings across engine modes.
func validCrashes(crashes map[int]int, n int) error {
	idxs := make([]int, 0, len(crashes))
	for i := range crashes {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		r := crashes[i]
		if i < 0 || i >= n {
			return fmt.Errorf("%w: Adversary.Crashes[%d] = %d; node index out of range [0, %d)", ErrConfig, i, r, n)
		}
		if r < 1 {
			return fmt.Errorf("%w: Adversary.Crashes[%d] = %d; crash rounds are 1-based and must be >= 1", ErrConfig, i, r)
		}
	}
	return nil
}

// crashEntry is one scheduled crash; the engine consumes the schedule as a
// sorted list (by round, then node index — the index order fixes the crash
// event emission order within a round) instead of scanning an O(n) map or
// array every round.
type crashEntry struct {
	round int
	node  int32
}

func buildCrashSched(crashes map[int]int) []crashEntry {
	if len(crashes) == 0 {
		return nil
	}
	sched := make([]crashEntry, 0, len(crashes))
	for i, r := range crashes {
		sched = append(sched, crashEntry{round: r, node: int32(i)})
	}
	sort.Slice(sched, func(a, b int) bool {
		if sched[a].round != sched[b].round {
			return sched[a].round < sched[b].round
		}
		return sched[a].node < sched[b].node
	})
	return sched
}

// state holds the engine's mutable execution state in columnar form: flat
// CSR adjacency, one contiguous inbox arena per round, and compact
// active lists over a frontier bitset. Per-node slice-of-slice structures
// are gone from the hot path; what remains per node lives in the flat envs
// slab.
type state struct {
	cfg  Config
	g    *graph.Graph
	n    int
	envs []Env
	mach []Machine

	// run holds the run's constants every Env points to, among them the
	// flat CSR offsets and neighbor identifiers (run.off, run.ids); csrNbr
	// completes the CSR, built once per Run: node i's neighbors are
	// csrNbr[run.off[i]:run.off[i+1]] (node indices) with run.ids aligned
	// 1:1 holding their identifiers, each range sorted ascending by
	// identifier. NodeInfo.NeighborIDs and the send-validation binary
	// search are views into run.ids; broadcast routing walks csrNbr ranges
	// directly, position k of a range being bit k of a broadcast mask.
	run    runInfo
	csrNbr []int32

	// frontier marks the nodes still in the computation; actByIdx (node
	// index order, phase dispatch and inbox layout) and actByID (identifier
	// order, routing) are its compact list forms. Nodes only ever leave the
	// frontier, so both lists are compacted in place at the start of each
	// round in O(live) time.
	frontier    bitset
	actByIdx    []int32
	actByID     []int32
	activeCount int

	// crashSched/crashNext consume the adversary's crash schedule in round
	// order.
	crashSched []crashEntry
	crashNext  int

	// inCnt/inOff/inFill carve the inbox arena into per-node regions: the
	// counting pass fills inCnt, the offset pass turns it into inOff (region
	// starts) and resets it, and inFill[i] ends node i's region once
	// placement is done. inMsgs is the arena slice acquired from inbox for
	// the round.
	inCnt  []int32
	inOff  []int32
	inFill []int32
	inbox  msgSlab
	inMsgs []Msg

	// errs[i] records node i's error: the machine's first Env.Fail, which
	// writes it through run.errs, or the engine's own (a send to a
	// non-neighbor, a CONGEST violation, a contained panic, which replaces
	// an earlier Env.Fail).
	errs []error
	// dstSlab backs every node's Env.dst window: one destination slot per
	// directed CSR edge, made by dstWindow at the run's first non-empty
	// []Out and never for a run whose nodes only broadcast.
	dstSlab []int32
	dstOnce sync.Once
	// terminatedThisSend marks nodes that terminated during the send phase.
	terminatedThisSend []bool
	// abandoned marks that a deadline abort left a phase goroutine alive on
	// the workers' channels, so Run must not close them.
	abandoned bool

	// shardOf/shardStats/within exist only on a partition with two or more
	// shards (see shard.go): shardOf maps node index to shard, shardStats
	// holds the per-shard round ledgers, and within replays each surviving
	// delivery's destination-region cursor to the placement pass.
	shardOf    []int32
	shardStats []ShardRoundStats
	within     []int32
	// fateCopies/fateSwap replay the adversary's verdicts, one entry per
	// intercepted message in counting order, to the placement pass.
	fateCopies []int32
	fateSwap   []Payload
	// work/done/tasks/workers are the worker set: one task channel per
	// worker goroutine (the dispatcher is the set's other executor), the
	// phase barrier's completion channel, the reused task list, and the
	// executor count W.
	work    []chan task
	done    chan struct{}
	tasks   []task
	workers int

	// maxMsgBits/localOnly accumulate Result.MaxMsgBits: the largest sized
	// payload seen (-1 before any), and whether an unsized payload was seen.
	maxMsgBits int
	localOnly  bool
	// roundMsgs/roundBits accumulate the current round's Stats record.
	roundMsgs int
	roundBits int
	// trace is the attached event recorder (nil = tracing disabled).
	trace *obs.Recorder
	// adv is the adversary routing consults: Config.Adversary, or nil when
	// there is none or it is crash-only (CrashOnly), so such runs keep the
	// adversary-free counting and direct placement.
	adv Adversary

	// Pre-resolved telemetry histograms (nil = telemetry disabled): the
	// round loop observes phase wall times into these without any label
	// formatting or map lookups on the hot path.
	telSend, telRoute, telReceive, telRound *obs.Histogram
}

// idSorter sorts a CSR neighbor range ascending by node identifier. It is
// reused across ranges so per-node sorting does not allocate a comparison
// closure per node.
type idSorter struct {
	g   *graph.Graph
	idx []int32
}

func (s *idSorter) Len() int { return len(s.idx) }
func (s *idSorter) Less(a, b int) bool {
	return s.g.ID(int(s.idx[a])) < s.g.ID(int(s.idx[b]))
}
func (s *idSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

func newState(cfg Config, g *graph.Graph, n int, crashes map[int]int, part *shard.Partition) *state {
	st := &state{
		cfg:                cfg,
		g:                  g,
		n:                  n,
		envs:               make([]Env, n),
		mach:               make([]Machine, n),
		frontier:           newBitset(n),
		actByIdx:           make([]int32, n),
		actByID:            make([]int32, n),
		inCnt:              make([]int32, n),
		inOff:              make([]int32, n),
		inFill:             make([]int32, n),
		errs:               make([]error, n),
		terminatedThisSend: make([]bool, n),
		maxMsgBits:         -1,
		trace:              cfg.Trace,
		adv:                cfg.Adversary,
	}
	if _, ok := cfg.Adversary.(CrashOnly); ok {
		st.adv = nil
	}
	// Build the ID-sorted CSR. When identifiers are the identity permutation
	// (the common generator default), the graph's index-sorted adjacency is
	// already ID-sorted and can be aliased without copying or sorting.
	off, adj := g.CSR()
	st.run = runInfo{n: n, d: g.D(), delta: g.MaxDegree(), off: off, errs: st.errs}
	if cfg.Trace != nil {
		st.run.notes = make([][]Note, n)
	}
	identity := true
	for i := 0; i < n; i++ {
		if g.ID(i) != i+1 {
			identity = false
			break
		}
	}
	ids := make([]int, len(adj))
	st.run.ids = ids
	if identity {
		st.csrNbr = adj
		for k, v := range adj {
			ids[k] = int(v) + 1
		}
		for i := range st.actByID {
			st.actByID[i] = int32(i)
		}
	} else {
		st.csrNbr = make([]int32, len(adj))
		copy(st.csrNbr, adj)
		srt := idSorter{g: g}
		for i := 0; i < n; i++ {
			srt.idx = st.csrNbr[off[i]:off[i+1]]
			sort.Sort(&srt)
		}
		for k, v := range st.csrNbr {
			ids[k] = g.ID(int(v))
		}
		if g.D() == n {
			// Identifiers are a bijection onto {1..n}: place directly.
			for i := 0; i < n; i++ {
				st.actByID[g.ID(i)-1] = int32(i)
			}
		} else {
			for i := range st.actByID {
				st.actByID[i] = int32(i)
			}
			sort.Slice(st.actByID, func(a, b int) bool {
				return g.ID(int(st.actByID[a])) < g.ID(int(st.actByID[b]))
			})
		}
	}

	for i := 0; i < n; i++ {
		var pred any
		if cfg.Predictions != nil {
			pred = cfg.Predictions[i]
		}
		e := &st.envs[i]
		e.run, e.index, e.id = &st.run, int32(i), g.ID(i)
		st.mach[i] = cfg.Factory(e.Info(), pred)
		st.actByIdx[i] = int32(i)
		st.frontier.set(i)
	}
	st.activeCount = n
	// Run has already validated the schedule (indices in range, rounds >= 1).
	st.crashSched = buildCrashSched(crashes)
	st.initWorkers(part)
	if cfg.Telemetry != nil {
		shards := max(1, len(st.shardStats))
		st.telSend = cfg.Telemetry.RoundHistogram("send", shards)
		st.telRoute = cfg.Telemetry.RoundHistogram("route", shards)
		st.telReceive = cfg.Telemetry.RoundHistogram("receive", shards)
		st.telRound = cfg.Telemetry.RoundHistogram("round", shards)
	}
	return st
}

// beginRound applies the round's scheduled crashes, compacts the active
// lists, and resets the per-round staging of every live node. All work is
// O(live frontier + crashes this round).
//
//dgp:hotpath
func (st *state) beginRound(round int) {
	st.run.round = round
	if st.trace != nil {
		st.trace.Emit(obs.Event{Type: obs.EvRoundStart, Round: round, Value: int64(st.activeCount)})
	}
	for st.crashNext < len(st.crashSched) && st.crashSched[st.crashNext].round <= round {
		i := int(st.crashSched[st.crashNext].node)
		st.crashNext++
		if !st.frontier.test(i) {
			continue
		}
		// Crash takes effect: the node silently leaves the computation.
		st.frontier.clear(i)
		st.activeCount--
		e := &st.envs[i]
		e.outs, e.dst, e.bcast = nil, nil, nil
		if st.trace != nil {
			st.trace.Emit(obs.Event{Type: obs.EvCrash, Round: round, Node: e.id})
		}
	}
	k := 0
	for _, si := range st.actByIdx {
		i := int(si)
		if !st.frontier.test(i) {
			continue
		}
		st.actByIdx[k] = si
		k++
		st.terminatedThisSend[i] = false
	}
	st.actByIdx = st.actByIdx[:k]
	k = 0
	for _, si := range st.actByID {
		if st.frontier.test(int(si)) {
			st.actByID[k] = si
			k++
		}
	}
	st.actByID = st.actByID[:k]
}

// searchIDs returns the position of id in the ascending slice a, or len(a)
// if absent (caller re-checks the value). Hand-rolled so the send hot path
// never allocates a comparison closure.
//
//dgp:hotpath
func searchIDs(a []int, id int) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// callSend invokes machine i's Send with panic containment: a panic is
// recorded as a per-node ErrMachinePanic instead of unwinding into the
// engine (or a pool worker goroutine, which would crash the process), and
// returns no messages.
//
//dgp:hotpath
func (st *state) callSend(i int) (outs []Out) {
	defer func() {
		if r := recover(); r != nil {
			st.errs[i] = fmt.Errorf("%w: node %d, round %d, Send: %v",
				ErrMachinePanic, st.envs[i].id, st.run.round, r)
		}
	}()
	return st.mach[i].Send(&st.envs[i])
}

// receivePhase hands node i its inbox region, with callSend's panic
// containment. An Env.Fail lands in st.errs directly.
//
//dgp:hotpath
func (st *state) receivePhase(i int) {
	if st.terminatedThisSend[i] {
		return
	}
	e := &st.envs[i]
	e.inReceive = true
	defer func() {
		e.inReceive = false
		if r := recover(); r != nil {
			st.errs[i] = fmt.Errorf("%w: node %d, round %d, Receive: %v",
				ErrMachinePanic, e.id, st.run.round, r)
		}
	}()
	st.mach[i].Receive(e, st.inMsgs[st.inOff[i]:st.inFill[i]])
}

//dgp:hotpath
func (st *state) sendPhase(i int) {
	e := &st.envs[i]
	e.bcastSet = false
	e.bcast = nil
	e.outs = nil
	outs := st.callSend(i)
	if st.errs[i] != nil {
		// A panic, or an Env.Fail during Send.
		return
	}
	if e.bcastSet {
		if len(outs) > 0 {
			st.errs[i] = fmt.Errorf("%w: node %d mixed Env.Broadcast with returned sends", ErrProtocol, e.id)
			return
		}
		// The broadcast fast path needs no per-destination validation: the
		// CSR neighbor range, filtered by the mask, is the destination list.
		// One bandwidth check covers every copy.
		if limit := st.cfg.MaxMessageBits; limit > 0 {
			b := MessageBits(e.bcastTag, e.bcast)
			if b < 0 {
				st.errs[i] = fmt.Errorf("%w: node %d sent an unsized payload %T",
					ErrCongestViolation, e.id, e.bcast)
				return
			}
			if b > limit {
				st.errs[i] = fmt.Errorf("%w: node %d sent %d bits (limit %d)",
					ErrCongestViolation, e.id, b, limit)
				return
			}
		}
		if e.terminated {
			st.terminatedThisSend[i] = true
		}
		return
	}
	e.outs = outs
	lo, hi := st.run.off[i], st.run.off[i+1]
	nbIDs, nbIdx := st.run.ids[lo:hi], st.csrNbr[lo:hi]
	dst := e.dst[:0]
	if dst == nil && len(outs) > 0 {
		dst = st.dstWindow(i)
	}
	for _, out := range outs {
		pos := searchIDs(nbIDs, out.To)
		if pos == len(nbIDs) || nbIDs[pos] != out.To {
			st.errs[i] = fmt.Errorf("%w: node %d sent to non-neighbor %d", ErrProtocol, e.ID(), out.To)
			return
		}
		dst = append(dst, nbIdx[pos])
		if limit := st.cfg.MaxMessageBits; limit > 0 {
			b := MessageBits(out.Tag, out.Payload)
			if b < 0 {
				st.errs[i] = fmt.Errorf("%w: node %d sent an unsized payload %T",
					ErrCongestViolation, e.ID(), out.Payload)
				return
			}
			if b > limit {
				st.errs[i] = fmt.Errorf("%w: node %d sent %d bits (limit %d)",
					ErrCongestViolation, e.ID(), b, limit)
				return
			}
		}
	}
	e.dst = dst
	if e.terminated {
		st.terminatedThisSend[i] = true
	}
}

// dstWindow returns node i's empty window of the run's destination slab,
// making the slab on the first call of the run. The window has room for
// one message per neighbor; the full slice expression caps it, so a node
// sending more than that grows into a private array instead of
// overwriting its successor's window. Workers call it concurrently during
// the send phase; the sync.Once makes the slab exactly once.
func (st *state) dstWindow(i int) []int32 {
	st.dstOnce.Do(func() { st.dstSlab = make([]int32, len(st.csrNbr)) })
	lo, hi := st.run.off[i], st.run.off[i+1]
	return st.dstSlab[lo:lo:hi]
}

// account books count delivered copies of a message of b bits (see
// MessageBits): the round and result message ledgers, and the MaxMsgBits /
// LOCAL-only accumulators. One call covers a whole uniform batch.
//
//dgp:hotpath
func (st *state) account(b, count int, res *Result) {
	st.roundMsgs += count
	res.Messages += count
	if b < 0 {
		// An unsized (or tagged-unsized) payload makes the run LOCAL-only.
		st.localOnly = true
		return
	}
	st.roundBits += count * b
	if b > st.maxMsgBits {
		st.maxMsgBits = b
	}
}

// interceptFate is the adversary verdict core of the counting pass: one
// Intercept call for a message of b bits and its fault events, the run's
// only fault ledger. It returns the delivered copy count (0 = dropped),
// the delivered size, and swap, the replacement payload (nil when
// untouched), which recordFate keeps for the placement pass. A replacement
// is delivered untagged, so it is sized as an untagged payload.
//
//dgp:hotpath
func (st *state) interceptFate(round, from, j int, payload Payload, b int) (int, int, Payload) {
	tr := st.trace
	to := st.envs[j].id
	fate := st.adv.Intercept(round, from, to, payload, b)
	if fate.Drop {
		// Dropped traffic is booked only by its fault event, never into
		// Messages/Bits: the bandwidth numbers stay delivery-only.
		if tr != nil {
			tr.Emit(obs.Event{Type: obs.EvFault, Round: round, Node: from, Name: "drop", Value: int64(max(b, 0)), Aux: int64(to)})
		}
		return 0, b, nil
	}
	var swap Payload
	if fate.Payload != nil {
		b = MessageBits(0, fate.Payload)
		swap = fate.Payload
		if tr != nil {
			tr.Emit(obs.Event{Type: obs.EvFault, Round: round, Node: from, Name: "corrupt", Aux: int64(to)})
		}
	}
	copies := 1
	if fate.Extra > 0 {
		copies += fate.Extra
		if tr != nil {
			tr.Emit(obs.Event{Type: obs.EvFault, Round: round, Node: from, Name: "duplicate", Value: int64(fate.Extra), Aux: int64(to)})
		}
	}
	return copies, b, swap
}

//dgp:hotpath
func (st *state) endRound(round int, res *Result) {
	if st.trace != nil {
		st.drainNotes(round)
	}
	for _, si := range st.actByIdx {
		i := int(si)
		e := &st.envs[i]
		if e.terminated {
			st.frontier.clear(i)
			st.activeCount--
			res.Outputs[i] = e.output
			res.TerminatedAt[i] = round
			res.Rounds = round
			if st.trace != nil {
				st.trace.Emit(outputEvent(round, e))
			}
			// Release the settled node's routing references; its frontier bit
			// stays clear for the rest of the run.
			e.outs, e.dst, e.bcast = nil, nil, nil
		}
	}
}

// outputEvent builds the decision-commit event for a node terminating this
// round: integer outputs ride in Value, anything else is named by type.
func outputEvent(round int, e *Env) obs.Event {
	ev := obs.Event{Type: obs.EvOutput, Round: round, Node: e.id}
	switch v := e.output.(type) {
	case int:
		ev.Value = int64(v)
	case bool:
		if v {
			ev.Value = 1
		}
	default:
		ev.Text = fmt.Sprintf("%T", e.output)
	}
	return ev
}

// drainNotes flushes the machines' staged annotations as span events, in
// node-index order over the live frontier. It runs on the main goroutine
// strictly after a phase barrier, which is what makes worker-goroutine
// staging race-free and the emission order identical across engine modes.
//
//dgp:hotpath
func (st *state) drainNotes(round int) {
	for _, si := range st.actByIdx {
		id := st.envs[si].id
		for _, nt := range st.run.notes[si] {
			st.trace.Emit(obs.Event{Type: obs.EvSpan, Round: round, Node: id, Name: nt.Name, Value: nt.Value})
		}
		st.run.notes[si] = st.run.notes[si][:0]
	}
}

// firstError returns the first per-node error in node-index order (actByIdx
// is index-sorted, so the reported error is deterministic across modes).
//
//dgp:hotpath
func (st *state) firstError() error {
	for _, si := range st.actByIdx {
		if err := st.errs[si]; err != nil {
			return err
		}
	}
	return nil
}

// phase executes one send or receive phase, under the round deadline when
// one is configured. On a deadline hit the phase goroutine is abandoned (a
// wedged machine cannot be preempted) and the run aborts with a diagnostic;
// the abandoned goroutine may still be mid-dispatch on the worker set, so
// the workers are abandoned (leaked) with it rather than closed underneath
// it — a deadline abort is terminal by contract.
func (st *state) phase(cmd phaseCmd, round int, name string) error {
	if st.cfg.RoundDeadline <= 0 {
		st.runPhase(cmd)
		return nil
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		st.runPhase(cmd)
	}()
	timer := time.NewTimer(st.cfg.RoundDeadline)
	defer timer.Stop()
	select {
	case <-done:
		return nil
	case <-timer.C:
		st.abandoned = true
		return fmt.Errorf("%w: %s phase of round %d ran past %v (%d nodes active); abandoning the run",
			ErrRoundDeadline, name, round, st.cfg.RoundDeadline, st.activeCount)
	}
}
