// Package runtime implements the paper's computational model (Section 2): a
// synchronous message-passing system in which each node of a graph is a
// nonfaulty process. In each round, every active node first decides which
// messages to send to its neighbors (based on its state at the end of the
// previous round), then receives all messages sent to it this round, performs
// local computation, optionally assigns its output, and terminates
// immediately after producing its last output.
//
// The engine has one execution path (see shard.go): every phase cuts the
// one frontier into contiguous chunks for one worker set, with a barrier
// between phases, and every delivery lands in one shared inbox arena. A run
// without Config.Shards/Config.Partition is one shard; with S >= 2 shards
// the partition labels the per-shard delivery ledgers, and the placement
// chunks write every delivery, across the partition cut included, at slots
// fixed by a serial counting pass. Config.Parallel cuts every phase into
// more chunks for more workers (created once per run, signalled each
// phase). Every shard count and Parallel setting is deterministic and
// produces byte-identical results and traces; golden digests, tests and
// FuzzShardParity assert this. Engine buffers (the inbox arena, routing
// state, replay streams) are recycled across rounds, so steady-state rounds
// allocate nothing in the engine itself.
//
// Message sizes are accounted when payloads implement BitSized, allowing
// CONGEST-model bandwidth checks for the algorithms that fit in O(log n) bits.
//
// A node sends either the []Out its Send returns, each message checked
// against its neighbor list, or one broadcast batch staged with
// Env.Broadcast or Env.BroadcastMasked: one payload and tag for every
// neighbor a mask over its sorted neighbor list selects. The engine routes
// a batch by walking the node's CSR neighbor range, with one size lookup
// per batch, and delivers exactly what the equivalent []Out would deliver.
// Each node keeps its static information once: NodeInfo is assembled on
// demand (Env.Info) from the node's id and index and the run's shared
// constants.
//
// Every message carries a Tag header next to its payload (Out.Tag or the
// batch's tag, copied through placement into Msg.Tag). The engine never interprets a tag; the
// template combinators (internal/core) use it to multiplex their stages and
// lanes onto one network without boxing payloads. A nonzero tag costs
// TagBits in the message's size (see MessageBits), which is the size every
// ledger, the MaxMessageBits check and Adversary.Intercept's bits argument
// see. An adversary that corrupts a message (Fate.Payload; fault.Garbage
// keeps the reported size) delivers the replacement with Tag 0, so a
// corrupted tagged message reads as untagged.
package runtime

import (
	"fmt"
)

// Payload is the content of a message. In the LOCAL model payloads may be
// arbitrarily large; payloads that implement BitSized additionally permit
// CONGEST accounting.
type Payload = any

// BitSized is implemented by payloads that can report their encoded size in
// bits, enabling CONGEST-model bandwidth accounting.
type BitSized interface {
	Bits() int
}

// Msg is a message delivered to a node. From is the sender's identifier and
// Tag the sender's Out.Tag (0 for untagged and for corrupted deliveries).
type Msg struct {
	From    int
	Tag     uint32
	Payload Payload
}

// Out is a message a node asks the engine to send. To is a neighbor's
// identifier; sending to a non-neighbor is a protocol error. Tag is an
// optional header (0 means untagged) that the engine copies through to the
// delivered Msg; a nonzero tag adds TagBits to the message's size.
type Out struct {
	To      int
	Tag     uint32
	Payload Payload
}

// TagBits is the size in bits a nonzero Tag adds to a message.
const TagBits = 8

// MessageBits returns the size in bits of a message with the given tag and
// payload, as every engine ledger and the MaxMessageBits check see it: the
// payload's BitSized size, plus TagBits when the message is tagged. It is -1
// when the payload does not implement BitSized, which makes the run
// LOCAL-only; a tagged payload reporting -1 itself is sized TagBits-1.
//
//dgp:hotpath
func MessageBits(tag uint32, payload Payload) int {
	bs, ok := payload.(BitSized)
	if !ok {
		return -1
	}
	b := bs.Bits()
	if tag != 0 {
		b += TagBits
	}
	return b
}

// NodeInfo is the static information a node knows at the start of the
// computation, per the paper's model: its identifier, its neighbors'
// identifiers, n, d, and the maximum degree Δ.
type NodeInfo struct {
	// Index is the node's index in the underlying graph (engine-internal;
	// algorithms should not base decisions on it).
	Index int
	// ID is the node's distinct identifier in {1, ..., D}.
	ID int
	// NeighborIDs lists the identifiers of adjacent nodes, ascending.
	NeighborIDs []int
	// N is the number of nodes in the graph.
	N int
	// D is the upper bound on identifiers.
	D int
	// Delta is the maximum degree of the graph.
	Delta int
}

// Degree returns the node's own degree.
func (ni NodeInfo) Degree() int { return len(ni.NeighborIDs) }

// Machine is the per-node state machine of a distributed algorithm.
//
// Each round the engine calls Send exactly once on every active node, routes
// the returned messages, and then calls Receive exactly once on every node
// that is still active (a node that terminated during Send is not handed the
// round's inbox; by the model it has already assigned all its outputs).
type Machine interface {
	// Send decides the messages to transmit this round. It may call
	// env.Output and env.Terminate; if it terminates, the returned messages
	// are still delivered this round but Receive is skipped.
	Send(env *Env) []Out
	// Receive processes the messages delivered this round and updates state.
	// It may call env.Output and env.Terminate. The inbox slice is owned by
	// the engine and reused across rounds; copy it (not just re-slice it) to
	// retain messages beyond the call. Payload values themselves are never
	// reused by the engine.
	Receive(env *Env, inbox []Msg)
}

// Factory creates the machine for one node, given its static information and
// its prediction (nil when the algorithm takes no predictions).
//
// The engine calls a run's factory exactly once per node, in index order
// (info.Index 0, 1, ..., N-1), on the goroutine that called Run, before
// round 1 — on every engine mode, sharded or not. Factories may rely on
// it: the template layer carves a run's per-node state from slabs made at
// node 0 and released after node N-1 (core.NodeSlab).
type Factory func(info NodeInfo, prediction any) Machine

// Note is one machine-emitted trace annotation staged via Env.Annotate:
// a name (by convention prefixed, e.g. "stage:" for template stages) and a
// numeric value (budget metadata, lane index, ...).
type Note struct {
	Name  string
	Value int64
}

// runInfo is what every node of a run shares: the static n, d, Δ and the
// identifier-sorted CSR offsets and neighbor identifiers, plus the run's
// per-round and per-run columns. Env keeps a pointer to it instead of a
// NodeInfo copy per node; Env.Info assembles a node's NodeInfo from it when
// asked.
type runInfo struct {
	n, d, delta int
	off         []int32
	ids         []int
	// round is the current round (1-based), set once per round by the
	// engine before the send phase.
	round int
	// errs is the run's per-node error column (state.errs): Env.fail records
	// node i's first error at errs[i]. Each Env is owned by exactly one
	// worker per phase, so the writes need no lock; the engine reads the
	// column after the phase barrier.
	errs []error
	// notes stages every node's annotations for the round, indexed by node
	// index. It is made only when a trace recorder is attached (nil means
	// tracing is off). Machine code may append via Annotate from a pool
	// worker goroutine — under the same one-owner rule as errs — and the
	// engine drains it on the main goroutine after the phase barrier, in
	// node-index order.
	notes [][]Note
}

// Env is the per-node environment handed to Machine methods. It exposes the
// node's static information, the current round, and output/termination.
// It keeps only what differs between nodes; run-wide state (the round, the
// error column, trace notes) lives in the shared runInfo.
type Env struct {
	run    *runInfo
	id     int
	output any
	// outs/dst stage the node's validated outbox for the routing passes:
	// outs is the slice returned by Send, dst the destination node indices
	// resolved during validation. dst is a window of one CSR-sized slab the
	// engine makes at the run's first non-empty []Out (nil until then, and
	// for a run that only broadcasts), so it grows only for a node sending
	// more messages than it has neighbors. bcast, bcastTag and bcastMask
	// stage a broadcast batch (BroadcastMasked) instead, bcastSet marks one
	// staged this round, and inReceive guards the broadcast path against
	// receive-phase calls.
	outs      []Out
	dst       []int32
	bcast     Payload
	bcastMask bitset
	// index (NodeInfo.Index), bcastTag and the flags sit together so the
	// Env packs into few words: one Env per node is the engine's largest
	// per-node allocation.
	index      int32
	bcastTag   uint32
	hasOutput  bool
	terminated bool
	bcastSet   bool
	inReceive  bool
}

// Info returns the node's static information. It is assembled from the
// run's shared constants on each call; NeighborIDs is a view the caller
// must not modify.
func (e *Env) Info() NodeInfo {
	r := e.run
	lo, hi := r.off[e.index], r.off[e.index+1]
	return NodeInfo{
		Index:       int(e.index),
		ID:          e.id,
		NeighborIDs: r.ids[lo:hi:hi],
		N:           r.n,
		D:           r.d,
		Delta:       r.delta,
	}
}

// ID returns the node's identifier.
func (e *Env) ID() int { return e.id }

// Round returns the current round number (1-based).
func (e *Env) Round() int { return e.run.round }

// Output assigns (or overwrites) the node's output value. Per the model a
// node may produce outputs over several rounds (e.g. edge colorings); the
// value observed at termination is the node's final output.
//
//dgp:hotpath
func (e *Env) Output(v any) {
	if e.terminated {
		e.fail(fmt.Errorf("%w: output after termination", ErrProtocol))
		return
	}
	e.output = v
	e.hasOutput = true
}

// HasOutput reports whether Output has been called.
func (e *Env) HasOutput() bool { return e.hasOutput }

// Terminate marks the node as terminated at the end of the current round.
// A node must have produced an output before terminating.
//
//dgp:hotpath
func (e *Env) Terminate() {
	if !e.hasOutput {
		e.fail(fmt.Errorf("%w: terminate without output", ErrProtocol))
		return
	}
	e.terminated = true
}

// Terminated reports whether the node has terminated.
func (e *Env) Terminated() bool { return e.terminated }

// Fail records a protocol error; the engine aborts the run and surfaces the
// first recorded error. Composed machines use this to report violations such
// as lockstep breaks or running past the final stage.
func (e *Env) Fail(err error) { e.fail(err) }

// Tracing reports whether a trace recorder is attached to the run. Callers
// that build annotation strings should guard on it so the disabled-tracing
// path stays allocation-free.
func (e *Env) Tracing() bool { return e.run.notes != nil }

// Annotate stages a trace annotation for this node; the engine emits it as
// a span event at the end of the round (or discards it when tracing is
// off). Safe to call from Send/Receive in both engine modes; annotations
// surface in deterministic node-index order regardless of Config.Parallel.
//
//dgp:hotpath
func (e *Env) Annotate(name string, value int64) {
	// The append sits on the tracing-only branch, which ends the call: the
	// disabled-tracing path is the nil check alone.
	if notes := e.run.notes; notes != nil {
		notes[e.index] = append(notes[e.index], Note{Name: name, Value: value})
		return
	}
}

// Broadcast asks the engine to deliver payload to every neighbor this
// round, without materializing a per-neighbor []Out: the untagged, unmasked
// case of BroadcastMasked. It delivers what returning one Out per neighbor
// from Send would, without allocating them. Template stages reach it
// through core.StageCtx.Broadcast.
//
//dgp:hotpath
func (e *Env) Broadcast(payload Payload) { e.BroadcastMasked(0, nil, payload) }

// BroadcastMasked asks the engine to deliver payload under tag (see
// Out.Tag) to the neighbors mask selects: bit k of word k/64 selects
// position k of the node's ascending NeighborIDs, and a nil mask selects
// every neighbor. A non-nil mask has exactly ⌈degree/64⌉ words; bits past
// the degree are ignored. The engine walks the node's CSR neighbor range
// directly, with one size check for the batch, and reads mask while it
// routes the round, so the caller keeps it unchanged until its next Send.
// Call it from Send (at most once per round) and return nil; calling it
// from Receive, twice in a round, or alongside returned sends, or with a
// mask of the wrong length, is a protocol error.
//
//dgp:hotpath
func (e *Env) BroadcastMasked(tag uint32, mask []uint64, payload Payload) {
	if e.inReceive {
		e.fail(fmt.Errorf("%w: Broadcast called during Receive", ErrProtocol))
		return
	}
	if e.bcastSet {
		e.fail(fmt.Errorf("%w: Broadcast called twice in one round", ErrProtocol))
		return
	}
	if mask != nil {
		deg := int(e.run.off[e.index+1] - e.run.off[e.index])
		if len(mask) != (deg+63)/64 {
			e.fail(fmt.Errorf("%w: broadcast mask of %d words for %d neighbors", ErrProtocol, len(mask), deg))
			return
		}
	}
	e.bcast, e.bcastTag, e.bcastMask = payload, tag, mask
	e.bcastSet = true
}

// fail records err as the node's error in the run's error column, unless
// the node already has one: the first error of a node is the one reported.
func (e *Env) fail(err error) {
	if errs := e.run.errs; errs[e.index] == nil {
		errs[e.index] = fmt.Errorf("node %d round %d: %w", e.id, e.run.round, err)
	}
}
