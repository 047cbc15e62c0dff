// Package runtime implements the paper's computational model (Section 2): a
// synchronous message-passing system in which each node of a graph is a
// nonfaulty process. In each round, every active node first decides which
// messages to send to its neighbors (based on its state at the end of the
// previous round), then receives all messages sent to it this round, performs
// local computation, optionally assigns its output, and terminates
// immediately after producing its last output.
//
// The engine has one execution path: every run is S lanes (see shard.go),
// each running the per-node send and receive phases over its own nodes with
// a barrier between phases. A run without Config.Shards/Config.Partition is
// one lane; with S >= 2 the lanes exchange boundary-edge message batches at
// the round barrier. Config.Parallel gives every lane a persistent pool of
// goroutines (created once per run, signalled each phase). Every lane count
// and pool setting is deterministic and produces byte-identical results and
// traces; golden digests, tests and FuzzShardParity assert this. Engine buffers
// (inboxes, routing state, lane slabs, exchange frames) are recycled across
// rounds, so steady-state rounds allocate nothing in the engine itself.
//
// Message sizes are accounted when payloads implement BitSized, allowing
// CONGEST-model bandwidth checks for the algorithms that fit in O(log n) bits.
//
// Every message carries a Tag header next to its payload (Out.Tag, copied
// through placement into Msg.Tag). The engine never interprets a tag; the
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

// Env is the per-node environment handed to Machine methods. It exposes the
// node's static information, the current round, and output/termination.
type Env struct {
	info       NodeInfo
	round      int
	output     any
	hasOutput  bool
	terminated bool
	err        error
	// tracing mirrors "a trace recorder is attached"; notes stages this
	// node's annotations for the round. Machine code may append via
	// Annotate from a pool worker goroutine — each Env is owned by exactly
	// one worker per phase — and the engine drains the buffer on the main
	// goroutine after the phase barrier, in node-index order.
	tracing bool
	notes   []Note
	// outs/dst stage the node's validated outbox for the routing passes:
	// outs is the slice returned by Send, dst the destination node indices
	// resolved during validation (cut from one CSR-sized slab in newState,
	// so it grows only for a node sending more messages than it has
	// neighbors). bcast/bcastSet
	// stage an Env.Broadcast payload instead; inReceive guards Broadcast
	// against receive-phase calls.
	outs      []Out
	dst       []int32
	bcast     Payload
	bcastSet  bool
	inReceive bool
}

// Info returns the node's static information.
func (e *Env) Info() NodeInfo { return e.info }

// ID returns the node's identifier.
func (e *Env) ID() int { return e.info.ID }

// Round returns the current round number (1-based).
func (e *Env) Round() int { return e.round }

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

// CurrentOutput returns the most recently assigned output (nil if none).
func (e *Env) CurrentOutput() any { return e.output }

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
func (e *Env) Tracing() bool { return e.tracing }

// Annotate stages a trace annotation for this node; the engine emits it as
// a span event at the end of the round (or discards it when tracing is
// off). Safe to call from Send/Receive in both engine modes; annotations
// surface in deterministic node-index order regardless of Config.Parallel.
//
//dgp:hotpath
func (e *Env) Annotate(name string, value int64) {
	if !e.tracing {
		return
	}
	e.notes = append(e.notes, Note{Name: name, Value: value})
}

// Broadcast asks the engine to deliver payload to every neighbor this
// round, without materializing a per-neighbor []Out. It is the zero-
// allocation counterpart of returning Broadcast(env.Info(), payload) from
// Send: the engine walks the node's CSR neighbor range directly. Call it
// from Send (at most once per round) and return nil; calling it from
// Receive, twice in a round, or alongside returned sends is a protocol
// error.
//
//dgp:hotpath
func (e *Env) Broadcast(payload Payload) {
	if e.inReceive {
		e.fail(fmt.Errorf("%w: Broadcast called during Receive", ErrProtocol))
		return
	}
	if e.bcastSet {
		e.fail(fmt.Errorf("%w: Broadcast called twice in one round", ErrProtocol))
		return
	}
	e.bcast = payload
	e.bcastSet = true
}

func (e *Env) fail(err error) {
	if e.err == nil {
		e.err = fmt.Errorf("node %d round %d: %w", e.info.ID, e.round, err)
	}
}

// Broadcast builds one Out per neighbor carrying payload, in a new slice.
// Template stages use core.StageCtx.Broadcast instead, which rebuilds a
// per-node outbox in place.
func Broadcast(info NodeInfo, payload Payload) []Out {
	outs := make([]Out, len(info.NeighborIDs))
	for i, nb := range info.NeighborIDs {
		outs[i] = Out{To: nb, Payload: payload}
	}
	return outs
}
