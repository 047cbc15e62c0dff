// Package obs is the repository's observability layer: a deterministic,
// allocation-conscious trace recorder and a lightweight metrics registry.
//
// The paper's claims are quantitative bounds on rounds, messages, and error
// measures; auditing them needs more than a flat per-round callback. The
// engine (internal/runtime), the template combinators (internal/core), the
// healing machinery (internal/heal), and the registry run path (package
// repro) all emit typed events into a Recorder when one is attached:
// round start/end, per-node output commits, per-sender message batches with
// bit sizes, adversary faults, watchdog deadlines, template-stage spans with
// budget metadata, heal carve/re-run phases, and η snapshots.
//
// Determinism contract: every event is emitted from the engine's main
// goroutine (or from single-goroutine wrapper code above it), in an order
// that is identical in sequential and pool engine mode. The only
// nondeterministic field is DurNS, the wall-clock duration; Canonical
// (export.go) zeroes it, after which two traces of the same seeded run are
// byte-identical across engine modes — a property the parity tests and the
// CI trace-golden step pin.
//
// Cost contract: with no Recorder attached, the instrumented paths reduce
// to a nil check (the engine, and Env.Annotate on its notes column); the
// disabled-tracing path stays inside the steady-state allocation budget of
// internal/runtime's TestSteadyStateAllocBudget.
package obs

import (
	"sync"
	"time"
)

// EventType names the kind of one trace event. The values are stable wire
// strings: they appear verbatim in JSONL exports and dgp-trace filters.
type EventType string

// The event taxonomy. See DESIGN.md §9 for the field conventions of each.
const (
	// EvRunStart opens one engine run. Value = node count, Aux = edge count.
	EvRunStart EventType = "run-start"
	// EvRunEnd closes one engine run. Value = last executed round,
	// Aux = delivered messages; Err is set when the run aborted.
	EvRunEnd EventType = "run-end"
	// EvRoundStart opens a round. Value = active node count.
	EvRoundStart EventType = "round-start"
	// EvRoundEnd closes a round. Value = delivered messages, Aux = delivered
	// payload bits, DurNS = wall time; Err is set on a terminal round (the
	// round in which the run aborted — contained panic, deadline, protocol
	// violation, CONGEST violation).
	EvRoundEnd EventType = "round-end"
	// EvCrash marks a scheduled crash taking effect. Node = identifier.
	EvCrash EventType = "crash"
	// EvFault is one adversary intervention. Name = drop | corrupt |
	// duplicate; Node = sender identifier, Aux = destination identifier,
	// Value = dropped payload bits (drop) or extra copies (duplicate).
	EvFault EventType = "fault"
	// EvBatch summarizes one sender's deliveries in a round. Node = sender
	// identifier, Value = messages delivered, Aux = payload bits.
	EvBatch EventType = "msg-batch"
	// EvOutput is a per-node decision commit: the node terminated with its
	// final output this round. Value = the output when it is an int;
	// otherwise Text names its type.
	EvOutput EventType = "output"
	// EvSpan is a machine-emitted annotation (Env.Annotate), drained by the
	// engine in node-index order at the end of the round: template stage and
	// lane transitions, with Value carrying budget metadata.
	EvSpan EventType = "span"
	// EvDeadline marks a round-deadline watchdog hit. Name = phase.
	EvDeadline EventType = "deadline"
	// EvPhase is a wrapper-level phase marker (heal: primary, valid,
	// recovery, healed).
	EvPhase EventType = "phase"
	// EvCarve reports a heal carve: Value = residual (undecided nodes),
	// Aux = decided outputs the carve demoted.
	EvCarve EventType = "carve"
	// EvEta is an error-measure snapshot. Name labels the phase (input,
	// residual, healed); Text carries the measure summary, Value a scalar.
	EvEta EventType = "eta"
	// EvMeta labels the run. Name = "problem/algorithm"; Text carries extras.
	EvMeta EventType = "meta"
	// EvSession marks dynamic-session lifecycle. Name = open | close;
	// Value = node count (open) or applied batches (close); Aux = edge count
	// (open) or total recovery rounds (close); Text = problem name.
	EvSession EventType = "session"
	// EvUpdate is one update batch's outcome in a dynamic session.
	// Name = applied | duplicate | rejected; Node = batch sequence number;
	// Value = update count; Aux = nodes whose adjacency actually changed;
	// Err = rejection cause.
	EvUpdate EventType = "update"
	// EvShardExchange is one shard's delivery ledger for a round of a
	// multi-shard run. Node = the shard index (not a node identifier);
	// Name = delivered | injected | boundary; Value = messages, Aux = their
	// sized payload bits. "delivered"/"injected" ledger traffic arriving at
	// the shard, "boundary" traffic it exported across the cut. Ledgers are
	// shard-count-dependent by nature, so the cross-shard-count trace parity
	// contract compares streams with EvShardExchange filtered out.
	EvShardExchange EventType = "shard-exchange"
	// EvRetry marks a failed incremental step escalating one rung on the
	// degradation ladder. Name = the next rung (widen | full); Value = the
	// 0-based attempt that failed; Err = the failure cause (an aborted run or
	// an invalid healed output).
	EvRetry EventType = "retry"
	// EvTruncated marks a ring-buffer wrap: the recorder overwrote Value
	// events before the oldest one it still holds. It is synthesized by
	// Events() as the first returned event whenever the ring dropped
	// anything, so exports, summaries, and parity diffs see the truncation
	// explicitly instead of silently analyzing a partial window.
	EvTruncated EventType = "truncated"
)

// Event is one trace record. The struct is flat and field meanings are
// per-type (documented on the EventType constants) so that recording is one
// ring-buffer store with no allocation, and JSONL export needs no schema.
type Event struct {
	// Type is the event kind.
	Type EventType `json:"t"`
	// Round is the 1-based round number; 0 for run-level events.
	Round int `json:"r,omitempty"`
	// Node is the node identifier (identifiers are 1-based; 0 = not
	// node-scoped).
	Node int `json:"n,omitempty"`
	// Name is the type-specific label (stage name, fault kind, phase).
	Name string `json:"name,omitempty"`
	// Value is the type-specific primary magnitude.
	Value int64 `json:"v,omitempty"`
	// Aux is the type-specific secondary magnitude.
	Aux int64 `json:"aux,omitempty"`
	// Text is free-form type-specific text (η summaries, output types).
	Text string `json:"text,omitempty"`
	// Err records the error of a terminal event.
	Err string `json:"err,omitempty"`
	// DurNS is a wall-clock duration in nanoseconds. It is the only
	// nondeterministic field; Canonical zeroes it for parity comparison.
	DurNS int64 `json:"dur,omitempty"`
}

// DefaultCapacity is the ring capacity NewRecorder uses for capacity <= 0.
const DefaultCapacity = 1 << 16

// Recorder is a fixed-capacity ring buffer of events. When the ring is
// full the oldest event is overwritten and the drop is counted, so long
// runs keep their most recent window instead of growing without bound.
//
// Emit is safe for concurrent use, though the engine's determinism contract
// means all emitters in this repository run on one goroutine per run.
type Recorder struct {
	mu      sync.Mutex
	buf     []Event
	start   int
	n       int
	dropped uint64
}

// NewRecorder returns a recorder holding at most capacity events
// (DefaultCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{buf: make([]Event, capacity)}
}

// Emit records one event, overwriting the oldest when the ring is full.
func (r *Recorder) Emit(e Event) {
	r.mu.Lock()
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = e
		r.n++
	} else {
		r.buf[r.start] = e
		r.start = (r.start + 1) % len(r.buf)
		r.dropped++
	}
	r.mu.Unlock()
}

// Events returns the recorded events, oldest first, as a fresh slice. When
// the ring has wrapped, the slice begins with a synthesized EvTruncated
// marker carrying the overwrite count in Value, so consumers cannot mistake
// the surviving window for the whole run: summaries surface it as a loud
// warning and trace-parity diffs fail when only one side wrapped.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.n+1)
	if r.dropped > 0 {
		out = append(out, Event{Type: EvTruncated, Value: int64(r.dropped)})
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.start+i)%len(r.buf)])
	}
	return out
}

// Len returns the number of events currently held.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns how many events the ring overwrote.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Reset discards all recorded events and the drop count.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.start, r.n, r.dropped = 0, 0, 0
	r.mu.Unlock()
}

// Now returns the wall-clock time for observational instrumentation: trace
// durations and metrics timestamps. It exists so that wall-clock reads in
// the deterministic packages funnel through this one audited package, which
// the seededrand analyzer exempts by a package-scoped policy
// (analysis.ObservationalClockPkgs) instead of per-line allow directives.
// The returned value must only ever decorate observational records — it
// must never feed back into scheduling, routing, or algorithm state.
func Now() time.Time { return time.Now() }

// Since returns the elapsed wall-clock time since t; see Now for the
// observational-use-only contract.
func Since(t time.Time) time.Duration { return time.Since(t) }
