package runtime

// Adversary is the engine's fault-injection hook (the chaos layer). A
// non-nil Config.Adversary is consulted once per in-flight message during
// routing and may drop it, deliver extra copies, or corrupt its payload,
// unless it is marked crash-only (CrashOnly). Its crash schedule is
// the run's only one; fault.Schedule is the fault-free, crash-only
// adversary for a fixed schedule.
//
// Determinism contract: the engine calls Crashes exactly once at the start
// of Run and then calls Intercept from a single goroutine, in the engine's
// routing order (senders by ascending identifier; each sender's returned
// []Out in slice order, its broadcast batch in ascending neighbor
// identifier order) — an order that is identical for every shard count and
// pool setting. An adversary that derives its decisions deterministically from
// that call sequence (e.g. a seeded PRNG, see internal/runtime/fault)
// therefore injects byte-for-byte identical faults in every engine
// configuration. Because the
// call sequence is consumed statefully, an adversary value is single-run:
// create a fresh one per Run.
type Adversary interface {
	// Crashes returns the run's crash schedule for an n-node graph: node
	// index to the 1-based round at the start of which the node crashes.
	// From that round on the node sends nothing, receives nothing, and never
	// outputs. It may return nil. Every index must be in [0, n) and every
	// round >= 1; anything else is a config error (ErrConfig).
	Crashes(n int) map[int]int
	// Intercept returns the fate of one message about to be delivered in
	// the given round. from and to are node identifiers; bits is the
	// message's size, MessageBits(tag, payload), so a tagged message counts
	// its header (-1 when the payload is unsized). It is only called for
	// messages that would otherwise be delivered (the destination is
	// active), never for messages the model already discards.
	Intercept(round, from, to int, payload Payload, bits int) Fate
}

// Fate is an adversary's verdict on one in-flight message.
type Fate struct {
	// Drop discards the message entirely; the remaining fields are ignored.
	Drop bool
	// Extra is the number of additional identical copies delivered
	// immediately after the original (message duplication). Negative values
	// are treated as zero.
	Extra int
	// Payload, when non-nil, replaces the delivered payload (corruption on
	// the wire). Every delivered copy — and the engine's per-message bit
	// accounting — uses the replacement, delivered with Tag 0: the header is
	// corrupted with the payload.
	Payload Payload
}

// CrashOnly is an optional Adversary extension, a marker for adversaries
// that only supply a crash schedule. The engine never calls Intercept on
// one, so the run routes exactly as without an adversary — one size lookup
// per broadcast batch and no fate streams — and injects the same faults:
// none. fault.Schedule implements it.
type CrashOnly interface {
	CrashOnly()
}
