// Package fault implements seeded, reproducible chaos policies for the
// round engine: an Adversary (see internal/runtime) that drops, duplicates,
// and corrupts messages, fails links permanently, and crashes nodes, all
// driven by a single PRNG so that one seed reproduces one exact fault
// schedule.
//
// Determinism: the engine consults the adversary on its single routing
// goroutine in an order that is identical in sequential and pool mode, so a
// Chaos with the same Policy injects byte-for-byte identical faults in both
// modes. A Chaos value is single-run — its PRNG and link table are consumed
// by the run. Build a fresh one (same Policy) to replay or to compare engine
// modes.
package fault

import (
	"math/rand"
	"sort"

	"repro/internal/runtime"
	"repro/internal/shard"
)

// DefaultHorizon is the default latest round for seeded crash and link
// failures when the policy leaves the horizon zero.
const DefaultHorizon = 8

// Policy describes a chaos schedule. All probabilities are per-event in
// [0, 1]: Drop/Duplicate/Corrupt per delivered message, LinkFail per
// undirected link (once, on first use), Crash per node (once, at run start).
type Policy struct {
	// Seed drives every decision; the same Policy value reproduces the same
	// fault schedule exactly.
	Seed int64
	// Drop is the probability a message is discarded in transit.
	Drop float64
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
	// Corrupt is the probability a message's payload is replaced by Garbage
	// of the same bit size. Only size-accounted (BitSized) payloads are
	// corrupted; unsized payloads pass through.
	Corrupt float64
	// LinkFail is the probability an undirected link fails permanently at a
	// seeded round in [1, LinkFailBy]; from that round on it delivers
	// nothing in either direction.
	LinkFail float64
	// LinkFailBy is the latest round a failing link can go down
	// (DefaultHorizon when zero).
	LinkFailBy int
	// Crash is the probability a node crashes at a seeded round in
	// [1, CrashBy].
	Crash float64
	// CrashBy is the latest round a crashing node can die (DefaultHorizon
	// when zero).
	CrashBy int
	// Partition, when non-nil, enables shard-level faults: whole shards of
	// the attached partition going dark (every node of the shard crashing at
	// the same round). LoseShards schedules them explicitly — shard index to
	// 1-based crash round — and ShardLoss draws additional losses at random:
	// each shard independently goes dark with that probability at a seeded
	// round in [1, ShardLossBy] (DefaultHorizon when zero). Shard-loss
	// crashes merge with per-node Crash draws; the earlier round wins.
	Partition   *shard.Partition
	LoseShards  map[int]int
	ShardLoss   float64
	ShardLossBy int
}

// Schedule is a fixed crash schedule as a fault-free runtime.Adversary:
// node index to the 1-based round at the start of which the node crashes.
// It never touches a message, so unlike Chaos it holds no run state and one
// value may serve any number of runs.
type Schedule map[int]int

// Crashes implements runtime.Adversary: the schedule itself.
func (s Schedule) Crashes(n int) map[int]int { return s }

// Intercept implements runtime.Adversary: every message is delivered as sent.
func (Schedule) Intercept(round, from, to int, payload runtime.Payload, bits int) runtime.Fate {
	return runtime.Fate{}
}

// CrashOnly marks Schedule as a runtime.CrashOnly adversary: the engine
// never consults it about a message, so crash-only runs route as fast as
// runs without an adversary.
func (Schedule) CrashOnly() {}

// Stats counts the faults a Chaos actually injected.
type Stats struct {
	// Dropped counts discarded messages, including those lost to failed
	// links.
	Dropped int
	// Duplicated counts messages delivered with an extra copy.
	Duplicated int
	// Corrupted counts messages whose payload was replaced by Garbage.
	Corrupted int
	// FailedLinks counts undirected links scheduled to fail.
	FailedLinks int
	// Crashed counts nodes scheduled to crash, including nodes lost with
	// their shard.
	Crashed int
	// LostShards counts whole shards scheduled to go dark (explicit
	// LoseShards entries plus seeded ShardLoss draws).
	LostShards int
}

// Garbage is the corrupted-payload stand-in: an unrecognizable payload that
// preserves the original message's bit size (a tagged message's header
// included), so CONGEST accounting is unchanged while every algorithm-level
// type switch fails to recognize it. The engine delivers it untagged, so
// the template combinators reject it as an untagged message.
type Garbage struct {
	// Size is the original payload's size in bits.
	Size int
	// Salt distinguishes independent corruptions (seeded, reproducible).
	Salt int64
}

// Bits implements runtime.BitSized.
func (g Garbage) Bits() int { return g.Size }

// Chaos is a seeded runtime.Adversary implementing Policy. Single-run; see
// the package comment.
type Chaos struct {
	p     Policy
	rng   *rand.Rand
	links map[[2]int]int // undirected link -> failure round (0 = healthy)
	stats Stats
}

// New returns a fresh Chaos for one run of the given policy.
func New(p Policy) *Chaos {
	return &Chaos{
		p:     p,
		rng:   rand.New(rand.NewSource(p.Seed)),
		links: make(map[[2]int]int),
	}
}

// Crashes implements runtime.Adversary: each node independently crashes
// with probability Policy.Crash at a seeded round in [1, CrashBy], and —
// when a Partition is attached — whole shards go dark per the LoseShards
// schedule and the seeded ShardLoss draws. Per-node draws happen first, in
// node order, then shard draws in shard order, so enabling shard loss never
// perturbs an existing seed's per-node schedule. When a node is claimed by
// both, the earlier crash round wins.
func (c *Chaos) Crashes(n int) map[int]int {
	var out map[int]int
	if c.p.Crash > 0 {
		by := c.p.CrashBy
		if by < 1 {
			by = DefaultHorizon
		}
		for i := 0; i < n; i++ {
			if c.rng.Float64() < c.p.Crash {
				if out == nil {
					out = make(map[int]int)
				}
				out[i] = 1 + c.rng.Intn(by)
				c.stats.Crashed++
			}
		}
	}
	if part := c.p.Partition; part != nil {
		// Explicit schedule first (shards ascending, for a deterministic
		// draw-free order), then the seeded draws.
		shards := make([]int, 0, len(c.p.LoseShards))
		for s := range c.p.LoseShards {
			shards = append(shards, s)
		}
		sort.Ints(shards)
		for _, s := range shards {
			out = c.loseShard(out, part, s, c.p.LoseShards[s])
		}
		if c.p.ShardLoss > 0 {
			by := c.p.ShardLossBy
			if by < 1 {
				by = DefaultHorizon
			}
			for s := 0; s < part.S; s++ {
				if c.rng.Float64() < c.p.ShardLoss {
					out = c.loseShard(out, part, s, 1+c.rng.Intn(by))
				}
			}
		}
	}
	return out
}

// loseShard schedules every node of shard s to crash at round, merging with
// any existing schedule (earlier round wins) and booking the stats. Nodes
// newly claimed count as crashed; a shard with no nodes still counts as
// lost.
func (c *Chaos) loseShard(out map[int]int, part *shard.Partition, s, round int) map[int]int {
	if s < 0 || s >= part.S {
		return out
	}
	c.stats.LostShards++
	for i, sh := range part.Of {
		if int(sh) != s {
			continue
		}
		if out == nil {
			out = make(map[int]int)
		}
		cur, seen := out[i]
		if !seen {
			c.stats.Crashed++
		}
		if !seen || round < cur {
			out[i] = round
		}
	}
	return out
}

// Intercept implements runtime.Adversary. Decisions draw from the policy's
// single PRNG in call order; each probability consumes a draw only when it
// is enabled, so a policy's draw sequence is a function of the policy alone.
// A corruption replaces a sized message (bits >= 0) with Garbage of the
// same size, tag header included.
func (c *Chaos) Intercept(round, from, to int, payload runtime.Payload, bits int) runtime.Fate {
	if c.p.LinkFail > 0 {
		key := [2]int{from, to}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		failAt, seen := c.links[key]
		if !seen {
			failAt = 0
			if c.rng.Float64() < c.p.LinkFail {
				by := c.p.LinkFailBy
				if by < 1 {
					by = DefaultHorizon
				}
				failAt = 1 + c.rng.Intn(by)
				c.stats.FailedLinks++
			}
			c.links[key] = failAt
		}
		if failAt != 0 && round >= failAt {
			c.stats.Dropped++
			return runtime.Fate{Drop: true}
		}
	}
	if c.p.Drop > 0 && c.rng.Float64() < c.p.Drop {
		c.stats.Dropped++
		return runtime.Fate{Drop: true}
	}
	var fate runtime.Fate
	if c.p.Corrupt > 0 && c.rng.Float64() < c.p.Corrupt {
		if bits >= 0 {
			fate.Payload = Garbage{Size: bits, Salt: c.rng.Int63()}
			c.stats.Corrupted++
		}
	}
	if c.p.Duplicate > 0 && c.rng.Float64() < c.p.Duplicate {
		fate.Extra = 1
		c.stats.Duplicated++
	}
	return fate
}

// Stats reports the faults injected so far.
func (c *Chaos) Stats() Stats { return c.stats }
