package fault

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/runtime"
	"repro/internal/shard"
)

type sized int

func (s sized) Bits() int { return int(s) }

// TestChaosDeterminism: two Chaos instances built from the same policy give
// identical verdicts on the same call sequence — the property the engine
// relies on for seq/pool parity.
func TestChaosDeterminism(t *testing.T) {
	policy := Policy{
		Seed: 42, Drop: 0.2, Duplicate: 0.15, Corrupt: 0.1,
		LinkFail: 0.1, Crash: 0.2,
	}
	a, b := New(policy), New(policy)
	if ca, cb := a.Crashes(50), b.Crashes(50); !reflect.DeepEqual(ca, cb) {
		t.Fatalf("crash schedules differ: %v vs %v", ca, cb)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		round := 1 + rng.Intn(10)
		from, to := 1+rng.Intn(20), 1+rng.Intn(20)
		payload := sized(8 + rng.Intn(8))
		fa := a.Intercept(round, from, to, payload, payload.Bits())
		fb := b.Intercept(round, from, to, payload, payload.Bits())
		if !reflect.DeepEqual(fa, fb) {
			t.Fatalf("call %d: fates differ: %+v vs %+v", i, fa, fb)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", a.Stats(), b.Stats())
	}
	s := a.Stats()
	if s.Dropped == 0 || s.Duplicated == 0 || s.Corrupted == 0 {
		t.Fatalf("expected every enabled fault shape to fire over 2000 calls: %+v", s)
	}
}

func TestChaosCrashesValid(t *testing.T) {
	c := New(Policy{Seed: 3, Crash: 0.5, CrashBy: 4})
	sched := c.Crashes(100)
	if len(sched) == 0 {
		t.Fatal("expected some crashes at rate 0.5")
	}
	for i, r := range sched {
		if i < 0 || i >= 100 {
			t.Fatalf("crash index %d out of range", i)
		}
		if r < 1 || r > 4 {
			t.Fatalf("crash round %d outside [1, 4]", r)
		}
	}
	if c.Stats().Crashed != len(sched) {
		t.Fatalf("Crashed stat %d != schedule size %d", c.Stats().Crashed, len(sched))
	}
}

// TestLinkFailurePermanent: once a link fails, every later message on it —
// in both directions — is dropped.
func TestLinkFailurePermanent(t *testing.T) {
	c := New(Policy{Seed: 1, LinkFail: 1.0, LinkFailBy: 3})
	// Probe the link until past its failure round.
	failed := -1
	for round := 1; round <= 4; round++ {
		fate := c.Intercept(round, 5, 9, sized(4), 4)
		if fate.Drop && failed == -1 {
			failed = round
		}
		if failed != -1 && !fate.Drop {
			t.Fatalf("link healed at round %d after failing at %d", round, failed)
		}
	}
	if failed == -1 || failed > 3 {
		t.Fatalf("link should have failed by round 3, failed at %d", failed)
	}
	// Reverse direction shares the link's fate.
	if !(c.Intercept(4, 9, 5, sized(4), 4).Drop) {
		t.Fatal("reverse direction not affected by link failure")
	}
	if c.Stats().FailedLinks != 1 {
		t.Fatalf("FailedLinks = %d, want 1", c.Stats().FailedLinks)
	}
}

func TestGarbagePreservesBits(t *testing.T) {
	c := New(Policy{Seed: 2, Corrupt: 1.0})
	fate := c.Intercept(1, 1, 2, sized(13), 13)
	g, ok := fate.Payload.(Garbage)
	if !ok {
		t.Fatalf("expected Garbage payload, got %T", fate.Payload)
	}
	if g.Bits() != 13 {
		t.Fatalf("Garbage.Bits() = %d, want 13 (size-preserving)", g.Bits())
	}
	// Unsized payloads pass through uncorrupted.
	if fate := c.Intercept(1, 1, 2, "local-only", -1); fate.Payload != nil {
		t.Fatalf("unsized payload corrupted: %+v", fate)
	}
}

// Compile-time checks: Chaos satisfies the engine's Adversary interface,
// and Schedule is a crash-only one.
var (
	_ runtime.Adversary = (*Chaos)(nil)
	_ runtime.Adversary = Schedule(nil)
	_ runtime.CrashOnly = Schedule(nil)
)

// TestShardLossExplicit: an explicit LoseShards schedule crashes exactly the
// shard's nodes at the given round, draw-free, and books the stats.
func TestShardLossExplicit(t *testing.T) {
	part := shard.Contiguous(12, 3) // shards of 4: [0..3], [4..7], [8..11]
	c := New(Policy{Seed: 1, Partition: part, LoseShards: map[int]int{1: 2}})
	out := c.Crashes(12)
	if len(out) != 4 {
		t.Fatalf("crashed %d nodes, want 4: %v", len(out), out)
	}
	for i := 4; i <= 7; i++ {
		if out[i] != 2 {
			t.Fatalf("node %d crashes at %d, want 2 (map %v)", i, out[i], out)
		}
	}
	if s := c.Stats(); s.LostShards != 1 || s.Crashed != 4 {
		t.Fatalf("stats = %+v, want LostShards=1 Crashed=4", s)
	}
	// Out-of-range shard indices are ignored.
	c2 := New(Policy{Seed: 1, Partition: part, LoseShards: map[int]int{7: 1, -1: 1}})
	if out := c2.Crashes(12); out != nil {
		t.Fatalf("out-of-range shards crashed nodes: %v", out)
	}
}

// TestShardLossSeedStability: attaching an explicit (draw-free) shard-loss
// schedule must not perturb the per-node crash draws of an existing seed.
func TestShardLossSeedStability(t *testing.T) {
	base := Policy{Seed: 42, Crash: 0.3, CrashBy: 6}
	plain := New(base).Crashes(30)
	part := shard.Contiguous(30, 3) // shard 2 = nodes 20..29
	withLoss := base
	withLoss.Partition = part
	withLoss.LoseShards = map[int]int{2: 9}
	merged := New(withLoss).Crashes(30)
	for i := 0; i < 20; i++ {
		pr, pok := plain[i]
		mr, mok := merged[i]
		if pok != mok || pr != mr {
			t.Fatalf("node %d schedule perturbed: plain (%d,%v) vs merged (%d,%v)", i, pr, pok, mr, mok)
		}
	}
	// Earlier round wins when a node is claimed by both.
	for i := 20; i < 30; i++ {
		want := 9
		if pr, ok := plain[i]; ok && pr < want {
			want = pr
		}
		if merged[i] != want {
			t.Fatalf("node %d merged round %d, want %d (plain %v)", i, merged[i], want, plain[i])
		}
	}
}

// TestShardLossSeeded: ShardLoss draws are reproducible and bounded by
// ShardLossBy.
func TestShardLossSeeded(t *testing.T) {
	part := shard.Contiguous(40, 8)
	p := Policy{Seed: 9, Partition: part, ShardLoss: 0.5, ShardLossBy: 3}
	a, b := New(p).Crashes(40), New(p).Crashes(40)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seeded shard loss not reproducible: %v vs %v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("ShardLoss=0.5 over 8 shards lost nothing; pick another seed")
	}
	for i, r := range a {
		if r < 1 || r > 3 {
			t.Fatalf("node %d crash round %d outside [1, ShardLossBy=3]", i, r)
		}
	}
	if len(a)%5 != 0 {
		t.Fatalf("crashed node count %d is not a multiple of the shard size 5", len(a))
	}
}
