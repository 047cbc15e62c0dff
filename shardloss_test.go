package repro_test

import (
	"testing"

	"repro"
)

// Shard-loss chaos: a whole shard of the partition goes dark at a scheduled
// round, and RunProblemWithRecovery heals exactly the lost region. The key locality
// property pinned here is that the recovery cost tracks the shard boundary,
// not the graph: growing n at a fixed shard size leaves the residual and the
// recovery rounds unchanged.

// TestShardLossRecoveryTracksBoundary loses one 80-node shard of a ring at
// round 2 and heals MIS with clean-run predictions. The ring
// grows 4x (240 -> 960) while the shard size stays 80; residual and recovery
// rounds must stay flat.
func TestShardLossRecoveryTracksBoundary(t *testing.T) {
	const shardSize = 80
	type outcome struct {
		n, residual, recoveryRounds int
	}
	var got []outcome
	for _, tc := range []struct{ n, s int }{{240, 3}, {480, 6}, {960, 12}} {
		g := repro.Ring(tc.n)
		// Predictions from a clean run: alive nodes settle in O(1) rounds, so
		// the carve isolates the crashed shard instead of the whole graph.
		clean, err := repro.RunProblem(g, "mis", "simple", nil, repro.Options{})
		if err != nil {
			t.Fatalf("clean run n=%d: %v", tc.n, err)
		}
		part := repro.ContiguousPartition(tc.n, tc.s)
		chaos := repro.NewChaos(repro.ChaosPolicy{
			Partition:  part,
			LoseShards: map[int]int{1: 2}, // shard 1 = nodes 80..159 in every size
		})
		res, err := repro.RunProblemWithRecovery(g, "mis", clean.Output, repro.Options{
			MaxRounds: 300,
			Shards:    tc.s,
			Partition: part,
			Adversary: chaos,
		})
		if err != nil {
			t.Fatalf("n=%d: RunProblemWithRecovery: %v", tc.n, err)
		}
		if stats := chaos.Stats(); stats.LostShards != 1 || stats.Crashed != shardSize {
			t.Fatalf("n=%d: chaos stats %+v, want LostShards=1 Crashed=%d", tc.n, stats, shardSize)
		}
		if !res.Healed {
			t.Fatalf("n=%d: recovery did not heal (valid=%v, primaryErr=%v)", tc.n, res.Valid, res.PrimaryErr)
		}
		checkMIS(t, g, res.Output)
		if res.PrimaryRounds > 10 {
			t.Errorf("n=%d: primary took %d rounds; predictions should settle alive nodes fast", tc.n, res.PrimaryRounds)
		}
		// The carve may keep or demote a handful of boundary nodes, but the
		// residual must bracket the lost shard, not the graph.
		if res.Residual < shardSize-10 || res.Residual > shardSize+10 {
			t.Errorf("n=%d: residual %d does not track the shard size %d", tc.n, res.Residual, shardSize)
		}
		got = append(got, outcome{n: tc.n, residual: res.Residual, recoveryRounds: res.RecoveryRounds})
	}
	// Flatness: the same shard was lost in every run, so the recovery cost
	// must not grow with n.
	base := got[0]
	for _, o := range got[1:] {
		if o.residual != base.residual {
			t.Errorf("residual varies with n: n=%d got %d, n=%d got %d", base.n, base.residual, o.n, o.residual)
		}
		if diff := o.recoveryRounds - base.recoveryRounds; diff < -4 || diff > 4 {
			t.Errorf("recovery rounds scale with n: n=%d took %d, n=%d took %d",
				base.n, base.recoveryRounds, o.n, o.recoveryRounds)
		}
	}
	// And the cost is on the order of the shard, far below the largest graph.
	if max := got[len(got)-1]; max.recoveryRounds > 2*shardSize {
		t.Errorf("recovery rounds %d exceed 2x shard size %d", max.recoveryRounds, shardSize)
	}
}

// TestShardLossSeededRecovery exercises the seeded ShardLoss path end to end:
// random shards go dark, chaos stats count them, and healing still produces a
// valid MIS.
func TestShardLossSeededRecovery(t *testing.T) {
	g := repro.Ring(200)
	part := repro.ContiguousPartition(200, 10)
	clean, err := repro.RunProblem(g, "mis", "simple", nil, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chaos := repro.NewChaos(repro.ChaosPolicy{
		Seed:        17,
		Partition:   part,
		ShardLoss:   0.3,
		ShardLossBy: 4,
	})
	res, err := repro.RunProblemWithRecovery(g, "mis", clean.Output, repro.Options{
		MaxRounds: 300,
		Shards:    10,
		Partition: part,
		Adversary: chaos,
	})
	if err != nil {
		t.Fatalf("RunProblemWithRecovery: %v", err)
	}
	stats := chaos.Stats()
	if stats.LostShards == 0 {
		t.Fatal("seed 17 lost no shards; pick another seed for a live test")
	}
	if stats.Crashed != stats.LostShards*20 {
		t.Fatalf("crashed %d nodes for %d lost 20-node shards", stats.Crashed, stats.LostShards)
	}
	if res.Valid {
		t.Fatal("run with lost shards verified without healing")
	}
	if !res.Healed {
		t.Fatalf("recovery did not heal (primaryErr=%v)", res.PrimaryErr)
	}
	checkMIS(t, g, res.Output)
}
