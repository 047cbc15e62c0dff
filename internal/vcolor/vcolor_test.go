package vcolor_test

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/predict"
	"repro/internal/runtime"
	"repro/internal/vcolor"
	"repro/internal/verify"
)

func runVColor(t *testing.T, g *graph.Graph, factory runtime.Factory, preds []int) *runtime.Result {
	t.Helper()
	var anyPreds []any
	if preds != nil {
		anyPreds = make([]any, len(preds))
		for i, p := range preds {
			anyPreds[i] = p
		}
	}
	res, err := runtime.Run(runtime.Config{Graph: g, Factory: factory, Predictions: anyPreds})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := make([]int, g.N())
	for i, o := range res.Outputs {
		v, ok := o.(int)
		if !ok {
			t.Fatalf("node %d output %v (%T)", g.ID(i), o, o)
		}
		out[i] = v
	}
	if err := verify.VColor(g, out); err != nil {
		t.Fatalf("invalid coloring: %v", err)
	}
	return res
}

func testGraphs() map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(19))
	return map[string]*graph.Graph{
		"single":   graph.Line(1),
		"pair":     graph.Line(2),
		"line20":   graph.Line(20),
		"ring21":   graph.Ring(21),
		"star10":   graph.Star(10),
		"clique6":  graph.Clique(6),
		"grid6x6":  graph.Grid2D(6, 6),
		"gnp32":    graph.GNP(32, 0.15, rng),
		"tree27":   graph.RandomTree(27, rng),
		"shuffled": graph.ShuffleIDs(graph.Ring(24), 240, rng),
	}
}

func TestLinialStandalone(t *testing.T) {
	for name, g := range testGraphs() {
		t.Run(name, func(t *testing.T) {
			res := runVColor(t, g, vcolor.Solo(vcolor.LinialStandalone()), nil)
			want := vcolor.Rounds(g.D(), g.MaxDegree())
			if res.Rounds != want {
				t.Errorf("rounds = %d, want exactly %d", res.Rounds, want)
			}
		})
	}
}

func TestMeasureUniformSolo(t *testing.T) {
	for name, g := range testGraphs() {
		t.Run(name, func(t *testing.T) {
			res := runVColor(t, g, vcolor.Solo(vcolor.MeasureUniform(0)), nil)
			if res.Rounds > g.N() {
				t.Errorf("rounds %d > n = %d", res.Rounds, g.N())
			}
		})
	}
}

func TestVColorConsistency(t *testing.T) {
	for name, g := range testGraphs() {
		preds := predict.PerfectVColor(g)
		t.Run(name, func(t *testing.T) {
			res := runVColor(t, g, vcolor.SimpleGreedy(), preds)
			if res.Rounds > 2 {
				t.Errorf("consistency: got %d rounds, want <= 2", res.Rounds)
			}
			for i, o := range res.Outputs {
				if o.(int) != preds[i] {
					t.Errorf("node %d output %v, prediction %d", g.ID(i), o, preds[i])
				}
			}
		})
	}
}

func TestVColorTemplatesAcrossErrors(t *testing.T) {
	factories := map[string]runtime.Factory{
		"simple-greedy":      vcolor.SimpleGreedy(),
		"simple-base":        vcolor.SimpleBase(),
		"simple-linial":      vcolor.SimpleLinial(),
		"consecutive-linial": vcolor.ConsecutiveLinial(),
	}
	rng := rand.New(rand.NewSource(47))
	for gname, g := range testGraphs() {
		for _, k := range []int{0, 1, 3, g.N()} {
			preds := predict.PerturbVColor(g, predict.PerfectVColor(g), k, rng)
			for fname, f := range factories {
				t.Run(gname+"/"+fname, func(t *testing.T) {
					runVColor(t, g, f, preds)
				})
			}
		}
	}
}

func TestVColorDegradation(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for gname, g := range testGraphs() {
		for _, k := range []int{0, 1, 2, 4} {
			preds := predict.PerturbVColor(g, predict.PerfectVColor(g), k, rng)
			active := predict.VColorBaseActive(g, preds)
			eta1 := predict.Eta1(predict.ErrorComponents(g, active))
			res := runVColor(t, g, vcolor.SimpleGreedy(), preds)
			if limit := eta1 + 2; res.Rounds > limit {
				t.Errorf("%s k=%d: rounds %d > eta1+2 = %d", gname, k, res.Rounds, limit)
			}
		}
	}
}

func TestScheduleProperties(t *testing.T) {
	for _, d := range []int{1, 2, 7, 16, 100, 1000, 100000} {
		for _, delta := range []int{0, 1, 2, 3, 8, 20} {
			steps, kStar := vcolor.Schedule(d, delta)
			if delta == 0 {
				if kStar != 1 || len(steps) != 0 {
					t.Errorf("d=%d delta=0: kStar=%d steps=%d", d, kStar, len(steps))
				}
				continue
			}
			k := d
			for _, s := range steps {
				if s.K != k {
					t.Errorf("step K=%d, want %d", s.K, k)
				}
				if s.Q < delta*s.T+1 {
					t.Errorf("q=%d < delta*t+1=%d", s.Q, delta*s.T+1)
				}
				if s.Q*s.Q >= k {
					t.Errorf("step applied with q^2=%d >= k=%d (no progress)", s.Q*s.Q, k)
				}
				k = s.Q * s.Q
			}
			if k != kStar {
				t.Errorf("kStar=%d, want %d", kStar, k)
			}
			if len(steps) > 10 {
				t.Errorf("d=%d delta=%d: %d steps, want O(log* d)", d, delta, len(steps))
			}
		}
	}
}

// TestRoundsMatchesSchedule pins Rounds, which walks the schedule without
// building it, to the bound the built schedule gives: one round per step,
// one per color the final reduction eliminates, and at least one.
func TestRoundsMatchesSchedule(t *testing.T) {
	for _, d := range []int{1, 2, 7, 16, 100, 1000, 2000, 100000} {
		for delta := 0; delta <= 40; delta++ {
			steps, kStar := vcolor.Schedule(d, delta)
			want := len(steps) + max(kStar-(delta+1), 0)
			want = max(want, 1)
			if got := vcolor.Rounds(d, delta); got != want {
				t.Errorf("Rounds(%d, %d) = %d; the schedule gives %d", d, delta, got, want)
			}
		}
	}
}
