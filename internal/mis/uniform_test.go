package mis_test

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/mis"
	"repro/internal/predict"
	"repro/internal/runtime"
	"repro/internal/verify"
)

// runUniform runs the Δ-doubling algorithm with its adaptive round cap.
func runUniform(t *testing.T, g *graph.Graph, preds []int) *runtime.Result {
	t.Helper()
	var anyPreds []any
	if preds != nil {
		anyPreds = make([]any, len(preds))
		for i, p := range preds {
			anyPreds[i] = p
		}
	}
	info := runtime.NodeInfo{N: g.N(), D: g.D(), Delta: g.MaxDegree()}
	res, err := runtime.Run(runtime.Config{
		Graph:       g,
		Factory:     mis.SimpleUniform(),
		Predictions: anyPreds,
		MaxRounds:   mis.UniformMaxRounds(info),
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := make([]int, g.N())
	for i, o := range res.Outputs {
		out[i] = o.(int)
	}
	if err := verify.MIS(g, out); err != nil {
		t.Fatalf("invalid MIS: %v", err)
	}
	return res
}

func TestUniformProducesMIS(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	cases := map[string]*graph.Graph{
		"single":  graph.Line(1),
		"line20":  graph.Line(20),
		"ring15":  graph.Ring(15),
		"star16":  graph.Star(16),
		"clique9": graph.Clique(9),
		"grid6x6": graph.Grid2D(6, 6),
		"gnp50":   graph.GNP(50, 0.1, rng),
		"tree40":  graph.RandomTree(40, rng),
	}
	for name, g := range cases {
		for _, k := range []int{0, 2, g.N()} {
			preds := predict.FlipBits(predict.PerfectMIS(g), k, rng)
			t.Run(name, func(t *testing.T) {
				runUniform(t, g, preds)
			})
		}
	}
}

// TestUniformDependsOnLocalDegree is the paper's point in the second Simple
// example: the reference's round complexity is a function of the maximum
// degree inside the error components, not of the global Δ. We attach a huge
// perfectly-predicted star (Δ = 400) to a badly-predicted ring (Δ' = 2): the
// star terminates in the initialization and the remaining work only sees
// degree 2, so the rounds stay near the Δ' = 2 cost even as the star grows.
func TestUniformDependsOnLocalDegree(t *testing.T) {
	ringPreds := predict.Uniform(24, 1) // all-ones: the whole ring errs
	base := -1
	for _, starSize := range []int{50, 200, 400} {
		star := graph.Star(starSize)
		ring := graph.Ring(24)
		g := graph.DisjointUnion(star, ring)
		preds := append(predict.PerfectMIS(star), ringPreds...)
		res := runUniform(t, g, preds)
		if base < 0 {
			base = res.Rounds
		}
		// The identifier domain d grows with the star, nudging the Linial
		// schedule length by a couple of rounds; the point is that rounds do
		// NOT scale with Δ (which would be in the hundreds here).
		if diff := res.Rounds - base; diff < -8 || diff > 8 {
			t.Errorf("star %d: rounds %d far from %d — depends on global Δ", starSize, res.Rounds, base)
		}
	}
	if base > 60 {
		t.Errorf("rounds %d too large for a Δ'=2 error component", base)
	}
}

func TestTradeoffKnob(t *testing.T) {
	// Validity across λ values and prediction quality.
	rng := rand.New(rand.NewSource(92))
	g := graph.GNP(60, 0.08, rng)
	for _, lambda := range []float64{0, 0.1, 0.5, 1, 2} {
		for _, k := range []int{0, 5, g.N()} {
			preds := predict.FlipBits(predict.PerfectMIS(g), k, rng)
			var anyPreds []any
			anyPreds = make([]any, len(preds))
			for i, p := range preds {
				anyPreds[i] = p
			}
			res, err := runtime.Run(runtime.Config{
				Graph:       g,
				Factory:     mis.ConsecutiveTradeoff(lambda, 7),
				Predictions: anyPreds,
				MaxRounds:   64 * g.N(),
			})
			if err != nil {
				t.Fatalf("lambda=%v k=%d: %v", lambda, k, err)
			}
			out := make([]int, g.N())
			for i, o := range res.Outputs {
				out[i] = o.(int)
			}
			if err := verify.MIS(g, out); err != nil {
				t.Fatalf("lambda=%v k=%d: %v", lambda, k, err)
			}
			if k == 0 && res.Rounds > 3 {
				t.Errorf("lambda=%v: consistency broken (%d rounds)", lambda, res.Rounds)
			}
		}
	}
}

// duplicateAll is an adversary that delivers every message twice. It
// counts the uColor messages it is asked about per round, sender and
// receiver, so a test can see a repeated destination in one batch.
type duplicateAll struct {
	colors map[[3]int]int
}

func (*duplicateAll) Crashes(int) map[int]int { return nil }

func (a *duplicateAll) Intercept(round, from, to int, p runtime.Payload, _ int) runtime.Fate {
	if _, ok := p.(mis.UColor); ok {
		a.colors[[3]int{round, from, to}]++
	}
	return runtime.Fate{Extra: 1}
}

// TestUniformUnderDuplication runs the Δ-doubling algorithm with every
// message delivered twice: a participant hears each participating
// neighbor's announcement twice but lists that neighbor once, so no
// coloring round sends one neighbor two uColor messages, and the run still
// ends in an MIS.
func TestUniformUnderDuplication(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for name, g := range map[string]*graph.Graph{
		"ring15":  graph.Ring(15),
		"grid6x6": graph.Grid2D(6, 6),
		"gnp50":   graph.GNP(50, 0.1, rng),
	} {
		info := runtime.NodeInfo{N: g.N(), D: g.D(), Delta: g.MaxDegree()}
		adv := &duplicateAll{colors: map[[3]int]int{}}
		res, err := runtime.Run(runtime.Config{
			Graph:     g,
			Factory:   mis.SimpleUniform(),
			Adversary: adv,
			MaxRounds: mis.UniformMaxRounds(info),
		})
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		if len(adv.colors) == 0 {
			t.Fatalf("%s: no uColor message was sent; the case checks nothing", name)
		}
		for k, n := range adv.colors {
			if n > 1 {
				t.Fatalf("%s: round %d: node %d sent node %d %d uColor messages", name, k[0], k[1], k[2], n)
			}
		}
		out := make([]int, g.N())
		for i, o := range res.Outputs {
			out[i] = o.(int)
		}
		if err := verify.MIS(g, out); err != nil {
			t.Fatalf("%s: invalid MIS: %v", name, err)
		}
	}
}
