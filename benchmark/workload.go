package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro"
	"repro/internal/graph"
	"repro/internal/heal"
	"repro/internal/problem"
	engine "repro/internal/runtime"
	"repro/internal/shard"
)

// size fixes the input scale. The command line always runs fullSize; the
// package test runs the same workload code at a tiny size.
type size struct {
	// ba is the node count of the Barabási–Albert graph (ba-* workloads).
	ba int
	// ring is the node count of the ring (ring-matching).
	ring int
}

var fullSize = size{ba: 100_000, ring: 50_000}

const (
	// baAttach is the Barabási–Albert attachment count m.
	baAttach = 3
	// batchDeletes and batchInserts make up one session update batch.
	batchDeletes = 4
	batchInserts = 4
)

// workload is one named input family. setup generates one child's inputs
// from the run seed and the child index; the code under test sees only the
// generated graph, predictions and update batches.
type workload struct {
	name   string
	inputs string
	// repeats reports that every op runs on the same input, so every op
	// (traced or not) must return the same digest.
	repeats bool
	setup   func(sz size, seed int64, child int, tr *tracer) (instance, error)
}

// instance is one child's generated input, ready to run ops on.
type instance interface {
	// prepare readies the next op's input. Untimed.
	prepare() error
	// op runs one operation through the public repro API. Timed.
	op() error
	// tracedOp runs the same operation layer by layer with spans, and
	// returns the wall time of the span that corresponds to op.
	tracedOp(tr *tracer) (time.Duration, error)
	// outcome describes the last op. Untimed.
	outcome() opResult
	// check runs the distributed checker on the last result. Untimed.
	check() error
	// nodes is the graph's node count.
	nodes() int
}

// opResult identifies an op's output: a digest of the output vector, the
// rounds and the messages.
type opResult struct {
	Digest   uint64 `json:"digest"`
	Rounds   int    `json:"rounds"`
	Messages int    `json:"messages"`
}

var workloads = []workload{
	{
		name:    "ba-mis",
		inputs:  "RunProblem(mis, simple) on BarabasiAlbert(n=100000, m=3), PerfectMIS flipped at n/10 positions, sequential engine",
		repeats: true,
		setup:   solveSetup("mis", repro.Options{}),
	},
	{
		name:    "ba-mis-sharded",
		inputs:  "the ba-mis inputs with Options{Shards: 2, Parallel: true}",
		repeats: true,
		setup:   solveSetup("mis", repro.Options{Shards: 2, Parallel: true}),
	},
	{
		name:    "ring-matching",
		inputs:  "RunProblem(matching, simple) on Ring(50000), PerfectMatching perturbed at n/100 nodes",
		repeats: true,
		setup:   solveSetup("matching", repro.Options{}),
	},
	{
		name:    "ba-session",
		inputs:  "NewSession(mis) on the ba-mis graph, then Session.Apply of batches of 4 deletes of initial edges and 4 inserts joining two MIS nodes",
		repeats: false,
		setup:   sessionSetup,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// deriveSeed gives each input stream of a run its own seed. Streams that
// two workloads share (the BA graph, the MIS predictions) use the same
// label, so ba-mis and ba-mis-sharded solve identical inputs.
func deriveSeed(seed int64, stream string, child int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, child)
	return int64(h.Sum64() >> 1)
}

func digest(out []int, rounds, messages int) opResult {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range out {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	return opResult{Digest: h.Sum64(), Rounds: rounds, Messages: messages}
}

func buildGraph(problemName string, sz size, seed int64) *repro.Graph {
	if problemName == "matching" {
		return repro.Ring(sz.ring)
	}
	return repro.BarabasiAlbert(sz.ba, baAttach, repro.NewRand(deriveSeed(seed, "ba-graph", 0)))
}

// solve is a RunProblem workload: every op solves the same instance.
type solve struct {
	g       *repro.Graph
	problem string
	preds   any
	opts    repro.Options
	last    *repro.ProblemResult
	lastRes opResult
	tel     *repro.Telemetry
}

func solveSetup(problemName string, opts repro.Options) func(size, int64, int, *tracer) (instance, error) {
	return func(sz size, seed int64, child int, tr *tracer) (instance, error) {
		s := &solve{problem: problemName, opts: opts}
		tr.span("graph.build", func() error {
			s.g = buildGraph(problemName, sz, seed)
			return nil
		})
		flips := s.g.N() / 10
		if problemName == "matching" {
			flips = s.g.N() / 100
		}
		err := tr.span("predict.gen", func() (err error) {
			s.preds, err = repro.GeneratePreds(problemName, s.g, flips, deriveSeed(seed, problemName+"-preds", child))
			return err
		})
		if err != nil {
			return nil, err
		}
		if tr != nil {
			s.tel = repro.NewTelemetry(nil)
			if opts.Shards >= 2 {
				tr.add("shard.cut_edges", float64(shard.Contiguous(s.g.N(), opts.Shards).CutEdges(s.g.CSR())))
			}
		}
		return s, nil
	}
}

func (s *solve) prepare() error { return nil }

func (s *solve) nodes() int { return s.g.N() }

func (s *solve) op() error {
	res, err := repro.RunProblem(s.g, s.problem, "simple", s.preds, s.opts)
	if err != nil {
		return err
	}
	s.last = res
	s.lastRes = digest(res.Output, res.Run.Rounds, res.Run.Messages)
	return nil
}

func (s *solve) outcome() opResult { return s.lastRes }

// tracedOp replays RunProblem's generic path one layer at a time: resolve
// and build the algorithm, encode the predictions, run the engine with
// per-round stats and telemetry attached, and finalize (decode and verify).
func (s *solve) tracedOp(tr *tracer) (time.Duration, error) {
	start := time.Now()
	var sol problem.Solution
	var raw *engine.Result
	err := tr.span("solve", func() error {
		d, err := problem.Get(s.problem)
		if err != nil {
			return err
		}
		var aux any
		var factory engine.Factory
		maxRounds := 0
		err = tr.span("problem.build", func() error {
			if d.NewAux != nil {
				if aux, err = d.NewAux(s.g); err != nil {
					return err
				}
			}
			a, err := d.Algorithm("simple")
			if err != nil {
				return err
			}
			if factory, err = a.Build(problem.BuildCtx{Seed: s.opts.Seed, Aux: aux}); err != nil {
				return err
			}
			if a.MaxRounds != nil {
				maxRounds = a.MaxRounds(s.g)
			}
			return nil
		})
		if err != nil {
			return err
		}
		var encoded []any
		err = tr.span("problem.encode", func() (err error) {
			encoded, err = d.EncodePreds(s.preds)
			return err
		})
		if err != nil {
			return err
		}
		var roundsDur time.Duration
		var bits, active, boundary int
		cfg := engine.Config{
			Graph:       s.g,
			Factory:     factory,
			Predictions: encoded,
			Parallel:    s.opts.Parallel,
			Shards:      s.opts.Shards,
			MaxRounds:   maxRounds,
			Telemetry:   s.tel,
			Stats: func(rs engine.RoundStats) {
				roundsDur += rs.Duration
				bits += rs.Bits
				active += rs.Active
				for _, sh := range rs.Shards {
					boundary += sh.BoundaryOut
				}
			},
		}
		before := phaseSums(s.tel)
		m0 := memStats()
		err = tr.span("runtime.run", func() (err error) {
			raw, err = engine.Run(cfg)
			return err
		})
		m1 := memStats()
		if err != nil {
			return err
		}
		after := phaseSums(s.tel)
		for _, phase := range []string{"send", "route", "receive"} {
			tr.add("runtime."+phase+"_s", after[phase]-before[phase])
		}
		tr.add("runtime.rounds_s", roundsDur.Seconds())
		tr.add("runtime.rounds", float64(raw.Rounds))
		tr.add("runtime.messages", float64(raw.Messages))
		tr.add("runtime.bits", float64(bits))
		tr.add("runtime.active_node_rounds", float64(active))
		tr.add("runtime.allocs", float64(m1.Mallocs-m0.Mallocs))
		tr.add("runtime.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		tr.add("shard.boundary_msgs", float64(boundary))

		f0 := memStats()
		err = tr.span("problem.finalize", func() (err error) {
			sol, err = d.Finalize(s.g, aux, raw.Outputs)
			return err
		})
		f1 := memStats()
		tr.add("problem.finalize_allocs", float64(f1.Mallocs-f0.Mallocs))
		return err
	})
	elapsed := time.Since(start)
	if err != nil {
		return elapsed, err
	}
	s.lastRes = digest(sol.Node, raw.Rounds, raw.Messages)
	return elapsed, nil
}

// check runs the problem's distributed checker on the last result. A
// sharded run must also match the sequential engine's output exactly.
func (s *solve) check() error {
	if s.last == nil {
		return errors.New("no untraced op completed")
	}
	if err := checkSolution(s.g, s.problem, s.last); err != nil {
		return err
	}
	if s.opts.Shards < 2 && !s.opts.Parallel {
		return nil
	}
	ref, err := repro.RunProblem(s.g, s.problem, "simple", s.preds, repro.Options{})
	if err != nil {
		return fmt.Errorf("sequential reference: %w", err)
	}
	if got := digest(ref.Output, ref.Run.Rounds, ref.Run.Messages); got != s.lastRes {
		return fmt.Errorf("engine output differs from the sequential engine: %+v vs %+v", s.lastRes, got)
	}
	return nil
}

func checkSolution(g *repro.Graph, problemName string, res *repro.ProblemResult) error {
	cr, err := repro.CheckSolution(g, problemName, res, repro.Options{})
	if err != nil {
		return fmt.Errorf("distributed checker: %w", err)
	}
	if !cr.AllAccept {
		return errors.New("distributed checker rejected the output")
	}
	return nil
}

// session is the ba-session workload: every op applies one update batch.
type session struct {
	sess *repro.Session
	rng  *rand.Rand
	// deletes lists the initial edges in deletion order; next is the cursor.
	deletes [][2]int
	next    int
	batch   repro.UpdateBatch
	rep     repro.SessionStep
	tel     *repro.Telemetry
	spec    heal.Spec
}

func sessionSetup(sz size, seed int64, child int, tr *tracer) (instance, error) {
	s := &session{rng: repro.NewRand(deriveSeed(seed, "session-updates", child))}
	var g *repro.Graph
	tr.span("graph.build", func() error {
		g = buildGraph("mis", sz, seed)
		return nil
	})
	var opts repro.SessionOptions
	if tr != nil {
		s.tel = repro.NewTelemetry(nil)
		opts.Telemetry = s.tel
		d, err := problem.Get("mis")
		if err != nil {
			return nil, err
		}
		if s.spec, err = heal.SpecFor(d); err != nil {
			return nil, err
		}
	}
	err := tr.span("dynamic.open", func() (err error) {
		s.sess, err = repro.NewSession(g, "mis", opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	s.deletes = append([][2]int(nil), g.Edges()...)
	s.rng.Shuffle(len(s.deletes), func(i, j int) { s.deletes[i], s.deletes[j] = s.deletes[j], s.deletes[i] })
	return s, nil
}

// prepare draws the next batch: deletes of initial edges not yet deleted,
// and inserts of non-edges between two nodes of the current MIS. Each
// insert breaks independence, so every step heals.
func (s *session) prepare() error {
	g := s.sess.Graph()
	var inSet []int
	for v, bit := range s.sess.Output() {
		if bit == 1 {
			inSet = append(inSet, v)
		}
	}
	if len(inSet) < 2 || s.next+batchDeletes > len(s.deletes) {
		return errors.New("session update stream exhausted")
	}
	s.batch = repro.UpdateBatch{Seq: s.batch.Seq + 1}
	for _, e := range s.deletes[s.next : s.next+batchDeletes] {
		s.batch.Updates = append(s.batch.Updates, repro.EdgeUpdate{Op: repro.EdgeDelete, U: e[0], V: e[1]})
	}
	s.next += batchDeletes
	for added := 0; added < batchInserts; {
		u, v := inSet[s.rng.Intn(len(inSet))], inSet[s.rng.Intn(len(inSet))]
		if u == v || g.HasEdge(u, v) {
			continue
		}
		s.batch.Updates = append(s.batch.Updates, repro.EdgeUpdate{Op: repro.EdgeInsert, U: u, V: v})
		added++
	}
	return nil
}

func (s *session) nodes() int { return s.sess.Graph().N() }

func (s *session) op() error {
	rep, err := s.sess.Apply(s.batch)
	s.rep = rep
	if err != nil {
		return err
	}
	if rep.Outcome != "applied" {
		return fmt.Errorf("batch %d %s: %v", rep.Seq, rep.Outcome, rep.Err)
	}
	return nil
}

func (s *session) outcome() opResult {
	return digest(s.sess.Output(), s.rep.Rounds, s.rep.Messages)
}

// tracedOp times Apply, then replays three of its steps beside it on the
// same inputs (the pre-step graph and the stale output): the graph patch,
// the whole-graph verify, and the carve. The replays duplicate work that
// Apply already did; they are not part of the op's time.
func (s *session) tracedOp(tr *tracer) (time.Duration, error) {
	pre := s.sess.Graph()
	stale := s.sess.Output()
	before := phaseSums(s.tel)
	start := time.Now()
	err := tr.span("dynamic.apply", s.op)
	elapsed := time.Since(start)
	if err != nil {
		return elapsed, err
	}
	tr.add("dynamic.engine_rounds_s", phaseSums(s.tel)["round"]-before["round"])
	tr.add("dynamic.attempts", float64(s.rep.Attempts))
	if s.rep.Attempts <= 1 && s.rep.Widened == 0 && !s.rep.FullRerun {
		tr.add("dynamic.first_try_ratio", 1)
	}
	post := s.sess.Graph()
	tr.add("dynamic.residual_share", float64(s.rep.Residual)/float64(post.N()))

	var patch graph.Patch
	for _, u := range s.batch.Updates {
		if u.Op == repro.EdgeInsert {
			patch.Insert = append(patch.Insert, [2]int{u.U, u.V})
		} else {
			patch.Delete = append(patch.Delete, [2]int{u.U, u.V})
		}
	}
	var replayed *graph.Graph
	err = tr.span("graph.patch", func() (err error) {
		replayed, _, err = pre.ApplyPatch(patch)
		return err
	})
	if err != nil {
		return elapsed, err
	}
	if !sameEdges(replayed, post) {
		return elapsed, errors.New("replayed patch differs from the session's graph")
	}
	tr.span("heal.verify", func() error {
		// The stale output is expected to fail on the patched graph.
		_ = s.spec.Verify(post, stale)
		return nil
	})
	var residual []int
	tr.span("heal.carve", func() error {
		_, residual = s.spec.Carve(post, stale)
		return nil
	})
	tr.add("heal.residual", float64(len(residual)))
	return elapsed, nil
}

func sameEdges(a, b *repro.Graph) bool {
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		return false
	}
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}

// check runs the distributed MIS checker on the session's final output and
// graph.
func (s *session) check() error {
	return checkSolution(s.sess.Graph(), "mis", &repro.ProblemResult{Output: s.sess.Output()})
}
