// Package bench implements the experiment harness: every quantitative claim
// in the paper (lemma/corollary bounds, the worked figure constructions, the
// Section 10 randomized example) is an experiment that produces a text
// table, and so are the engine, shard, chaos and dynamic-session sweeps,
// which also return a machine-readable perf ledger. DESIGN.md maps
// experiment ids to paper claims; EXPERIMENTS.md records the expected
// ("paper") and measured values. cmd/dgp-bench renders the tables and
// writes the ledgers; the root bench_test.go times the paper experiments.
package bench

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/perf"
)

// Table is one experiment's output: a titled grid of cells plus free-form
// notes (e.g. the bound being checked and whether it held).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case int:
			row[i] = strconv.Itoa(v)
		case float64:
			row[i] = strconv.FormatFloat(v, 'f', 2, 64)
		case bool:
			if v {
				row[i] = "yes"
			} else {
				row[i] = "NO"
			}
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a formatted note line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Params are the run parameters of an experiment. The paper experiments
// (Registry) ignore them; each field names the sweeps that read it.
type Params struct {
	// Nodes are the node counts of the enginestats and scale sweeps.
	Nodes []int
	// Shards are the shard counts of the shards sweep.
	Shards []int
	// Parallel runs the enginestats, scale, shards and dynamic engines with
	// the worker pool.
	Parallel bool
	// Trace, when non-nil, records the events of the enginestats, chaos and
	// dynamic runs; Telemetry adds their per-phase histograms.
	Trace     *obs.Recorder
	Telemetry *obs.Telemetry
}

// Experiment is a named experiment producing tables and, for the sweeps, a
// BENCH ledger named after the experiment id.
type Experiment struct {
	ID    string
	Title string
	Run   func(p Params) ([]*Table, *perf.Ledger, error)
}

// paper adapts a paper experiment, which takes no parameters and returns
// no ledger, to Experiment.Run.
func paper(run func() []*Table) func(Params) ([]*Table, *perf.Ledger, error) {
	return func(Params) ([]*Table, *perf.Ledger, error) { return run(), nil, nil }
}

// Registry returns the paper experiments E1–E22 in order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Greedy MIS measure-uniform bounds (Lemmas 1-2)", Run: paper(E1)},
		{ID: "E2", Title: "Simple Template degradation (Observation 7)", Run: paper(E2)},
		{ID: "E3", Title: "Consecutive Template (Lemma 8)", Run: paper(E3)},
		{ID: "E4", Title: "Interleaved Template (Lemma 9, Corollary 10)", Run: paper(E4)},
		{ID: "E5", Title: "Parallel Template (Lemma 11, Corollary 12)", Run: paper(E5)},
		{ID: "E6", Title: "Wheel F_k diameter non-monotonicity (Figure 1)", Run: paper(E6)},
		{ID: "E7", Title: "Grid black/white components (Figure 2, Section 9.1)", Run: paper(E7)},
		{ID: "E8", Title: "Rooted-tree MIS (Section 9.2, Corollary 15)", Run: paper(E8)},
		{ID: "E9", Title: "Luby reference on many components (Section 10)", Run: paper(E9)},
		{ID: "E10", Title: "Error measure relations (Section 5)", Run: paper(E10)},
		{ID: "E11", Title: "Line lower bounds (Lemmas 4, 5, 13, 14)", Run: paper(E11)},
		{ID: "E12", Title: "Maximal matching with predictions (Section 8.1)", Run: paper(E12)},
		{ID: "E13", Title: "(Delta+1)-vertex coloring with predictions (Section 8.2)", Run: paper(E13)},
		{ID: "E14", Title: "(2Delta-1)-edge coloring with predictions (Section 8.3)", Run: paper(E14)},
		{ID: "E15", Title: "Network churn scenario (Section 1.1)", Run: paper(E15)},
		{ID: "E16", Title: "Engine parity and CONGEST accounting (Section 2)", Run: paper(E16)},
		{ID: "E17", Title: "Uniform reference: local vs global degree (Section 7.1)", Run: paper(E17)},
		{ID: "E18", Title: "Consistency/robustness trade-off (Section 10)", Run: paper(E18)},
		{ID: "E19", Title: "Message complexity of the templates", Run: paper(E19)},
		{ID: "E20", Title: "Global vs local error measures (Section 5)", Run: paper(E20)},
		{ID: "E21", Title: "Active-set decay series", Run: paper(E21)},
		{ID: "E22", Title: "Checking cost vs consistency (Sections 1.2-1.3)", Run: paper(E22)},
	}
}

// Sweeps returns the engine, shard, chaos and dynamic-session sweeps. Each
// returns its BENCH_<id>.json ledger.
func Sweeps() []Experiment {
	return []Experiment{
		{ID: "enginestats", Title: "Per-round engine stats: greedy MIS on rings of the -nodes sizes", Run: engineStats},
		{ID: "scale", Title: "Engine scale sweep: flood workload at the -nodes sizes", Run: scaleSweep},
		{ID: "shards", Title: "Shard sweep: flood workload at the -shards counts (CH8)", Run: shardSweep},
		{ID: "chaos", Title: "Fault-rate x eta degradation of self-healing runs (CH1-CH4, CH7)", Run: chaosSweep},
		{ID: "dynamic", Title: "Dynamic-session recovery vs batch size and graph size (CH5, CH6)", Run: dynamicSweep},
	}
}

// Find returns the experiment or sweep with the given id (case-insensitive),
// or nil.
func Find(id string) *Experiment {
	for _, e := range append(Registry(), Sweeps()...) {
		if strings.EqualFold(e.ID, id) {
			out := e
			return &out
		}
	}
	return nil
}
