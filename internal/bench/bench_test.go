package bench_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/bench"
)

// timed are the sweeps whose tables carry wall-clock columns; they run at
// small sizes here and are not compared with EXPERIMENTS.md.
var timed = map[string]bool{"enginestats": true, "scale": true, "shards": true}

// TestAllExperimentsSatisfyTheirBounds regenerates every experiment and
// fails if any bound-check cell reports a violation ("NO"). This pins every
// quantitative claim of the paper as a regression test. Every table of an
// experiment without wall-clock columns must also render verbatim as a
// block of EXPERIMENTS.md, which pins the document's claim that its tables
// are regenerated output.
func TestAllExperimentsSatisfyTheirBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are seconds-long; skipped with -short")
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	params := bench.Params{Nodes: []int{1000}, Shards: []int{1, 2}}
	sweeps := map[string]bool{}
	for _, e := range bench.Sweeps() {
		sweeps[e.ID] = true
	}
	for _, e := range append(bench.Registry(), bench.Sweeps()...) {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tables, ledger, err := e.Run(params)
			if err != nil {
				t.Fatal(err)
			}
			if (ledger != nil) != sweeps[e.ID] {
				t.Errorf("%s: got ledger %v, want one only from the sweeps", e.ID, ledger != nil)
			}
			if ledger != nil {
				if ledger.Experiment != e.ID {
					t.Errorf("%s returned the ledger of %q", e.ID, ledger.Experiment)
				}
				if err := ledger.Validate(); err != nil {
					t.Error(err)
				}
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Errorf("%s table %s has no rows", e.ID, tab.ID)
				}
				for _, row := range tab.Rows {
					for ci, cell := range row {
						if cell == "NO" {
							t.Errorf("%s table %s: bound violated in column %q, row %v",
								e.ID, tab.ID, tab.Columns[ci], row)
						}
					}
				}
				if timed[e.ID] {
					continue
				}
				var sb strings.Builder
				tab.Render(&sb)
				block := strings.TrimSuffix(sb.String(), "\n")
				if !strings.Contains(string(doc), block) {
					t.Errorf("%s table %s does not occur verbatim in EXPERIMENTS.md:\n%s", e.ID, tab.ID, block)
				}
			}
		})
	}
}

func TestRegistryAndFind(t *testing.T) {
	reg := bench.Registry()
	if len(reg) != 22 {
		t.Errorf("registry has %d experiments, want 22", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range append(reg, bench.Sweeps()...) {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if bench.Find(e.ID) == nil {
			t.Errorf("Find(%s) = nil", e.ID)
		}
		if bench.Find(strings.ToLower(e.ID)) == nil || bench.Find(strings.ToUpper(e.ID)) == nil {
			t.Errorf("Find is not case-insensitive for %s", e.ID)
		}
	}
	if bench.Find("E99") != nil {
		t.Error("Find accepted unknown id")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &bench.Table{
		ID:      "T",
		Title:   "demo",
		Columns: []string{"a", "long-column"},
	}
	tab.AddRow(1, "x")
	tab.AddRow("yy", 2.5)
	tab.AddRow(true, false)
	tab.Note("note %d", 7)
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== T: demo ==", "long-column", "yy", "2.50", "yes", "NO", "note: note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}
