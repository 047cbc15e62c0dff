package perf

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Direction says which way a metric is allowed to move.
type Direction int

const (
	// HigherIsWorse gates increases (rounds, allocs, residuals, traffic).
	HigherIsWorse Direction = iota
	// HigherIsBetter gates decreases (throughput).
	HigherIsBetter
	// Informational never gates: the metric is machine-dependent wall-clock
	// data, recorded for trend reading across runs of one environment.
	Informational
)

// Tolerance is the allowed movement of one metric in its bad direction:
// max(Abs, Rel*|base|). Movement in the good direction is reported as an
// improvement and never gates.
type Tolerance struct {
	Rel float64
	Abs float64
	Dir Direction
}

// Policy maps metric names to tolerances; Default applies to names without
// an entry.
type Policy struct {
	Metrics map[string]Tolerance
	Default Tolerance
}

// timingSuffixes classify wall-clock metric names as informational in the
// default policy; everything the engine counts deterministically gates.
var timingSuffixes = []string{"_seconds", "_per_sec", "_ns"}

// DefaultPolicy is the repository's noise model:
//
//   - Wall-clock metrics (suffix _seconds, _per_sec, _ns) are informational:
//     CI machines differ, so timing is recorded, never asserted.
//   - allocs_per_round gates with a small band (Abs 4, Rel 0.5): the engine
//     contract is a deterministic malloc count, but GC bookkeeping jitters
//     it by a few, and a genuine regression (the 2× fixture) still trips it.
//   - Everything else — rounds, messages, bits, residuals, cut edges,
//     boundary traffic — is a deterministic seeded counter and gates
//     exactly (any increase is a regression; a decrease is an improvement).
func DefaultPolicy() Policy {
	return Policy{
		Metrics: map[string]Tolerance{
			"allocs_per_round": {Rel: 0.5, Abs: 4, Dir: HigherIsWorse},
		},
		Default: Tolerance{Dir: HigherIsWorse},
	}
}

// classify resolves the effective tolerance of name under p, applying the
// timing-suffix rule before the default.
func (p Policy) classify(name string) Tolerance {
	if t, ok := p.Metrics[name]; ok {
		return t
	}
	for _, suf := range timingSuffixes {
		if strings.HasSuffix(name, suf) {
			return Tolerance{Dir: Informational}
		}
	}
	return p.Default
}

// Verdicts of one metric delta.
const (
	VerdictOK          = "ok"          // within tolerance
	VerdictRegression  = "regression"  // moved beyond tolerance in the bad direction
	VerdictImprovement = "improvement" // moved beyond tolerance in the good direction
	VerdictInfo        = "info"        // informational metric, not gated
)

// Delta is one metric's movement between two ledgers.
type Delta struct {
	Row, Metric string
	Base, Head  float64
	Verdict     string
	// Noise flags an informational delta within 3σ of the baseline's
	// wall-time sample spread (when the base row carries a matching hist
	// summary): the movement is indistinguishable from run-to-run noise.
	Noise bool
}

// Report is the outcome of comparing one experiment's ledgers.
type Report struct {
	Experiment string
	// EnvChanged lists human-readable environment differences.
	EnvChanged []string
	// ConfigChanged reports that the sweep configurations differ (rows are
	// still compared by name; the report flags the mismatch).
	ConfigChanged bool
	// MissingRows are baseline rows absent from head (coverage loss);
	// AddedRows are head rows absent from the baseline.
	MissingRows, AddedRows []string
	// Deltas are the per-metric movements, in (row, metric) order.
	Deltas []Delta
	// Regressions counts VerdictRegression deltas; missing rows also gate.
	Regressions int
}

// Gate reports whether the comparison passes: no regressions and no
// coverage loss.
func (r *Report) Gate() bool { return r.Regressions == 0 && len(r.MissingRows) == 0 }

// Compare diffs head against base under the policy. Both ledgers must
// validate and agree on the experiment id.
func Compare(base, head *Ledger, pol Policy) (*Report, error) {
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if err := head.Validate(); err != nil {
		return nil, fmt.Errorf("head: %w", err)
	}
	if base.Experiment != head.Experiment {
		return nil, fmt.Errorf("perf: comparing different experiments: %q vs %q", base.Experiment, head.Experiment)
	}
	rep := &Report{Experiment: base.Experiment}
	rep.EnvChanged = envDiff(base.Env, head.Env)
	rep.ConfigChanged = !configEqual(base.Config, head.Config)

	headRows := make(map[string]*Row, len(head.Rows))
	for i := range head.Rows {
		headRows[head.Rows[i].Name] = &head.Rows[i]
	}
	baseNames := make(map[string]bool, len(base.Rows))
	for bi := range base.Rows {
		b := &base.Rows[bi]
		baseNames[b.Name] = true
		h, ok := headRows[b.Name]
		if !ok {
			rep.MissingRows = append(rep.MissingRows, b.Name)
			continue
		}
		for _, metric := range b.metricNames() {
			bv := b.Metrics[metric]
			hv, ok := h.Metrics[metric]
			if !ok {
				rep.MissingRows = append(rep.MissingRows, b.Name+"."+metric)
				continue
			}
			d := Delta{Row: b.Name, Metric: metric, Base: bv, Head: hv}
			tol := pol.classify(metric)
			d.Verdict = verdict(bv, hv, tol)
			if d.Verdict == VerdictInfo {
				if hs, ok := b.Hists[metric]; ok && hs.Std > 0 {
					d.Noise = math.Abs(hv-bv) <= 3*hs.Std
				}
			}
			if d.Verdict == VerdictRegression {
				rep.Regressions++
			}
			rep.Deltas = append(rep.Deltas, d)
		}
	}
	for i := range head.Rows {
		if !baseNames[head.Rows[i].Name] {
			rep.AddedRows = append(rep.AddedRows, head.Rows[i].Name)
		}
	}
	return rep, nil
}

// verdict classifies one movement under a tolerance.
func verdict(base, head float64, tol Tolerance) string {
	if tol.Dir == Informational {
		return VerdictInfo
	}
	bad := head - base // positive = worse under HigherIsWorse
	if tol.Dir == HigherIsBetter {
		bad = base - head
	}
	allowed := math.Max(tol.Abs, tol.Rel*math.Abs(base))
	switch {
	case bad > allowed:
		return VerdictRegression
	case -bad > allowed:
		return VerdictImprovement
	default:
		return VerdictOK
	}
}

// envDiff lists the fields on which two environments differ.
func envDiff(a, b Environment) []string {
	var diffs []string
	add := func(field, av, bv string) {
		if av != bv {
			diffs = append(diffs, fmt.Sprintf("%s: %q -> %q", field, av, bv))
		}
	}
	add("go_version", a.GoVersion, b.GoVersion)
	add("goos", a.GOOS, b.GOOS)
	add("goarch", a.GOARCH, b.GOARCH)
	add("gomaxprocs", fmt.Sprint(a.GOMAXPROCS), fmt.Sprint(b.GOMAXPROCS))
	add("cpu_model", a.CPUModel, b.CPUModel)
	return diffs
}

// configEqual compares sweep configs by canonical JSON-ish rendering of
// sorted keys (configs round-trip through JSON, so values are comparable
// with fmt).
func configEqual(a, b map[string]any) bool {
	return renderConfig(a) == renderConfig(b)
}

func renderConfig(m map[string]any) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%v;", k, m[k])
	}
	return sb.String()
}

// WriteMarkdown renders the report as a markdown section: a verdict line,
// environment/config caveats, and a delta table (regressions first, then
// improvements, then gated-ok rows; informational rows are summarized and
// listed only when they moved beyond the recorded noise).
func (r *Report) WriteMarkdown(w io.Writer) error {
	ew := &mdWriter{w: w}
	status := "PASS"
	if !r.Gate() {
		status = "FAIL"
	}
	ew.printf("## %s — %s\n\n", r.Experiment, status)
	for _, d := range r.EnvChanged {
		ew.printf("- environment changed: %s\n", d)
	}
	if r.ConfigChanged {
		ew.printf("- sweep config changed: rows compared by name, review deltas accordingly\n")
	}
	for _, m := range r.MissingRows {
		ew.printf("- **missing in head**: `%s` (coverage loss gates)\n", m)
	}
	for _, a := range r.AddedRows {
		ew.printf("- new in head: `%s`\n", a)
	}
	ordered := append([]Delta(nil), r.Deltas...)
	rank := map[string]int{VerdictRegression: 0, VerdictImprovement: 1, VerdictOK: 2, VerdictInfo: 3}
	sort.SliceStable(ordered, func(i, j int) bool {
		return rank[ordered[i].Verdict] < rank[ordered[j].Verdict]
	})
	shown := 0
	header := false
	infoMoved, infoNoise := 0, 0
	for _, d := range ordered {
		if d.Verdict == VerdictInfo {
			if d.Noise {
				infoNoise++
				continue
			}
			infoMoved++
		}
		if d.Verdict == VerdictOK && d.Base == d.Head {
			continue // unchanged gated metrics would drown the table
		}
		if !header {
			ew.printf("\n| row | metric | base | head | delta | verdict |\n")
			ew.printf("|---|---|---:|---:|---:|---|\n")
			header = true
		}
		verdictCell := d.Verdict
		if d.Verdict == VerdictRegression {
			verdictCell = "**regression**"
		}
		ew.printf("| %s | %s | %s | %s | %s | %s |\n",
			d.Row, d.Metric, fmtMetric(d.Base), fmtMetric(d.Head), fmtDelta(d.Base, d.Head), verdictCell)
		shown++
	}
	if shown == 0 && len(r.MissingRows) == 0 {
		ew.printf("\nNo gated metric moved")
		if infoNoise > 0 {
			ew.printf(" (%d wall-clock deltas within recorded noise)", infoNoise)
		}
		ew.printf(".\n")
	} else if infoNoise > 0 {
		ew.printf("\n%d wall-clock deltas within recorded noise omitted.\n", infoNoise)
	}
	ew.printf("\n")
	return ew.err
}

// fmtMetric renders a metric value: integers plainly, fractions with
// four significant digits.
func fmtMetric(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}

// fmtDelta renders head-base with a relative percentage when meaningful.
func fmtDelta(base, head float64) string {
	d := head - base
	if base != 0 {
		return fmt.Sprintf("%+.4g (%+.1f%%)", d, 100*d/base)
	}
	return fmt.Sprintf("%+.4g", d)
}

// mdWriter collapses repeated Fprintf error handling.
type mdWriter struct {
	w   io.Writer
	err error
}

func (e *mdWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
