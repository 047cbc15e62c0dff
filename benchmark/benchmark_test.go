package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// tinySize runs every workload's real code on small inputs.
var tinySize = size{ba: 2000, ring: 2000}

const tinyOps = 3

var namePattern = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadDeclaration(t *testing.T) declaration {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d declaration
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

// TestDeclarationMatchesCode: BENCHMARK.json declares exactly the
// workloads and metrics the code produces, and every per-layer metric
// names a declared end-to-end metric and declared workloads.
func TestDeclarationMatchesCode(t *testing.T) {
	d := loadDeclaration(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("declared %d workloads, code has %d", len(d.Workloads), len(workloads))
	}
	declaredWorkloads := map[string]bool{}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, code has %q", i, w.Name, workloads[i].name)
		}
		declaredWorkloads[w.Name] = true
	}
	if len(d.EndToEnd) != len(endToEnd) {
		t.Fatalf("declared %d end-to-end metrics, code has %d", len(d.EndToEnd), len(endToEnd))
	}
	declaredE2E := map[string]bool{}
	for i, m := range d.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("end-to-end %d: declared %+v, code has %+v", i, m, c)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		declaredE2E[m.Name] = true
	}
	if len(d.PerLayer) != len(layerMetrics) {
		t.Fatalf("declared %d per-layer metrics, code has %d", len(d.PerLayer), len(layerMetrics))
	}
	for i, m := range d.PerLayer {
		c := layerMetrics[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per-layer %d: declared %+v, code has %s %s %s", i, m, c.name, c.unit, c.better)
		}
		if !declaredE2E[c.moves] {
			t.Errorf("per-layer %s moves undeclared end-to-end metric %q", c.name, c.moves)
		}
		if !strings.HasPrefix(c.name, c.module+".") && c.module != "obs" {
			t.Errorf("per-layer %s: name does not start with its module %q", c.name, c.module)
		}
		for _, w := range c.workloads {
			if !declaredWorkloads[w] {
				t.Errorf("per-layer %s names undeclared workload %q", c.name, w)
			}
		}
	}
}

func tinyChild(t *testing.T, name string, trace bool) childResult {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	r := runChild(w, childConfig{seed: 1, size: tinySize, warmUpOps: 1, minOps: tinyOps, trace: trace})
	if r.Attempted == 0 || r.Failed != 0 {
		t.Fatalf("%s (trace=%v): %d of %d operations failed: %v", name, trace, r.Failed, r.Attempted, r.Errors)
	}
	if len(r.Ops) != tinyOps {
		t.Fatalf("%s (trace=%v): %d ops, want %d", name, trace, len(r.Ops), tinyOps)
	}
	return r
}

// parseMetricLines checks printed "workload metric value unit" lines and
// returns the metric names.
func parseMetricLines(t *testing.T, workload, out string, declared map[string]string) map[string]bool {
	t.Helper()
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != workload {
			t.Errorf("malformed metric line %q", line)
			continue
		}
		unit, ok := declared[f[1]]
		if !ok || !namePattern.MatchString(f[1]) {
			t.Errorf("%s: printed metric %q is not declared in BENCHMARK.json", workload, f[1])
		}
		if f[3] != unit {
			t.Errorf("%s: metric %s printed with unit %q, declared %q", workload, f[1], f[3], unit)
		}
		seen[f[1]] = true
	}
	return seen
}

// TestWorkloadsTiny runs every workload in-process at a tiny size through
// the same code as the command line, untraced and traced.
func TestWorkloadsTiny(t *testing.T) {
	d := loadDeclaration(t)
	e2eUnits, layerUnits := map[string]string{}, map[string]string{}
	for _, m := range d.EndToEnd {
		e2eUnits[m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		layerUnits[m.Name] = m.Unit
	}
	first := map[string]opResult{}
	for _, w := range workloads {
		r := tinyChild(t, w.name, false)
		first[w.name] = r.Ops[0]
		values := endToEndReport([]childResult{r}, tinyOps)
		rep := workloadReport{Name: w.name, Attempted: r.Attempted, Metrics: values}
		var buf bytes.Buffer
		printMetrics(&buf, rep)
		if seen := parseMetricLines(t, w.name, buf.String(), e2eUnits); len(seen) != len(e2eUnits) {
			t.Errorf("%s: printed %d end-to-end metrics, declared %d", w.name, len(seen), len(e2eUnits))
		}
		for name, v := range values {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w.name, name, v)
			}
		}
		buf.Reset()
		if err := printResultLine(&buf, rep); err != nil {
			t.Fatal(err)
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes(), &line); err != nil || len(line) != 4 ||
			line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
			t.Errorf("%s: result line %s lacks the contract keys (%v)", w.name, buf.String(), err)
		}

		tr := tinyChild(t, w.name, true)
		for k := range tr.Ops {
			if tr.Ops[k] != r.Ops[k] {
				t.Errorf("%s op %d: traced output %+v, untraced %+v", w.name, k, tr.Ops[k], r.Ops[k])
			}
		}
		layers := layerReport([]childResult{tr})
		buf.Reset()
		printMetrics(&buf, workloadReport{Name: w.name, Metrics: layers})
		if seen := parseMetricLines(t, w.name, buf.String(), layerUnits); len(seen) != len(layerUnits) {
			t.Errorf("%s: printed %d per-layer metrics, declared %d", w.name, len(seen), len(layerUnits))
		}
		for _, m := range layerMetrics {
			for _, mw := range m.workloads {
				if mw == w.name && m.name != "trace.overhead_ratio" && !(layers[m.name] > 0) {
					t.Errorf("%s: per-layer metric %s = %v on a workload it is declared for", w.name, m.name, layers[m.name])
				}
			}
		}
	}
	if first["ba-mis"] != first["ba-mis-sharded"] {
		t.Errorf("sharded output %+v differs from sequential %+v", first["ba-mis-sharded"], first["ba-mis"])
	}
}
