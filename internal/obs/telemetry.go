package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
	"strconv"
)

// This file is the runtime resource telemetry half of the observability
// layer: per-phase round wall-time histograms recorded by the engine, and
// runtime/metrics-sampled heap/goroutine/GC gauges, both feeding the same
// metrics Registry the trace aggregation writes to.
//
// The determinism contract is untouched: telemetry only decorates the
// metrics registry (never traces, results, or scheduling), every clock read
// stays inside this package (obs.Now/obs.Since, the seededrand-audited
// funnel), and a nil *Telemetry disables everything down to a pointer
// check — the engine's 0 allocs/round steady-state budget holds with
// telemetry detached.

// Telemetry bundles a metrics Registry with the runtime resource samplers.
// The zero value is not usable; call NewTelemetry. All methods are safe on a
// nil receiver (they no-op or return nil), so call sites need no guards.
type Telemetry struct {
	reg *Registry
}

// NewTelemetry returns a Telemetry writing into reg (a fresh registry when
// reg is nil).
func NewTelemetry(reg *Registry) *Telemetry {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Telemetry{reg: reg}
}

// Registry returns the underlying metrics registry (nil on a nil receiver).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// RoundHistogram returns the per-phase round wall-time histogram
// `dgp_round_seconds{phase="<phase>",shards="<shards>"}` (seconds,
// DefaultDurationBuckets), or nil on a nil receiver. The engine resolves
// these once per run on the cold setup path and observes into the returned
// histogram from the round loop — label formatting never happens on the hot
// path. The shards label is the run's configured shard count: the chunks
// of one phase run concurrently, so phase wall time is measured per round
// at the supervisor, not per chunk or shard.
func (t *Telemetry) RoundHistogram(phase string, shards int) *Histogram {
	if t == nil {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	name := "dgp_round_seconds{phase=" + strconv.Quote(phase) + ",shards=" + strconv.Quote(strconv.Itoa(shards)) + "}"
	return t.reg.Histogram(name, DefaultDurationBuckets)
}

// runtimeGauges maps runtime/metrics sample names to the exported gauge
// series. Only scalar (uint64/float64) samples appear here; the GC pause
// distribution is handled separately.
var runtimeGauges = []struct {
	sample string
	gauge  string
}{
	{"/memory/classes/heap/objects:bytes", "dgp_heap_bytes"},
	{"/gc/heap/objects:objects", "dgp_heap_objects"},
	{"/sched/goroutines:goroutines", "dgp_goroutines"},
	{"/gc/cycles/total:gc-cycles", "dgp_gc_cycles_total"},
}

// gcPauseSample is the runtime/metrics GC stop-the-world pause
// distribution (seconds).
const gcPauseSample = "/sched/pauses/total/gc:seconds"

// SampleRuntime reads the Go runtime's resource metrics (runtime/metrics)
// into the registry: dgp_heap_bytes, dgp_heap_objects, dgp_goroutines,
// dgp_gc_cycles_total, dgp_gomaxprocs gauges, plus dgp_gc_pauses_total and
// dgp_gc_pause_seconds_total derived from the GC pause distribution (the
// pause sum approximates each pause by its bucket midpoint — the runtime
// exports a histogram, not a running sum). Samples the runtime does not
// support are skipped, so the set degrades gracefully across Go versions.
// No-op on a nil receiver.
func (t *Telemetry) SampleRuntime() {
	if t == nil {
		return
	}
	samples := make([]metrics.Sample, 0, len(runtimeGauges)+1)
	for _, rg := range runtimeGauges {
		samples = append(samples, metrics.Sample{Name: rg.sample})
	}
	samples = append(samples, metrics.Sample{Name: gcPauseSample})
	metrics.Read(samples)
	for i, rg := range runtimeGauges {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			t.reg.Gauge(rg.gauge).Set(float64(samples[i].Value.Uint64()))
		case metrics.KindFloat64:
			t.reg.Gauge(rg.gauge).Set(samples[i].Value.Float64())
		}
	}
	if pauses := samples[len(samples)-1]; pauses.Value.Kind() == metrics.KindFloat64Histogram {
		count, sum := summarizeFloat64Histogram(pauses.Value.Float64Histogram())
		t.reg.Gauge("dgp_gc_pauses_total").Set(float64(count))
		t.reg.Gauge("dgp_gc_pause_seconds_total").Set(sum)
	}
	t.reg.Gauge("dgp_gomaxprocs").Set(float64(runtime.GOMAXPROCS(0)))
}

// summarizeFloat64Histogram reduces a runtime/metrics histogram to its
// total count and a midpoint-approximated sum. Unbounded edge buckets
// (±Inf) contribute their finite edge instead of a midpoint.
func summarizeFloat64Histogram(h *metrics.Float64Histogram) (count uint64, sum float64) {
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		count += c
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		if math.IsInf(lo, 0) {
			mid = hi
		} else if math.IsInf(hi, 0) {
			mid = lo
		}
		sum += float64(c) * mid
	}
	return count, sum
}
