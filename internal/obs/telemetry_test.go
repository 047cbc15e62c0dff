package obs

import (
	"math"
	"strings"
	"testing"
)

func TestRoundHistogramNaming(t *testing.T) {
	tel := NewTelemetry(nil)
	h := tel.RoundHistogram("send", 4)
	if h == nil {
		t.Fatal("RoundHistogram returned nil on a live telemetry")
	}
	h.Observe(0.5)
	snap := tel.Registry().Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("want 1 histogram, got %d", len(snap.Histograms))
	}
	want := `dgp_round_seconds{phase="send",shards="4"}`
	if snap.Histograms[0].Name != want {
		t.Fatalf("series %q, want %q", snap.Histograms[0].Name, want)
	}
	// Shard counts below 1 normalize to the unsharded engine's 1.
	if got := tel.RoundHistogram("round", 0); got != tel.RoundHistogram("round", 1) {
		t.Fatal("shards 0 and 1 should resolve to the same series")
	}
}

func TestTelemetryNilReceiver(t *testing.T) {
	var tel *Telemetry
	if tel.RoundHistogram("send", 1) != nil {
		t.Fatal("nil telemetry should hand out nil histograms")
	}
	if tel.Registry() != nil {
		t.Fatal("nil telemetry should have a nil registry")
	}
	tel.SampleRuntime() // must not panic
}

func TestSampleRuntimeSetsGauges(t *testing.T) {
	tel := NewTelemetry(nil)
	tel.SampleRuntime()
	snap := tel.Registry().Snapshot()
	got := map[string]float64{}
	for _, g := range snap.Gauges {
		got[g.Name] = g.Value
	}
	if got["dgp_heap_bytes"] <= 0 {
		t.Fatalf("dgp_heap_bytes = %v, want > 0", got["dgp_heap_bytes"])
	}
	if got["dgp_goroutines"] < 1 {
		t.Fatalf("dgp_goroutines = %v, want >= 1", got["dgp_goroutines"])
	}
	if got["dgp_gomaxprocs"] < 1 {
		t.Fatalf("dgp_gomaxprocs = %v, want >= 1", got["dgp_gomaxprocs"])
	}
}

// --- export edge cases ---

func TestEmptyRegistrySnapshotExport(t *testing.T) {
	snap := NewRegistry().Snapshot()
	var prom strings.Builder
	if err := snap.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if prom.String() != "" {
		t.Fatalf("empty registry exported %q, want nothing", prom.String())
	}
	var js strings.Builder
	if err := snap.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), "null") && !strings.Contains(js.String(), "[]") {
		t.Fatalf("empty registry JSON %q missing empty collections", js.String())
	}
}

func TestFmtFloatSpecialValues(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{math.NaN(), "NaN"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{0, "0"},
		{42, "42"},
		{-7, "-7"},
		{0.5, "0.5"},
		{1e-6, "1e-06"},
	}
	for _, tc := range cases {
		if got := fmtFloat(tc.in); got != tc.want {
			t.Errorf("fmtFloat(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestHistogramObserveOnBucketBound(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", []float64{1, 2, 4})
	h.Observe(2) // exactly on a bound: le is inclusive, so the 2-bucket takes it
	snap := reg.Snapshot()
	hv := snap.Histograms[0]
	if hv.Counts[0] != 0 || hv.Counts[1] != 1 || hv.Counts[2] != 1 {
		t.Fatalf("observation on bound 2 landed wrong: counts %v", hv.Counts)
	}
	if hv.Count != 1 || hv.Sum != 2 {
		t.Fatalf("count/sum %d/%v, want 1/2", hv.Count, hv.Sum)
	}
}
