package core_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestNbrTable: entries live at the positions of the sorted neighbor IDs,
// absence stays distinct from every value (0 and math.MinInt included),
// non-neighbors have no slot, and
// tables sharing one allocation stay independent.
func TestNbrTable(t *testing.T) {
	ids := []int{2, 5, 9}
	var pred, out core.NbrTable
	core.NewNbrTables(ids, &pred, &out)

	if v, ok := out.Get(5); ok || v != 0 {
		t.Fatalf("fresh entry: Get = %d, %v; want 0, absent", v, ok)
	}
	out.Set(5, 0)
	if v, ok := out.Get(5); !ok || v != 0 {
		t.Fatalf("after Set(5, 0): Get = %d, %v; want 0, present", v, ok)
	}
	if !out.Has(5) || out.Has(2) {
		t.Fatal("Has disagrees with the entries set")
	}
	if v, ok := out.At(1); !ok || v != 0 {
		t.Fatalf("At(1) = %d, %v; want the entry of id 5", v, ok)
	}
	pred.Set(2, math.MinInt)
	if v, ok := pred.Get(2); !ok || v != math.MinInt {
		t.Fatalf("after Set(2, MinInt): Get = %d, %v; want MinInt, present", v, ok)
	}
	out.Set(7, 1) // not a neighbor: ignored
	if out.Has(7) || out.Contains(1) {
		t.Fatal("a non-neighbor got an entry")
	}
	if pred.Has(5) {
		t.Fatal("tables sharing an allocation share entries")
	}
	pred.Set(9, 4)
	if !out.Contains(0) || out.Contains(4) || !pred.Contains(4) {
		t.Fatal("Contains wrong")
	}
	if got := out.Missing(); !reflect.DeepEqual(got, []int{2, 9}) {
		t.Errorf("Missing() = %v, want [2 9]", got)
	}
	if got := pred.Values(); !reflect.DeepEqual(got, []int{math.MinInt, 4}) {
		t.Errorf("Values() = %v, want [MinInt 4]", got)
	}
	out.Set(5, 3) // overwriting an entry keeps the count
	if out.Count() != 1 || pred.Count() != 2 {
		t.Errorf("Count() = %d and %d; want 1 and 2", out.Count(), pred.Count())
	}

	// Presence bits past the first word stay per slot and per table.
	wide := make([]int, 130)
	for k := range wide {
		wide[k] = 2 * k
	}
	var a, b core.NbrTable
	core.NewNbrTables(wide, &a, &b)
	for k := 0; k < len(wide); k += 3 {
		a.Set(2*k, math.MinInt+k)
	}
	for k := range wide {
		if v, ok := a.At(k); ok != (k%3 == 0) || ok && v != math.MinInt+k || b.Has(2*k) {
			t.Fatalf("wide slot %d: At = %d, %v; other table has it: %v", k, v, ok, b.Has(2*k))
		}
	}
	if len(a.Values()) != 44 || len(a.Missing()) != 86 || a.Count() != 44 || b.Count() != 0 {
		t.Errorf("wide: %d values (count %d, other table %d), %d missing; want 44, 86",
			len(a.Values()), a.Count(), b.Count(), len(a.Missing()))
	}

	var empty core.NbrTable
	core.NewNbrTables(nil, &empty)
	if empty.Has(1) || len(empty.Missing()) != 0 || empty.Count() != 0 {
		t.Error("a node without neighbors has entries")
	}
}
