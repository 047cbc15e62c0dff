package core

import "slices"

// NbrTable is a node's per-neighbor integer table: one slot per position in
// the node's ascending NeighborIDs. The problem memories keep what a node
// learned about each neighbor in it — an announced prediction, a terminated
// neighbor's output — without a per-node map. An entry is either absent or
// holds a value, and absence is distinct from every value, 0 included.
//
// A NbrTable is a view: copies share their entries, so a memory struct can
// hold it by value.
type NbrTable struct {
	ids  []int
	vals []int
	// has is the presence bitset, bit k of word k/64 for slot k. Keeping
	// presence beside the value lets every int — math.MinInt included —
	// round-trip through Set and Get.
	has []int
}

// NewNbrTables points every table at ids (a node's NeighborIDs, which the
// tables share rather than copy) with all entries absent. The tables'
// values and presence bits share one backing allocation.
func NewNbrTables(ids []int, tables ...*NbrTable) {
	d, w := len(ids), (len(ids)+63)/64
	buf := make([]int, (d+w)*len(tables))
	bits := buf[d*len(tables):]
	for k, t := range tables {
		*t = NbrTable{
			ids:  ids,
			vals: buf[k*d : (k+1)*d : (k+1)*d],
			has:  bits[k*w : (k+1)*w : (k+1)*w],
		}
	}
}

// Set records v for neighbor id. Identifiers that are not neighbors have no
// slot and are ignored; messages only ever arrive from neighbors.
func (t NbrTable) Set(id, v int) {
	if k, ok := slices.BinarySearch(t.ids, id); ok {
		t.vals[k] = v
		t.has[k/64] |= 1 << (k % 64)
	}
}

// Get returns neighbor id's entry and whether it is present; an absent
// entry reads as 0, like a missing map key.
func (t NbrTable) Get(id int) (int, bool) {
	if k, ok := slices.BinarySearch(t.ids, id); ok {
		return t.At(k)
	}
	return 0, false
}

// Has reports whether neighbor id has an entry.
func (t NbrTable) Has(id int) bool {
	_, ok := t.Get(id)
	return ok
}

// At returns the entry of the neighbor at position k of NeighborIDs and
// whether it is present.
func (t NbrTable) At(k int) (int, bool) {
	if t.present(k) {
		return t.vals[k], true
	}
	return 0, false
}

func (t NbrTable) present(k int) bool { return t.has[k/64]>>(k%64)&1 == 1 }

// Contains reports whether some present entry equals v.
func (t NbrTable) Contains(v int) bool {
	for k, x := range t.vals {
		if x == v && t.present(k) {
			return true
		}
	}
	return false
}

// Values returns the present entries in neighbor order, in a new slice the
// caller may keep.
func (t NbrTable) Values() []int {
	out := make([]int, 0, len(t.vals))
	for k, v := range t.vals {
		if t.present(k) {
			out = append(out, v)
		}
	}
	return out
}

// Missing returns the identifiers of the neighbors with no entry, ascending,
// in a new slice the caller may keep.
func (t NbrTable) Missing() []int {
	out := make([]int, 0, len(t.ids))
	for k, id := range t.ids {
		if !t.present(k) {
			out = append(out, id)
		}
	}
	return out
}
