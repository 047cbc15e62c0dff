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
	ids []int
	// buf holds one value per slot followed by the presence bitset: bit k
	// of word buf[len(ids)+k/64] for slot k. Keeping presence beside the
	// value lets every int — math.MinInt included — round-trip through Set
	// and Get, and one slice header for both keeps the table small.
	buf []int
}

// NewNbrTables points every table at ids (a node's NeighborIDs, which the
// tables share rather than copy) with all entries absent. The tables'
// values and presence bits share one backing allocation.
func NewNbrTables(ids []int, tables ...*NbrTable) {
	CarveNbrTables(make([]int, NbrTablesSize(len(ids), len(tables))), ids, tables...)
}

// NbrTablesSize is the number of ints that k tables over d neighbors keep
// their values and presence bits in.
func NbrTablesSize(d, k int) int { return (d + (d+63)/64) * k }

// CarveNbrTables is NewNbrTables over a caller-provided buffer — for
// instance one carved from a per-run NodeSlab — of exactly
// NbrTablesSize(len(ids), len(tables)) zeroed ints.
func CarveNbrTables(buf, ids []int, tables ...*NbrTable) {
	per := NbrTablesSize(len(ids), 1)
	for k, t := range tables {
		*t = NbrTable{ids: ids, buf: buf[k*per : (k+1)*per : (k+1)*per]}
	}
}

// Set records v for neighbor id. Identifiers that are not neighbors have no
// slot and are ignored; messages only ever arrive from neighbors.
func (t NbrTable) Set(id, v int) {
	if k, ok := slices.BinarySearch(t.ids, id); ok {
		t.buf[k] = v
		t.buf[len(t.ids)+k/64] |= 1 << (k % 64)
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

// Len returns the number of slots: the node's degree.
func (t NbrTable) Len() int { return len(t.ids) }

// At returns the entry of the neighbor at position k of NeighborIDs and
// whether it is present.
func (t NbrTable) At(k int) (int, bool) {
	if t.present(k) {
		return t.buf[k], true
	}
	return 0, false
}

func (t NbrTable) present(k int) bool { return t.buf[len(t.ids)+k/64]>>(k%64)&1 == 1 }

// Contains reports whether some present entry equals v.
func (t NbrTable) Contains(v int) bool {
	for k, x := range t.buf[:len(t.ids)] {
		if x == v && t.present(k) {
			return true
		}
	}
	return false
}

// Values returns the present entries in neighbor order, in a new slice the
// caller may keep.
func (t NbrTable) Values() []int {
	out := make([]int, 0, len(t.ids))
	for k, v := range t.buf[:len(t.ids)] {
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
