package main

import (
	"reflect"
	"testing"
)

func TestParseCounts(t *testing.T) {
	for _, c := range []struct {
		spec  string
		least int
		want  []int // nil: an error is expected
	}{
		{"", 1, nil},
		{" , ", 1, nil},
		{"x", 1, nil},
		{"2", 3, nil},
		{"0", 1, nil},
		{"1,2,4", 1, []int{1, 2, 4}},
	} {
		got, err := parseCounts("counts", c.spec, c.least)
		if c.want == nil {
			if err == nil {
				t.Errorf("parseCounts(%q, %d) = %v, want an error", c.spec, c.least, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseCounts(%q, %d) = %v, %v; want %v", c.spec, c.least, got, err, c.want)
		}
	}
}
