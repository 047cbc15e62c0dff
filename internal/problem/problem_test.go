package problem

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/runtime"
)

// validDescriptor returns a structurally complete descriptor for registration
// tests; name keeps the registrations distinct in the shared registry.
func validDescriptor(name string) Descriptor {
	nop := func(c BuildCtx) (runtime.Factory, error) { return nil, nil }
	return Descriptor{
		Name:        name,
		Doc:         "test problem",
		OutputLabel: "out",
		Preds:       func(g *graph.Graph, aux any, k int, seed int64) any { return []int(nil) },
		EncodePreds: IntPredCodec(name),
		Errors:      func(g *graph.Graph, aux any, preds any) (string, error) { return "eta1=0", nil },
		Finalize:    IntFinalizer(name, func(g *graph.Graph, out []int) error { return nil }),
		Checker:     func() runtime.Factory { return nil },
		Algorithms: []Algorithm{
			{Name: "simple", Template: TemplateSimple, Build: nop},
			{Name: "greedy", Template: TemplateSolo, Build: nop},
		},
	}
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	fn()
}

func TestRegisterValidation(t *testing.T) {
	mustPanic(t, "empty name", func() {
		d := validDescriptor("")
		Register(d)
	})
	mustPanic(t, "without a complete codec", func() {
		d := validDescriptor("t-no-codec")
		d.Finalize = nil
		Register(d)
	})
	mustPanic(t, "without algorithms", func() {
		d := validDescriptor("t-no-algs")
		d.Algorithms = nil
		Register(d)
	})
	mustPanic(t, "incomplete algorithm", func() {
		d := validDescriptor("t-no-build")
		d.Algorithms[0].Build = nil
		Register(d)
	})
	mustPanic(t, "twice", func() {
		d := validDescriptor("t-dup-alg")
		d.Algorithms[1].Name = d.Algorithms[0].Name
		Register(d)
	})
	mustPanic(t, "unknown template", func() {
		d := validDescriptor("t-bad-template")
		d.Algorithms[0].Template = "sequential"
		Register(d)
	})

	Register(validDescriptor("t-valid"))
	mustPanic(t, "duplicate registration", func() {
		Register(validDescriptor("t-valid"))
	})
}

func TestGetAndNames(t *testing.T) {
	Register(validDescriptor("t-lookup-b"))
	Register(validDescriptor("t-lookup-a"))

	d, err := Get("t-lookup-a")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "t-lookup-a" {
		t.Fatalf("Get returned %q", d.Name)
	}
	if _, err := Get("t-nonexistent"); err == nil {
		t.Fatal("Get of unregistered problem succeeded")
	}

	a, err := d.Algorithm("simple")
	if err != nil || a.Template != TemplateSimple {
		t.Fatalf("Algorithm(simple) = %+v, %v", a, err)
	}
	if _, err := d.Algorithm("nope"); err == nil {
		t.Fatal("unknown algorithm lookup succeeded")
	}

	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
	all := All()
	if len(all) != len(names) {
		t.Fatalf("All has %d entries, Names %d", len(all), len(names))
	}
	for i, d := range all {
		if d.Name != names[i] {
			t.Fatalf("All[%d] = %q, want %q", i, d.Name, names[i])
		}
	}
}

func TestIntCodecs(t *testing.T) {
	if got := EncodeInts(nil); got != nil {
		t.Fatalf("EncodeInts(nil) = %v, want nil", got)
	}
	if got := EncodeInts([]int{3, 1}); len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Fatalf("EncodeInts = %v", got)
	}

	codec := IntPredCodec("t")
	if got, err := codec(nil); err != nil || got != nil {
		t.Fatalf("codec(nil) = %v, %v", got, err)
	}
	// A typed-nil slice arriving through any must stay nil: the engine
	// distinguishes prediction-free runs by a nil prediction vector.
	if got, err := codec([]int(nil)); err != nil || got != nil {
		t.Fatalf("codec([]int(nil)) = %v, %v", got, err)
	}
	if got, err := codec([]int{7}); err != nil || len(got) != 1 || got[0] != 7 {
		t.Fatalf("codec([]int{7}) = %v, %v", got, err)
	}
	pre := []any{1, 2}
	if got, err := codec(pre); err != nil || len(got) != 2 {
		t.Fatalf("codec([]any) = %v, %v", got, err)
	}
	if _, err := codec("nope"); err == nil {
		t.Fatal("codec accepted a string")
	}
}
