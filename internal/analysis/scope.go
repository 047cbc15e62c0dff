package analysis

import (
	"go/types"
	"strings"
)

// DeterministicPkgs are the import-path suffixes of packages whose behaviour
// must be bit-for-bit reproducible: the engine, the graph layer, the
// framework combinators, and every algorithm package. Scope checks match by
// suffix so analysistest fixtures can mirror real paths under testdata.
var DeterministicPkgs = []string{
	"internal/graph",
	"internal/runtime",
	"internal/runtime/fault",
	"internal/shard",
	"internal/core",
	"internal/heal",
	"internal/dynamic",
	"internal/mis",
	"internal/matching",
	"internal/vcolor",
	"internal/ecolor",
	"internal/tree",
	"internal/linegraph",
	"internal/decomp",
	"internal/predict",
	"internal/exact",
	"internal/verify",
	"internal/check",
	"internal/stats",
	"internal/bench",
	"internal/problem",
	"internal/obs",
	"internal/perf",
}

// SeededPkgs are the suffixes of packages where every random draw and clock
// read must come from an explicitly seeded source: engine, fault injection,
// graph and prediction generators, and the experiment harness.
var SeededPkgs = []string{
	"internal/runtime",
	"internal/runtime/fault",
	"internal/shard",
	"internal/graph",
	"internal/predict",
	"internal/tree",
	"internal/bench",
	"internal/mis",
	"internal/matching",
	"internal/vcolor",
	"internal/ecolor",
	"internal/obs",
}

// ObservationalClockPkgs are the suffixes of packages whose wall-clock reads
// are sanctioned as a package-scoped policy: the observability layer reads
// the clock to decorate trace records and metrics, and funnels every read
// through obs.Now/obs.Since so the exemption is one audited package rather
// than a scatter of per-line //lint:allow directives. Unseeded randomness
// stays forbidden in these packages; only the clock rule is relaxed, and the
// clock values must never feed back into algorithm or engine state.
var ObservationalClockPkgs = []string{
	"internal/obs",
}

// SessionPkgs are the suffixes of packages hosting dynamic update
// sessions, whose batch handling must route every accept/reject/dedupe
// decision through the monotone Seq ledger (the seen-set) — the
// fixed-point argument behind self-healing runs assumes no batch is
// applied twice and no decision bypasses the ledger.
var SessionPkgs = []string{
	"internal/dynamic",
}

// WrapErrPkgs are the suffixes of the framework packages whose errors must
// wrap the runtime sentinels (ErrConfig, ErrProtocol, ErrMachinePanic, ...).
var WrapErrPkgs = []string{
	"internal/runtime",
	"internal/runtime/fault",
	"internal/shard",
	"internal/core",
	"internal/heal",
	"internal/dynamic",
}

// PathInScope reports whether path is the module root or ends with one of
// the scope suffixes.
func PathInScope(path string, scope []string) bool {
	for _, s := range scope {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// HasBitsMethod reports whether t's own method set contains the CONGEST
// accounting method `Bits() int`, i.e. whether values of t satisfy
// runtime.BitSized. A Bits method on *t does not count: a t value sent as a
// payload is not BitSized at run time. The check is structural so fixtures
// need not import the real runtime package.
func HasBitsMethod(t types.Type) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		f, ok := ms.At(i).Obj().(*types.Func)
		if !ok || f.Name() != "Bits" {
			continue
		}
		sig, ok := f.Type().(*types.Signature)
		if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
			continue
		}
		if basic, ok := sig.Results().At(0).Type().(*types.Basic); ok && basic.Kind() == types.Int {
			return true
		}
	}
	return false
}
