// The determinism rule: ETAP's training pipeline must be
// bit-deterministic — BM25 golden tests hold across shard counts and
// the seeded fault injector replays exactly — so the packages that
// produce pipeline output may not read wall clocks, draw from the
// shared math/rand source, derive routing from per-process random
// seeds, or let map iteration order leak into ordered output.

package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// determinismScope lists the package path segments the rule covers:
// the stages whose output feeds golden tests and replayable runs.
var determinismScope = []string{
	"internal/corpus",
	"internal/web",
	"internal/index",
	"internal/noise",
	"internal/train",
	"internal/rank",
	// The streaming path feeds the same stores as batch extraction, and
	// its idempotency rests on replayable fingerprints — so it answers
	// to the same rules.
	"internal/alert",
	// Tracing decides retention from clocks and a sampling stream; both
	// must be injectable (TracerConfig.Clock/Seed) for replayable tests,
	// so undeclared wall-clock or global-rand reads are findings here.
	"internal/obs",
	// The knowledge base is byte-deterministic by contract (same seed →
	// identical JSONL), and tenant ICP ranking must reproduce across
	// restarts — wall clocks and global rand would silently break both.
	"internal/kb",
	"internal/tenant",
	// The HTTP API must answer an unchanged store with the same bytes.
	"internal/serve",
}

// globalRandFuncs are the math/rand (and math/rand/v2) package-level
// functions backed by the shared process-wide source. Constructing a
// seeded *rand.Rand (rand.New, rand.NewSource) is the sanctioned
// alternative and is not listed.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 spellings.
	"N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "Uint32N": true, "Uint64N": true,
	"UintN": true, "Uint": true,
}

type determinismRule struct{}

func (determinismRule) Name() string { return "determinism" }

func (determinismRule) Doc() string {
	return "pipeline packages must not use wall clocks, global math/rand, per-process hash seeds, or map-order-dependent output"
}

func (r determinismRule) Check(p *Package) []Finding {
	inScope := false
	for _, seg := range determinismScope {
		if pathHasSegment(p.Path, seg) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	var out []Finding
	add := func(n ast.Node, format string, args ...any) {
		out = append(out, Finding{
			Rule:     r.Name(),
			Severity: SeverityError,
			Pos:      p.pos(n),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	p.inspect(func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := p.calleeFunc(n)
			if fn == nil {
				return true
			}
			switch {
			case isPkgFunc(fn, "time", "Now"):
				add(n, "call to time.Now: wall-clock input makes pipeline output time-dependent; thread the time in as data (or suppress for metrics-only timing)")
			case isPkgFunc(fn, "hash/maphash", "MakeSeed"):
				add(n, "maphash.MakeSeed draws a fresh random seed per process; anything routed or ordered by it will not replay across restarts — configure a fixed seed instead")
			case fn.Pkg() != nil && (fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2"):
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && globalRandFuncs[fn.Name()] {
					add(n, "global %s.%s draws from the shared process-wide source; thread a seeded *rand.Rand as a parameter instead", fn.Pkg().Name(), fn.Name())
				}
			}
		case *ast.RangeStmt:
			r.checkMapRange(p, n, stack, add)
		}
		return true
	})
	return out
}

// checkMapRange flags map iterations whose body leaks iteration order
// into output: appending to a slice declared outside the loop (unless
// the result is sorted afterwards in the same block), breaking out on
// the first match, or returning a value derived from the iteration
// variables.
func (r determinismRule) checkMapRange(p *Package, rng *ast.RangeStmt, stack []ast.Node, add func(ast.Node, string, ...any)) {
	tv, ok := p.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	keyObj, valObj := p.rangeVarObjs(rng)

	for _, app := range r.mapRangeAppends(p, rng, keyObj) {
		if !sortedAfter(p, rng, stack, app.target) {
			add(app.node, "ranging over a map appends to %q in nondeterministic order; sort the result afterwards or iterate sorted keys", types.ExprString(app.target))
		}
	}
	for _, n := range r.orderDependentExits(p, rng, keyObj, valObj) {
		switch n.(type) {
		case *ast.BranchStmt:
			add(n, "break inside a range over a map lets iteration order pick the winning entry; iterate a deterministic order instead")
		case *ast.ReturnStmt:
			add(n, "returning a value derived from map-iteration variables lets iteration order pick the result; iterate a deterministic order instead")
		}
	}
}

// rangeVarObjs resolves the range statement's key and value variables
// to their objects (nil for blank or absent).
func (p *Package) rangeVarObjs(rng *ast.RangeStmt) (key, val types.Object) {
	resolve := func(e ast.Expr) types.Object {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		if o := p.Info.Defs[id]; o != nil {
			return o
		}
		return p.Info.Uses[id]
	}
	if rng.Key != nil {
		key = resolve(rng.Key)
	}
	if rng.Value != nil {
		val = resolve(rng.Value)
	}
	return key, val
}

// mapRangeAppend is one `x = append(x, ...)` inside a map range whose
// target x outlives the loop.
type mapRangeAppend struct {
	node   ast.Node
	target ast.Expr
}

// mapRangeAppends finds appends inside the range body that accumulate
// into storage declared outside the loop. Appends into a map entry
// indexed by the range key (m[k] = append(m[k], ...)) are
// order-independent — each key owns its slot — and are skipped.
func (r determinismRule) mapRangeAppends(p *Package, rng *ast.RangeStmt, keyObj types.Object) []mapRangeAppend {
	var out []mapRangeAppend
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				continue
			}
			if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin || id.Name != "append" {
				continue
			}
			target := call.Args[0]
			if ix, ok := ast.Unparen(target).(*ast.IndexExpr); ok && keyObj != nil && usesObject(p, ix.Index, keyObj) {
				continue
			}
			root := rootIdentObj(p, target)
			if root == nil || (root.Pos() >= rng.Pos() && root.Pos() <= rng.End()) {
				continue // loop-local accumulation dies with the iteration
			}
			out = append(out, mapRangeAppend{node: as, target: target})
		}
		return true
	})
	return out
}

// orderDependentExits finds break statements that terminate the map
// range itself and return statements whose results mention the
// iteration variables.
func (r determinismRule) orderDependentExits(p *Package, rng *ast.RangeStmt, keyObj, valObj types.Object) []ast.Node {
	var out []ast.Node
	// enclosing tracks the statements a break would bind to; the map
	// range is the outermost entry.
	var enclosing []ast.Node
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			enclosing = append(enclosing, n)
			ast.Inspect(n, func(m ast.Node) bool {
				if m == n {
					return true
				}
				return walk(m)
			})
			enclosing = enclosing[:len(enclosing)-1]
			return false
		case *ast.FuncLit:
			return false // separate control flow
		case *ast.BranchStmt:
			if n.Tok.String() == "break" && n.Label == nil && len(enclosing) == 0 {
				out = append(out, n)
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if (keyObj != nil && usesObject(p, res, keyObj)) || (valObj != nil && usesObject(p, res, valObj)) {
					out = append(out, n)
					break
				}
			}
		}
		return true
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if n == nil || n == rng.Body {
			return true
		}
		return walk(n)
	})
	return out
}

// sortedAfter reports whether, in the block enclosing the range
// statement, a later statement passes the append target to a sort or
// slices call — the collect-then-sort idiom that restores determinism.
func sortedAfter(p *Package, rng *ast.RangeStmt, stack []ast.Node, target ast.Expr) bool {
	var block *ast.BlockStmt
	for i := len(stack) - 1; i >= 0; i-- {
		if b, ok := stack[i].(*ast.BlockStmt); ok {
			block = b
			break
		}
	}
	if block == nil {
		return false
	}
	targetRoot := rootIdentObj(p, target)
	if targetRoot == nil {
		return false
	}
	for _, stmt := range block.List {
		if stmt.Pos() <= rng.End() {
			continue
		}
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := p.calleeFunc(call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if pkg := fn.Pkg().Path(); pkg != "sort" && pkg != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if usesObject(p, arg, targetRoot) {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// rootIdentObj unwraps selectors and index expressions down to the
// expression's root identifier and resolves it to its object.
func rootIdentObj(p *Package, e ast.Expr) types.Object {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			if o := p.Info.Uses[t]; o != nil {
				return o
			}
			return p.Info.Defs[t]
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// usesObject reports whether the expression references obj.
func usesObject(p *Package, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == obj {
			found = true
			return false
		}
		return !found
	})
	return found
}
