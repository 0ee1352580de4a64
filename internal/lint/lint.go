// Package lint holds pragformer's project-specific static checks, run in CI
// as a `go vet -vettool` (cmd/pflint). Three checks, all purely syntactic so
// the tool needs no type information or export data:
//
//   - poolbalance: a function that takes buffers from a pool — the tensor
//     pool (GetVec/GetMatrix/GetInt8Matrix and their Dirty variants), a
//     borrow list (Borrow/BorrowDirty/BorrowClone: nn.Borrows, a
//     training step's matrices), a parse tree or an S2S
//     unit (ParseTree, NewUnit) — but neither returns them
//     (PutVec/PutMatrix/PutInt8Matrix, Release) nor hands them off — by
//     returning the buffer or storing it in a field/global — leaks pool
//     capacity: the pool never shrinks a hot path back to steady state.
//
//   - determinism: the inference packages (nn, quant, lime, dep) promise
//     byte-identical outputs across runs — the scan golden gates and warm
//     cache diffs depend on it. Calls to time.Now or the math/rand global
//     functions inside them break that promise silently. Explicitly seeded
//     generators (rand.New(rand.NewSource(...))) stay allowed.
//
//   - obsimport: the compute-kernel packages (nn, quant, tensor, dep) must
//     not import internal/obs. Telemetry belongs in the serving and scan
//     layers; a counter inside a kernel inner loop is a perf hazard and
//     couples the numeric core to the runtime's metric registry. Timings
//     for these layers are recorded by their callers.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one lint diagnostic.
type Finding struct {
	Pos token.Position
	Msg string
}

// deterministicPkgs lists the package names whose outputs must be
// reproducible bit-for-bit.
var deterministicPkgs = map[string]bool{
	"nn": true, "quant": true, "lime": true, "dep": true,
}

// obsFreePkgs lists the package names that must stay free of telemetry:
// the numeric kernels and the dependence engine. Their callers time them.
var obsFreePkgs = map[string]bool{
	"nn": true, "quant": true, "tensor": true, "dep": true,
}

// obsImportPath is the telemetry package kernels must not depend on.
const obsImportPath = "pragformer/internal/obs"

// poolFamilies maps each pool acquire entry point to the call that gives
// its buffers back.
var poolFamilies = map[string]string{
	"GetVec": "PutVec", "GetVecDirty": "PutVec",
	"GetMatrix": "PutMatrix", "GetMatrixDirty": "PutMatrix",
	"GetInt8Matrix": "PutInt8Matrix",
	// Borrow lists: nn.Borrows.
	"Borrow": "Release", "BorrowDirty": "Release", "BorrowClone": "Release",
	// A cparse tree lends the pooled parser's slabs until Tree.Release, an
	// S2S unit itself and the slabs of its parse until Unit.Release.
	"ParseTree": "Release", "NewUnit": "Release", "newUnit": "Release",
}

// CheckFile runs every check over one parsed file and returns its findings
// ordered by position. pkgName is the package's declared name (not import
// path): the determinism check keys off it.
func CheckFile(fset *token.FileSet, file *ast.File, pkgName string) []Finding {
	var out []Finding
	out = append(out, checkPoolBalance(fset, file)...)
	if deterministicPkgs[pkgName] {
		out = append(out, checkDeterminism(fset, file)...)
	}
	if obsFreePkgs[pkgName] {
		out = append(out, checkObsImport(fset, file)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Pos.Column < out[j].Pos.Column
	})
	return out
}

// checkPoolBalance flags functions that acquire pool buffers without any
// call to the matching release and without a way to transfer ownership:
// returning a reference-shaped value (slice/pointer/interface — the buffer
// may be handed to the caller, whose own balance is checked separately)
// counts as a transfer, and so does storing into a struct field / global
// what is acquired: an acquire call itself, or a name one was assigned to.
// Storing anything else into a field transfers nothing.
func checkPoolBalance(fset *token.FileSet, file *ast.File) []Finding {
	var out []Finding
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		gets := map[string]token.Pos{} // release call -> first acquire position
		calls := map[string]bool{}
		acquired := map[string]bool{} // names assigned an acquired value
		escapes := returnsReference(fn)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				name := calleeName(v)
				if rel, ok := poolFamilies[name]; ok {
					if _, seen := gets[rel]; !seen {
						gets[rel] = v.Pos()
					}
				}
				calls[name] = true
			case *ast.AssignStmt:
				for i, lhs := range v.Lhs {
					rhs := ast.Unparen(v.Rhs[min(i, len(v.Rhs)-1)]) // one call may give several results
					id, _ := rhs.(*ast.Ident)
					held := acquires(rhs) || id != nil && acquired[id.Name]
					switch lhs := lhs.(type) {
					case *ast.Ident:
						acquired[lhs.Name] = acquired[lhs.Name] || held
					case *ast.SelectorExpr:
						escapes = escapes || held // stored into a field or package var
					}
				}
			}
			return true
		})
		if escapes {
			continue
		}
		rels := make([]string, 0, len(gets))
		for rel := range gets {
			if !calls[rel] {
				rels = append(rels, rel)
			}
		}
		sort.Strings(rels)
		for _, rel := range rels {
			out = append(out, Finding{
				Pos: fset.Position(gets[rel]),
				Msg: fmt.Sprintf("%s acquires a pooled buffer but never calls %s (pool leak)",
					fn.Name.Name, rel),
			})
		}
	}
	return out
}

// checkDeterminism flags time.Now and math/rand global-function calls. The
// receivers are matched by the file's own import names, so aliased imports
// are caught and local variables that happen to be called "rand" are not.
func checkDeterminism(fset *token.FileSet, file *ast.File) []Finding {
	timeName, randName := importName(file, "time"), importName(file, "math/rand")
	if timeName == "" && randName == "" {
		return nil
	}
	var out []Finding
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv, ok := sel.X.(*ast.Ident)
		if !ok || recv.Obj != nil { // Obj != nil: a local shadows the import
			return true
		}
		switch {
		case timeName != "" && recv.Name == timeName && sel.Sel.Name == "Now":
			out = append(out, Finding{Pos: fset.Position(call.Pos()),
				Msg: "time.Now in a deterministic package (outputs must be reproducible)"})
		case randName != "" && recv.Name == randName &&
			sel.Sel.Name != "New" && sel.Sel.Name != "NewSource":
			out = append(out, Finding{Pos: fset.Position(call.Pos()),
				Msg: fmt.Sprintf("rand.%s uses the global generator in a deterministic package (seed a rand.New(rand.NewSource(...)) instead)",
					sel.Sel.Name)})
		}
		return true
	})
	return out
}

// checkObsImport flags any import of internal/obs — under any alias,
// including blank and dot imports (even a blank import drags the registry
// into the kernel's dependency graph).
func checkObsImport(fset *token.FileSet, file *ast.File) []Finding {
	var out []Finding
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) == obsImportPath {
			out = append(out, Finding{Pos: fset.Position(imp.Pos()),
				Msg: "kernel package imports internal/obs (telemetry belongs in the serving/scan layers; callers time the kernels)"})
		}
	}
	return out
}

// acquires reports whether e is a call to a pool acquire entry point.
func acquires(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	_, ok = poolFamilies[calleeName(call)]
	return ok
}

// returnsReference reports whether fn can smuggle a buffer out through its
// results: any slice, pointer, map, or interface-shaped result counts.
// Scalar-only signatures (int, float64, bool, string, error-free) cannot
// carry the buffer, so a missing Put there is a real leak.
func returnsReference(fn *ast.FuncDecl) bool {
	if fn.Type.Results == nil {
		return false
	}
	for _, field := range fn.Type.Results.List {
		switch t := field.Type.(type) {
		case *ast.StarExpr, *ast.ArrayType, *ast.MapType, *ast.InterfaceType,
			*ast.ChanType, *ast.FuncType, *ast.Ellipsis:
			return true
		case *ast.Ident:
			if t.Name == "any" {
				return true
			}
		}
	}
	return false
}

// calleeName extracts the called function's bare name: `GetVec(...)` and
// `tensor.GetVec(...)` both yield "GetVec".
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// importName returns the name under which path is imported in file, "" when
// it is not imported. An explicit alias wins; otherwise the path's base.
func importName(file *ast.File, path string) string {
	for _, imp := range file.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:]
		}
		return p
	}
	return ""
}
