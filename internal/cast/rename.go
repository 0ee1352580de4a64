package cast

import "fmt"

// RenameResult maps original identifiers to their canonical replacements.
type RenameResult struct {
	Mapping map[string]string
}

// knownLibraryFuncs are never renamed: their identity carries semantics the
// classifier should see (the paper's LIME analysis shows fprintf/stderr
// driving "no pragma" predictions).
var knownLibraryFuncs = map[string]bool{
	"printf": true, "fprintf": true, "scanf": true, "fscanf": true,
	"sprintf": true, "snprintf": true, "puts": true, "putchar": true,
	"getchar": true, "fgets": true, "fputs": true, "fopen": true,
	"fclose": true, "fread": true, "fwrite": true, "fflush": true,
	"malloc": true, "calloc": true, "realloc": true, "free": true,
	"memcpy": true, "memset": true, "memmove": true, "strcpy": true,
	"strncpy": true, "strcat": true, "strcmp": true, "strlen": true,
	"rand": true, "srand": true, "exit": true, "abort": true,
	"sqrt": true, "sqrtf": true, "fabs": true, "fabsf": true, "abs": true,
	"sin": true, "cos": true, "tan": true, "exp": true, "log": true,
	"pow": true, "floor": true, "ceil": true, "fmax": true, "fmin": true,
	"stderr": true, "stdout": true, "stdin": true, "NULL": true,
}

// IsLibraryName reports whether name is a C standard-library identifier
// exempt from canonicalization.
func IsLibraryName(name string) bool { return knownLibraryFuncs[name] }

// Rename rewrites all user identifiers in n (in place) to canonical indexed
// names — scalar variables become var0, var1, ...; identifiers used as array
// bases become arr0, arr1, ...; called functions become func0, func1, ...;
// struct fields become fld0, ... — producing the paper's "Replaced"
// representations (R-Text and R-AST, §4.2). Standard library names are kept.
// The classification pass runs first over the whole tree so a name's role is
// consistent everywhere it appears; numbering follows first appearance.
func Rename(n Node) RenameResult {
	arrays := map[string]bool{}
	funcs := map[string]bool{}
	fields := map[string]bool{}

	Walk(n, func(nd Node) bool {
		switch v := nd.(type) {
		case *ArrayRef:
			if base := rootIdent(v.Arr); base != "" {
				arrays[base] = true
			}
		case *FuncCall:
			if id, ok := v.Fun.(*Ident); ok {
				funcs[id.Name] = true
			}
		case *FuncDef:
			funcs[v.Name] = true
		case *Member:
			fields[v.Field] = true
		case *Decl:
			if len(v.ArrayDims) > 0 || (v.Type != nil && v.Type.Ptr > 0) {
				arrays[v.Name] = true
			}
		}
		return true
	})

	mapping := map[string]string{}
	var counts [4]int // var, arr, func, fld
	assign := func(name string, class int) string {
		if knownLibraryFuncs[name] {
			return name
		}
		if r, ok := mapping[name]; ok {
			return r
		}
		prefixes := [...]string{"var", "arr", "func", "fld"}
		r := fmt.Sprintf("%s%d", prefixes[class], counts[class])
		counts[class]++
		mapping[name] = r
		return r
	}
	classOf := func(name string) int {
		switch {
		case funcs[name]:
			return 2
		case arrays[name]:
			return 1
		default:
			return 0
		}
	}

	Walk(n, func(nd Node) bool {
		switch v := nd.(type) {
		case *Ident:
			v.Name = assign(v.Name, classOf(v.Name))
		case *Decl:
			if v.Name != "" {
				v.Name = assign(v.Name, classOf(v.Name))
			}
		case *FuncDef:
			v.Name = assign(v.Name, 2)
		case *Member:
			if !fields[v.Field] { // defensive; fields map covers all
				fields[v.Field] = true
			}
			v.Field = assign(v.Field, 3)
		}
		return true
	})

	return RenameResult{Mapping: mapping}
}

// rootIdent returns the base identifier of a possibly nested postfix
// expression (a[i][j] -> a, s->p[i] -> s), or "" when there is none.
func rootIdent(e Expr) string {
	for {
		switch v := e.(type) {
		case *Ident:
			return v.Name
		case *ArrayRef:
			e = v.Arr
		case *Member:
			e = v.X
		case *UnaryOp:
			e = v.X
		case *Cast:
			e = v.X
		default:
			return ""
		}
	}
}

// RootIdent is the exported form of rootIdent for use by the dependence
// analyzer and the S2S compilers.
func RootIdent(e Expr) string { return rootIdent(e) }
