package cast

// Loop extraction: the repo scanner's front end. ExtractLoops walks a
// parsed translation unit and returns every for-loop together with the
// context a scan report needs — the enclosing function, the loop's nesting
// depth among for-loops, and any `#pragma omp` line already attached to it.

// LoopInfo describes one extracted for-loop.
type LoopInfo struct {
	// Loop is the for-loop node; its Line/Col carry source provenance when
	// the file came from the parser.
	Loop *For
	// Function names the enclosing function definition, "" at file scope
	// (corpus-style loose snippets).
	Function string
	// Depth is the loop's for-nesting depth: 0 for an outermost for-loop,
	// 1 for a for directly inside another for, and so on. While/do-while
	// loops do not contribute to the depth.
	Depth int
	// Pragma is the text of a pragma line attached directly to this loop
	// (e.g. "pragma omp parallel for"), "" when the loop is bare. Scanners
	// use it to skip loops a developer already annotated.
	Pragma string
}

// ExtractLoops returns every for-loop in f in source order, outer loops
// before the loops nested inside them.
func ExtractLoops(f *File) []LoopInfo {
	return AppendLoops(nil, f)
}

// AppendLoops appends ExtractLoops(f) to dst and returns the extended
// slice, so a caller scanning many files can reuse one backing array.
func AppendLoops(dst []LoopInfo, f *File) []LoopInfo {
	for _, it := range f.Items {
		switch v := it.(type) {
		case *FuncDef:
			collectLoops(v.Body, v.Name, 0, "", &dst)
		case Stmt:
			collectLoops(v, "", 0, "", &dst)
		}
	}
	return dst
}

// collectLoops appends the for-loops under s. pragma carries the text of a
// PragmaStmt wrapping s, attaching to the first statement it annotates.
func collectLoops(s Stmt, fn string, depth int, pragma string, out *[]LoopInfo) {
	switch v := s.(type) {
	case nil:
	case *PragmaStmt:
		collectLoops(v.Stmt, fn, depth, v.Text, out)
	case *For:
		*out = append(*out, LoopInfo{Loop: v, Function: fn, Depth: depth, Pragma: pragma})
		collectLoops(v.Body, fn, depth+1, "", out)
	case *Block:
		for _, st := range v.Stmts {
			collectLoops(st, fn, depth, "", out)
		}
	case *While:
		collectLoops(v.Body, fn, depth, "", out)
	case *DoWhile:
		collectLoops(v.Body, fn, depth, "", out)
	case *If:
		collectLoops(v.Then, fn, depth, "", out)
		collectLoops(v.Else, fn, depth, "", out)
	}
}
