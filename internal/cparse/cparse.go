// Package cparse is a recursive-descent parser for the C subset used by the
// Open-OMP corpus, standing in for the paper's use of pycparser. It handles
// declarations (pointers, arrays, struct tags, typedefs, storage classes),
// the statement forms found in loop snippets, the full C expression
// precedence ladder, and attaches `#pragma omp` lines to the statements that
// follow them.
package cparse

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pragformer/internal/cast"
	"pragformer/internal/clex"
)

// builtinTypes are typedef names that real corpus code uses without
// declaring (the paper's SPEC examples use ssize_t, IndexPacket...). Read
// only: a parse's own typedefs go in Parser.typedefs.
var builtinTypes = map[string]bool{
	"size_t": true, "ssize_t": true, "ptrdiff_t": true, "FILE": true,
	"int8_t": true, "int16_t": true, "int32_t": true, "int64_t": true,
	"uint8_t": true, "uint16_t": true, "uint32_t": true, "uint64_t": true,
	"IndexPacket": true, "PixelPacket": true, "MagickBooleanType": true,
	"bool": true, "uint": true, "ulong": true, "real_t": true,
}

// Parser parses a token stream into a cast.File. Parsers are pooled with
// their slabs: the nodes of a ParseTree live in them until Release, and the
// token buffer and the list stacks pass from one parse to the next.
type Parser struct {
	toks     []clex.Token
	pos      int
	typedefs map[string]bool // names this source typedef'd; nil until the first
	slabs

	// buf is what a parse lexes into: an AST keeps token texts (substrings
	// of the source), never tokens.
	buf []clex.Token
	// stmts stacks the statements of the blocks being parsed, innermost
	// last, items the file's, decls the declarators or parameters of the
	// list being parsed and args the arguments of the calls being parsed, so
	// that a finished list is carved at its exact size.
	stmts []cast.Stmt
	items []cast.Node
	decls []*cast.Decl
	args  []cast.Expr

	// tree is what ParseTree lends out, so that a tree costs no allocation.
	tree Tree
}

var parsers = sync.Pool{New: func() any { return new(Parser) }}

// release returns p to the pool holding nothing of the parse behind it:
// neither a token text, which would pin the source, nor a node. The slabs
// are zeroed where the parse used them.
func (p *Parser) release() {
	p.reset()
	*p = Parser{slabs: p.slabs, buf: empty(p.buf), stmts: empty(p.stmts), items: empty(p.items), decls: empty(p.decls),
		args: empty(p.args)}
	parsers.Put(p)
}

func empty[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// slabs backs the node kinds that make up most of a parse, and the lists
// that hold them, with one array per kind instead of one allocation per
// node. A slab grows when a parse needs it, and a pooled parser keeps each
// kind's largest array for the next parse, so in steady state a parse
// allocates no node.
type slabs struct {
	idents    slab[cast.Ident]
	ints      slab[cast.IntLit]
	floats    slab[cast.FloatLit]
	binarys   slab[cast.BinaryOp]
	assigns   slab[cast.Assign]
	unarys    slab[cast.UnaryOp]
	arrays    slab[cast.ArrayRef]
	exprStmts slab[cast.ExprStmt]
	blocks    slab[cast.Block]
	fors      slab[cast.For]
	files     slab[cast.File]
	itemLists slab[cast.Node]
	stmtLists slab[cast.Stmt]
	typeSpecs slab[typeSpecBuf]
	funcDefs  slab[cast.FuncDef]
	declStmts slab[cast.DeclStmt]
	declNodes slab[cast.Decl]
	declLists slab[*cast.Decl]
	calls     slab[cast.FuncCall]
	argLists  slab[cast.Expr]
	ifs       slab[cast.If]
	strs      slab[cast.StrLit]
	members   slab[cast.Member]
	pragmas   slab[cast.PragmaStmt]
	returns   slab[cast.Return]
	whiles    slab[cast.While]
	casts     slab[cast.Cast]
	sizeofs   slab[cast.Sizeof]
}

// kind is one slab, of whatever node type.
type kind interface{ reset() }

// kinds lists every slab.
func (s *slabs) kinds() [28]kind {
	return [...]kind{&s.idents, &s.ints, &s.floats, &s.binarys, &s.assigns,
		&s.unarys, &s.arrays, &s.exprStmts, &s.blocks, &s.fors, &s.files, &s.itemLists, &s.stmtLists,
		&s.typeSpecs, &s.funcDefs, &s.declStmts, &s.declNodes, &s.declLists, &s.calls, &s.argLists, &s.ifs,
		&s.strs, &s.members, &s.pragmas, &s.returns, &s.whiles, &s.casts, &s.sizeofs}
}

// reset zeroes every slot the last parse handed out, in every slab.
func (s *slabs) reset() {
	for _, k := range s.kinds() {
		k.reset()
	}
}

// minSlab is the least length of a slab's first array.
const minSlab = 32

// slab is one kind's array: a parse hands its slots out in order. An array
// the parse outgrew stays in old, holding the nodes it handed out, until
// reset.
type slab[T any] struct {
	buf  []T
	used int
	old  [][]T
}

// reset zeroes the handed-out slots, outgrown arrays' included, and keeps
// only buf, the largest array, for the next parse.
func (s *slab[T]) reset() {
	clear(s.buf[:s.used])
	for _, o := range s.old {
		clear(o)
	}
	s.old, s.used = empty(s.old), 0
}

// carve hands out the slab's next k slots, capped so that an append through
// the result cannot run into the next carve. When they do not fit, the slab
// moves to a new array at least twice as long.
func carve[T any](s *slab[T], k int) []T {
	if s.used+k > len(s.buf) {
		if s.used > 0 {
			s.old = append(s.old, s.buf[:s.used])
		}
		s.buf, s.used = make([]T, max(2*len(s.buf), minSlab, k)), 0
	}
	s.used += k
	return s.buf[s.used-k : s.used : s.used]
}

// put stores v in the next slot of a slab.
func put[T any](s *slab[T], v T) *T {
	n := &carve(s, 1)[0]
	*n = v
	return n
}

// pop ends the list stacked above mark: it is carved out of s at its exact
// size and its stack slots are zeroed. An empty list is nil, as append
// leaves it.
func pop[T any](s *slab[T], stack *[]T, mark int) []T {
	list := (*stack)[mark:]
	if len(list) == 0 {
		return nil
	}
	out := carve(s, len(list))
	copy(out, list)
	clear(list)
	*stack = (*stack)[:mark]
	return out
}

// parses counts Parse calls process-wide; see Parses.
var parses atomic.Int64

// Parses reports the cumulative number of Parse calls in this process — a
// testing hook for parse budgets (a scan parses each file once and each
// advised loop once more, from its text, for its corroboration).
func Parses() int64 { return parses.Load() }

// Parse parses C source text into an AST. It runs on a parser of its own,
// whose slabs leave with the tree.
func Parse(src string) (*cast.File, error) {
	parses.Add(1)
	p := new(Parser)
	var err error
	if p.toks, err = clex.Append(nil, src); err != nil {
		return nil, err
	}
	f, _, err := p.parseFile(true)
	return f, err
}

// ParseRecover parses as much of src as possible. When a top-level item
// fails, the error is recorded with its position and the parser
// resynchronizes at the next statement boundary (';' or a balanced '}' at
// nesting depth zero), so one broken function no longer suppresses every
// other loop in the file. The returned file holds the items that did parse;
// errs carries one structured error per failed region. Like Parse, it runs
// on a parser of its own.
func ParseRecover(src string) (*cast.File, []*Error) {
	return new(Parser).parseRecover(src)
}

// Tree is a ParseRecover result whose nodes live in the slabs of the pooled
// parser that made it, until Release hands them back. Nothing read out of
// the tree may be used after that but strings, which never point into a
// slab: token texts are substrings of the source.
type Tree struct {
	File *cast.File
	Errs []*Error
	p    *Parser
}

// ParseTree is ParseRecover into the pooled parser's own slabs, so that a
// parse in steady state allocates next to nothing.
func ParseTree(src string) *Tree {
	p := parsers.Get().(*Parser)
	p.tree.File, p.tree.Errs = p.parseRecover(src)
	p.tree.p = p
	return &p.tree
}

// Release zeroes every slab slot the tree used and returns its parser to the
// pool. Call it once, after the last read of a node.
func (t *Tree) Release() { t.p.release() }

// Tokens returns the token stream the tree was parsed from, EOF last. A
// source that failed to lex stops short of EOF, and Errs[0].Msg is the lex
// error's text. It lives in the pooled parser until Release.
func (t *Tree) Tokens() []clex.Token { return t.p.buf }

func (p *Parser) parseRecover(src string) (*cast.File, []*Error) {
	parses.Add(1)
	var err error
	if p.buf, err = clex.Append(p.buf, src); err != nil {
		e := &Error{Msg: err.Error()}
		if line, col, ok := Position(err); ok {
			e.Line, e.Col = line, col
		}
		return &cast.File{}, []*Error{e}
	}
	p.toks = p.buf
	f, errs, _ := p.parseFile(false)
	return f, errs
}

// resync skips tokens until a statement boundary at nesting depth zero: the
// ';' ending a broken declaration or the '}' closing a broken function. A
// failure deep inside a function leaves unmatched closers behind (the parser
// already consumed the openers), so trailing stray '}' are swallowed too —
// at the top level a bare '}' is never the start of a valid item.
func (p *Parser) resync() {
	depth := 0
	for p.cur().Kind != clex.EOF {
		t := p.next()
		switch t.Text {
		case "{", "(", "[":
			depth++
		case ")", "]":
			if depth > 0 {
				depth--
			}
		case "}":
			if depth > 0 {
				depth--
			}
			if depth == 0 {
				p.swallowClosers()
				return
			}
		case ";":
			if depth == 0 {
				p.swallowClosers()
				return
			}
		}
	}
}

func (p *Parser) swallowClosers() {
	for p.cur().Kind != clex.EOF && p.cur().Text == "}" {
		p.next()
	}
}

func (p *Parser) cur() clex.Token  { return p.toks[p.pos] }
func (p *Parser) peek() clex.Token { return p.at(1) }

func (p *Parser) at(off int) clex.Token {
	if p.pos+off >= len(p.toks) {
		return p.toks[len(p.toks)-1] // EOF
	}
	return p.toks[p.pos+off]
}

func (p *Parser) next() clex.Token {
	t := p.cur()
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) accept(text string) bool {
	if p.cur().Kind != clex.EOF && p.cur().Text == text {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(text string) error {
	if p.accept(text) {
		return nil
	}
	t := p.cur()
	return &Error{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf("expected %q, got %q", text, t.Text)}
}

func (p *Parser) errorf(format string, args ...any) error {
	t := p.cur()
	return &Error{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

// parseFile parses top-level items up to EOF. strict stops at the first
// error and returns it; otherwise each failed region is recorded and
// skipped (see ParseRecover).
func (p *Parser) parseFile(strict bool) (*cast.File, []*Error, error) {
	var errs []*Error
	for p.cur().Kind != clex.EOF {
		start := p.pos
		n, err := p.parseTopLevel()
		if err == nil {
			if n != nil {
				p.items = append(p.items, n)
			}
			// A parse that consumed nothing would loop forever; does not
			// happen with the current grammar, but guard anyway.
			if p.pos == start && n == nil {
				p.next()
			}
			continue
		}
		if strict {
			return nil, nil, err
		}
		// The grammar's errors are *Error already, positioned where the
		// region failed; anything else keeps its text.
		e, ok := err.(*Error)
		if !ok {
			e = &Error{Msg: err.Error()}
		}
		errs = append(errs, e)
		if p.pos == start {
			p.next()
		}
		p.resync()
	}
	return put(&p.files, cast.File{Items: pop(&p.itemLists, &p.items, 0)}), errs, nil
}

// parseTopLevel parses a function definition, declaration, or loose
// statement. Corpus snippets are usually loose statements (a bare for-loop).
func (p *Parser) parseTopLevel() (cast.Node, error) {
	if p.cur().Kind == clex.Pragma {
		if fd := p.pragmasBeforeFunc(); fd != nil {
			return fd, nil
		}
		return p.parseStatement()
	}
	if p.startsDecl() {
		// Could be a declaration or a function definition; decide by
		// scanning for '(' after the declarator name at paren depth 0.
		save := p.pos
		fd, isFunc, err := p.tryFuncDef()
		if err != nil {
			return nil, err
		}
		if isFunc {
			return fd, nil
		}
		p.pos = save
		ds, err := p.parseDeclLine()
		if err != nil {
			return nil, err
		}
		return ds, nil
	}
	return p.parseStatement()
}

// pragmasBeforeFunc parses a run of pragmas followed by a function
// definition (`#pragma omp declare simd`, `declare target`): each pragma
// becomes a bodiless top-level PragmaStmt and the definition is returned.
// Before anything else it consumes nothing and returns nil, and the pragma
// annotates the statement or declaration that follows.
func (p *Parser) pragmasBeforeFunc() *cast.FuncDef {
	save := p.pos
	for p.cur().Kind == clex.Pragma {
		p.next()
	}
	if p.startsDecl() {
		decls := len(p.decls)
		if fd, isFunc, err := p.tryFuncDef(); err == nil && isFunc {
			for k := save; k < p.pos && p.toks[k].Kind == clex.Pragma; k++ {
				p.items = append(p.items, put(&p.pragmas, cast.PragmaStmt{Text: p.toks[k].Text}))
			}
			return fd
		}
		p.decls = p.decls[:decls]
	}
	p.pos = save
	return nil
}

// isTypedef reports whether name is a builtin or source-declared typedef.
func (p *Parser) isTypedef(name string) bool {
	return builtinTypes[name] || p.typedefs[name]
}

// declWords are the keywords that can begin a declaration.
var declWords = map[string]bool{
	"int": true, "char": true, "float": true, "double": true, "long": true, "short": true, "signed": true,
	"unsigned": true, "void": true, "const": true, "volatile": true, "static": true, "extern": true,
	"register": true, "struct": true, "union": true, "enum": true, "typedef": true, "auto": true,
	"inline": true, "restrict": true,
}

// startsDecl reports whether the current token can begin a declaration.
func (p *Parser) startsDecl() bool {
	t := p.cur()
	switch t.Kind {
	case clex.Keyword:
		return declWords[t.Text]
	case clex.Ident:
		// A typedef name followed by an identifier or '*' begins a decl.
		if !p.isTypedef(t.Text) {
			return false
		}
		n := p.peek()
		return n.Kind == clex.Ident || n.Text == "*"
	}
	return false
}

// tryFuncDef attempts to parse `type name(params) { body }`. Returns
// (nil,false,nil) if the construct is not a function definition.
func (p *Parser) tryFuncDef() (*cast.FuncDef, bool, error) {
	ts, err := p.parseTypeSpec()
	if err != nil {
		return nil, false, nil //nolint:nilerr // fall back to decl path
	}
	if p.cur().Kind != clex.Ident {
		return nil, false, nil
	}
	name := p.cur().Text
	if p.peek().Text != "(" {
		return nil, false, nil
	}
	p.next() // name
	p.next() // (
	mark := len(p.decls)
	if !p.accept(")") {
		for {
			if p.cur().Text == "void" && p.peek().Text == ")" {
				p.next()
				break
			}
			pt, err := p.parseTypeSpec()
			if err != nil {
				return nil, false, err
			}
			pd := put(&p.declNodes, cast.Decl{Type: pt})
			if p.cur().Kind == clex.Ident {
				pd.Name = p.next().Text
			}
			for p.cur().Text == "[" {
				p.next()
				if p.cur().Text == "]" {
					pd.ArrayDims = append(pd.ArrayDims, nil)
				} else {
					dim, err := p.parseExpr(precAssign)
					if err != nil {
						return nil, false, err
					}
					pd.ArrayDims = append(pd.ArrayDims, dim)
				}
				if err := p.expect("]"); err != nil {
					return nil, false, err
				}
			}
			p.decls = append(p.decls, pd)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, false, err
		}
	}
	params := pop(&p.declLists, &p.decls, mark)
	if p.cur().Text != "{" {
		// Function prototype: treat as a no-body definition.
		if p.accept(";") {
			return put(&p.funcDefs, cast.FuncDef{ReturnType: ts, Name: name, Params: params, Body: &cast.Block{}}), true, nil
		}
		return nil, false, nil
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, false, err
	}
	return put(&p.funcDefs, cast.FuncDef{ReturnType: ts, Name: name, Params: params, Body: body}), true, nil
}

// parseTypeSpec parses qualifiers, struct/union tags, type names and
// pointer stars.
func (p *Parser) parseTypeSpec() (*cast.TypeSpec, error) {
	b := put(&p.typeSpecs, typeSpecBuf{})
	ts := &b.TypeSpec
	seenType := false
	for {
		t := p.cur()
		if t.Kind == clex.Keyword {
			switch t.Text {
			case "const", "volatile", "static", "extern", "register", "auto", "inline", "restrict":
				b.addQual(t.Text)
				p.next()
				continue
			case "struct", "union":
				ts.Union = t.Text == "union"
				p.next()
				if p.cur().Kind != clex.Ident {
					return nil, p.errorf("expected struct tag")
				}
				ts.Struct = p.next().Text
				seenType = true
				continue
			case "int", "char", "float", "double", "long", "short", "signed", "unsigned", "void":
				b.addName(t.Text)
				p.next()
				seenType = true
				continue
			}
		}
		if t.Kind == clex.Ident && !seenType && p.isTypedef(t.Text) {
			b.addName(t.Text)
			p.next()
			seenType = true
			continue
		}
		break
	}
	if !seenType && ts.Struct == "" {
		if len(ts.Quals) > 0 {
			b.addName("int") // e.g. `register i`
		} else {
			return nil, p.errorf("expected type, got %q", p.cur().Text)
		}
	}
	for p.accept("*") {
		ts.Ptr++
	}
	return ts, nil
}

// parseDeclLine parses `type a = 1, *b, c[10];` into a DeclStmt.
func (p *Parser) parseDeclLine() (*cast.DeclStmt, error) {
	isTypedef := p.accept("typedef")
	base, err := p.parseTypeSpec()
	if err != nil {
		return nil, err
	}
	mark := len(p.decls)
	// The first declarator takes base itself (parseTypeSpec has eaten its
	// stars, so it adds none) and each later one a copy.
	for typ := base; ; typ = p.cloneTypeSpec(base) {
		d := put(&p.declNodes, cast.Decl{Type: typ, IsTypedef: isTypedef})
		for p.accept("*") {
			d.Type.Ptr++
		}
		if p.cur().Kind != clex.Ident {
			return nil, p.errorf("expected declarator name, got %q", p.cur().Text)
		}
		d.Name = p.next().Text
		for p.cur().Text == "[" {
			p.next()
			if p.cur().Text == "]" {
				d.ArrayDims = append(d.ArrayDims, nil)
			} else {
				dim, err := p.parseExpr(precAssign)
				if err != nil {
					return nil, err
				}
				d.ArrayDims = append(d.ArrayDims, dim)
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
		}
		if p.accept("=") {
			init, err := p.parseInitializer()
			if err != nil {
				return nil, err
			}
			d.Init = init
		}
		if isTypedef {
			if p.typedefs == nil {
				p.typedefs = map[string]bool{}
			}
			p.typedefs[d.Name] = true
		}
		p.decls = append(p.decls, d)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return put(&p.declStmts, cast.DeclStmt{Decls: pop(&p.declLists, &p.decls, mark)}), nil
}

func (p *Parser) parseInitializer() (cast.Expr, error) {
	if p.cur().Text == "{" {
		p.next()
		il := &cast.InitList{}
		for p.cur().Text != "}" {
			e, err := p.parseInitializer()
			if err != nil {
				return nil, err
			}
			il.Elems = append(il.Elems, e)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect("}"); err != nil {
			return nil, err
		}
		return il, nil
	}
	return p.parseExpr(precAssign)
}

func (p *Parser) cloneTypeSpec(t *cast.TypeSpec) *cast.TypeSpec {
	b := put(&p.typeSpecs, typeSpecBuf{TypeSpec: cast.TypeSpec{Struct: t.Struct, Union: t.Union, Ptr: t.Ptr}})
	for _, q := range t.Quals {
		b.addQual(q)
	}
	for _, n := range t.Names {
		b.addName(n)
	}
	return &b.TypeSpec
}

// typeSpecBuf is a TypeSpec allocated together with room for the one or two
// words nearly every type name has and the one qualifier nearly every
// qualified type has.
type typeSpecBuf struct {
	cast.TypeSpec
	names [2]string
	quals [1]string
}

func (b *typeSpecBuf) addName(word string) { b.Names = addWord(b.Names, b.names[:0], word) }
func (b *typeSpecBuf) addQual(word string) { b.Quals = addWord(b.Quals, b.quals[:0], word) }

// addWord appends word to list, which starts out in room.
func addWord(list, room []string, word string) []string {
	if list == nil {
		list = room
	}
	return append(list, word)
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

func (p *Parser) parseBlock() (*cast.Block, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	mark := len(p.stmts)
	for p.cur().Text != "}" {
		if p.cur().Kind == clex.EOF {
			return nil, p.errorf("unexpected EOF in block")
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		p.stmts = append(p.stmts, s)
	}
	p.next() // }
	return put(&p.blocks, cast.Block{Stmts: pop(&p.stmtLists, &p.stmts, mark)}), nil
}

func (p *Parser) parseStatement() (cast.Stmt, error) {
	t := p.cur()
	if t.Kind == clex.Pragma {
		p.next()
		ps := put(&p.pragmas, cast.PragmaStmt{Text: t.Text})
		if p.cur().Kind != clex.EOF && p.cur().Text != "}" {
			s, err := p.parseStatement()
			if err != nil {
				return nil, err
			}
			ps.Stmt = s
		}
		return ps, nil
	}
	switch t.Text {
	case "{":
		return p.parseBlock()
	case ";":
		p.next()
		return &cast.Empty{}, nil
	case "for":
		return p.parseFor()
	case "while":
		return p.parseWhile()
	case "do":
		return p.parseDoWhile()
	case "if":
		return p.parseIf()
	case "return":
		p.next()
		r := put(&p.returns, cast.Return{})
		if p.cur().Text != ";" {
			e, err := p.parseExpr(precLowest)
			if err != nil {
				return nil, err
			}
			r.X = e
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return r, nil
	case "break":
		p.next()
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &cast.Break{}, nil
	case "continue":
		p.next()
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &cast.Continue{}, nil
	}
	if p.startsDecl() {
		return p.parseDeclLine()
	}
	e, err := p.parseExpr(precLowest)
	if err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return put(&p.exprStmts, cast.ExprStmt{X: e}), nil
}

func (p *Parser) parseFor() (cast.Stmt, error) {
	kw := p.next() // for
	if err := p.expect("("); err != nil {
		return nil, err
	}
	f := put(&p.fors, cast.For{Line: kw.Line, Col: kw.Col})
	if p.cur().Text != ";" {
		if p.startsDecl() {
			ds, err := p.parseDeclLine() // consumes ';'
			if err != nil {
				return nil, err
			}
			f.Init = ds
		} else {
			e, err := p.parseExpr(precLowest)
			if err != nil {
				return nil, err
			}
			f.Init = put(&p.exprStmts, cast.ExprStmt{X: e})
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		}
	} else {
		p.next()
	}
	if p.cur().Text != ";" {
		c, err := p.parseExpr(precLowest)
		if err != nil {
			return nil, err
		}
		f.Cond = c
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	if p.cur().Text != ")" {
		post, err := p.parseExpr(precLowest)
		if err != nil {
			return nil, err
		}
		f.Post = post
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

func (p *Parser) parseWhile() (cast.Stmt, error) {
	p.next()
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr(precLowest)
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	return put(&p.whiles, cast.While{Cond: cond, Body: body}), nil
}

func (p *Parser) parseDoWhile() (cast.Stmt, error) {
	p.next()
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if err := p.expect("while"); err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr(precLowest)
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return &cast.DoWhile{Body: body, Cond: cond}, nil
}

func (p *Parser) parseIf() (cast.Stmt, error) {
	p.next()
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr(precLowest)
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	then, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	st := put(&p.ifs, cast.If{Cond: cond, Then: then})
	if p.accept("else") {
		els, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		st.Else = els
	}
	return st, nil
}
