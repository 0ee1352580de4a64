// Package corpus generates Open-OMP, the paper's corpus of C loop snippets
// with OpenMP labels, as a deterministic synthetic equivalent of the
// GitHub-mined original (see DESIGN.md for the substitution rationale).
// Ground-truth labels come from the real dependence analysis in internal/dep
// plus the profitability judgments the paper attributes to developers
// (thread-spawn overhead on small loops, I/O loops, unbalanced guards), so a
// classifier must learn genuine code features, not template artifacts.
package corpus

import (
	"fmt"
	"math/rand"
	"strings"

	"pragformer/internal/cast"
	"pragformer/internal/dep"
	"pragformer/internal/pragma"
)

// Domain tags the provenance mix reported in the paper's Figure 3.
type Domain int

const (
	// DomainUnknown marks snippets from repositories without a README.
	DomainUnknown Domain = iota
	// DomainBenchmark marks snippets from benchmark suites.
	DomainBenchmark
	// DomainTesting marks compiler-compatibility test snippets.
	DomainTesting
	// DomainGeneric marks generic applications (the default).
	DomainGeneric
)

// String returns the Figure 3 label for the domain.
func (d Domain) String() string {
	switch d {
	case DomainUnknown:
		return "Unknown (no README)"
	case DomainBenchmark:
		return "Benchmark"
	case DomainTesting:
		return "Testing"
	default:
		return "Generic Application"
	}
}

// Record is one corpus entry: a code snippet with its OpenMP ground truth,
// mirroring the paper's per-record (code.c, pragma.c, pickle.pkl) triple.
type Record struct {
	ID   int
	Code string
	// Directive is the ground-truth OpenMP directive; nil when the snippet
	// should not be parallelized.
	Directive *pragma.Directive
	Domain    Domain
	// Template names the generating family (diagnostics only; classifiers
	// never see it).
	Template string
	Lines    int
}

// HasOMP reports whether the record carries a directive (RQ1 label).
func (r *Record) HasOMP() bool { return r.Directive != nil }

// NeedsPrivate reports the RQ2 private label.
func (r *Record) NeedsPrivate() bool { return r.Directive.HasPrivate() }

// NeedsReduction reports the RQ2 reduction label.
func (r *Record) NeedsReduction() bool { return r.Directive.HasReduction() }

// Corpus is the generated database.
type Corpus struct {
	Records []*Record
}

// Config controls generation.
type Config struct {
	// Seed drives all randomness; equal seeds give identical corpora.
	Seed int64
	// Total is the snippet count (the paper's raw database has 17,013).
	Total int
}

// DefaultTotal matches the paper's corpus size (Table 3).
const DefaultTotal = 17013

// positiveFraction is the share of records with directives: the paper's
// raw database has 7,630/17,013 ≈ 0.4485.
const positiveFraction = 7630.0 / 17013.0

// profitabilityTrip is the constant trip count below which a dependence-free
// loop is still left serial by developers (RQ1 rationale in §2.1.1): the
// cost of spawning threads outweighs the gain.
const profitabilityTrip = 64

// positiveTemplates and negativeTemplates define the snippet families and
// their sampling weights, tuned so corpus statistics land near Tables 3–4.
var positiveTemplates = []template{
	{"vecInit", 6, tplVecInit},
	{"vecMap", 7, tplVecMap},
	{"axpy", 5, tplAxpy},
	{"stencil", 5, tplStencil},
	{"strided", 3, tplStrided},
	{"gather", 3, tplGather},
	{"conditionalStore", 4, tplConditionalStore},
	{"structArray", 3, tplStructArray},
	{"pureCall", 12, tplPureCall},
	{"longBody", 3, tplLongBody},
	{"privateTempDecl", 3, tplPrivateTempDecl},
	{"mat2D", 8, tplMat2D},
	{"matVec", 12, tplMatVec},
	{"matMul", 9, tplMatMul},
	{"privateTemp", 20, tplPrivateTemp},
	{"reduceSum", 8, tplReduceSum},
	{"reduceExplicit", 6, tplReduceExplicit},
	{"reduceMax", 2, tplReduceMax},
	{"reduceNested", 5, tplReduceNested},
	{"unbalanced", 5, tplUnbalanced},
}

var negativeTemplates = []template{
	{"tinyLoop", 46, tplTinyLoop},
	{"tinyNested", 20, tplTinyNested},
	{"tinyIO", 4, tplTinyIO},
	{"recurrence", 8, tplRecurrence},
	{"prefixSum", 5, tplPrefixSum},
	{"horner", 4, tplHorner},
	{"ioPrint", 9, tplIOPrint},
	{"randFill", 4, tplRandFill},
	{"allocLoop", 3, tplAllocLoop},
	{"breakSearch", 5, tplBreakSearch},
	{"scatter", 6, tplScatter},
	{"overlapShift", 4, tplOverlapShift},
	{"inPlaceStencil", 4, tplInPlaceStencil},
	{"impureCall", 7, tplImpureCall},
	{"loopVarMutation", 2, tplLoopVarMutation},
	{"strcatLoop", 2, tplStrcatLoop},
	{"fileWrite", 2, tplFileWrite},
	{"linkedList", 1, tplLinkedList},
	{"accumDependent", 3, tplAccumulateDependent},
}

func pickTemplate(rng *rand.Rand, pool []template) template {
	total := 0
	for _, t := range pool {
		total += t.weight
	}
	n := rng.Intn(total)
	for _, t := range pool {
		n -= t.weight
		if n < 0 {
			return t
		}
	}
	return pool[len(pool)-1]
}

// Generate builds a corpus deterministically from cfg.
func Generate(cfg Config) *Corpus {
	if cfg.Total == 0 {
		cfg.Total = DefaultTotal
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &genCtx{}
	targetPos := int(float64(cfg.Total)*positiveFraction + 0.5)

	c := &Corpus{}
	seen := map[string]bool{}
	pos := 0
	for len(c.Records) < cfg.Total {
		wantPositive := pos < targetPos &&
			(len(c.Records)-pos >= cfg.Total-targetPos || rng.Intn(cfg.Total) < targetPos)
		pool := negativeTemplates
		if wantPositive {
			pool = positiveTemplates
		}
		tpl := pickTemplate(rng, pool)
		s := tpl.build(rng, g)
		hardenSnippet(rng, s)
		extendSnippet(rng, s, drawLengthTarget(rng))

		directive, _ := labelSnippet(s)
		if wantPositive != (directive != nil) {
			// A template landed on the wrong side of the ground-truth
			// labeler (possible when randomized constants cross the
			// profitability threshold); re-draw.
			continue
		}
		code := renderSnippet(s)
		if seen[code] {
			continue
		}
		seen[code] = true
		rec := &Record{
			ID:        len(c.Records),
			Code:      code,
			Directive: directive,
			Domain:    drawDomain(rng),
			Template:  tpl.name,
			Lines:     strings.Count(code, "\n"),
		}
		c.Records = append(c.Records, rec)
		if directive != nil {
			pos++
		}
	}
	return c
}

// labelSnippet computes the ground-truth directive for a snippet: nil when
// the dependence analysis finds the loop serial, when it is unprofitable
// (constant trip count under profitabilityTrip), and otherwise the
// analysis' own directive (dep.Analysis.Directive): the clause set a careful
// developer would write — private/reduction from the analysis (without the
// redundant loop-variable private) plus schedule(dynamic) for unbalanced
// bodies.
func labelSnippet(s *snippet) (*pragma.Directive, *dep.Analysis) {
	a := dep.AnalyzeLoop(s.loop, s.funcs)
	if !a.Parallelizable {
		return nil, a
	}
	if tc := a.Header.TripCount(); tc >= 0 && tc < profitabilityTrip {
		return nil, a
	}
	return a.Directive(), a
}

// renderSnippet prints the snippet's code text.
func renderSnippet(s *snippet) string {
	f := &cast.File{Items: s.items}
	return cast.Print(f)
}

// hardenSnippet injects, with the paper's observed ~17% frequency, a
// construct that breaks the S2S frontends (register declarations, union
// tags, non-standard typedef names in casts) without altering the
// dependence structure.
func hardenSnippet(rng *rand.Rand, s *snippet) {
	if rng.Intn(100) >= 17 {
		return
	}
	switch rng.Intn(3) {
	case 0:
		d := &cast.DeclStmt{Decls: []*cast.Decl{{
			Type: &cast.TypeSpec{Quals: []string{"register"}, Names: []string{"int"}},
			Name: "r0",
		}}}
		s.items = append([]cast.Node{d}, s.items...)
	case 1:
		d := &cast.DeclStmt{Decls: []*cast.Decl{{
			Type: &cast.TypeSpec{Struct: "conv_u", Union: true, Ptr: 1},
			Name: "u0",
		}}}
		s.items = append([]cast.Node{d}, s.items...)
	case 2:
		// Wrap the loop bound in an (ssize_t) cast.
		if bin, ok := s.loop.Cond.(*cast.BinaryOp); ok {
			bin.R = &cast.Cast{Type: &cast.TypeSpec{Names: []string{"ssize_t"}}, X: bin.R}
		}
	}
}

// lengthBuckets are the Table 4 line-count bands and their corpus shares.
var lengthBuckets = []struct {
	maxLines int
	permille int
}{
	{10, 580},
	{50, 342},
	{100, 43},
	{180, 35},
}

// drawLengthTarget samples a target line count following Table 4.
func drawLengthTarget(rng *rand.Rand) int {
	n := rng.Intn(1000)
	lo := 1
	for _, b := range lengthBuckets {
		n -= b.permille
		if n < 0 {
			if b.maxLines == 10 {
				return 0 // no extension; templates are naturally short
			}
			return lo + rng.Intn(b.maxLines-lo)
		}
		lo = b.maxLines + 1
	}
	return 0
}

// extendSnippet stretches the snippet toward target lines by appending
// label-neutral elementwise statements to the loop body. Loops whose header
// is not normalizable (already negative) are left alone.
func extendSnippet(rng *rand.Rand, s *snippet, targetLines int) {
	if targetLines <= 0 {
		return
	}
	h := dep.ParseHeader(s.loop)
	if !h.OK {
		return
	}
	cur := strings.Count(renderSnippet(s), "\n")
	if cur >= targetLines {
		return
	}
	nm := names{rng}
	body, ok := s.loop.Body.(*cast.Block)
	if !ok {
		body = block(s.loop.Body.(cast.Stmt))
		s.loop.Body = body
	}
	need := targetLines - cur - 2 // braces cost two lines
	for x := 0; x < need; x++ {
		dst := nm.uniqueTag("w", x)
		src := nm.uniqueTag("r", x)
		body.Stmts = append(body.Stmts, es(asg(aref(id(dst), id(h.Var)),
			bin("*", aref(id(src), id(h.Var)), flit(nm.floatConst())))))
	}
}

// drawDomain samples the Figure 3 provenance mix.
func drawDomain(rng *rand.Rand) Domain {
	n := rng.Intn(1000)
	switch {
	case n < 335:
		return DomainUnknown
	case n < 335+165:
		return DomainBenchmark
	case n < 335+165+70:
		return DomainTesting
	default:
		return DomainGeneric
	}
}

// ---------------------------------------------------------------------------
// Statistics (Tables 3, 4 and Figure 3)
// ---------------------------------------------------------------------------

// Stats reproduces the Table 3 row counts.
type Stats struct {
	Total           int
	WithDirective   int
	ScheduleStatic  int // directives without schedule(dynamic), as Table 3 counts them
	ScheduleDynamic int
	Reduction       int
	Private         int
}

// Stats computes Table 3 statistics.
func (c *Corpus) Stats() Stats {
	var s Stats
	s.Total = len(c.Records)
	for _, r := range c.Records {
		if !r.HasOMP() {
			continue
		}
		s.WithDirective++
		if r.Directive.Schedule == pragma.ScheduleDynamic {
			s.ScheduleDynamic++
		} else {
			s.ScheduleStatic++
		}
		if r.NeedsReduction() {
			s.Reduction++
		}
		if r.NeedsPrivate() {
			s.Private++
		}
	}
	return s
}

// LengthHistogram reproduces Table 4: counts for ≤10, 11–50, 51–100, >100
// line snippets.
func (c *Corpus) LengthHistogram() [4]int {
	var h [4]int
	for _, r := range c.Records {
		switch {
		case r.Lines <= 10:
			h[0]++
		case r.Lines <= 50:
			h[1]++
		case r.Lines <= 100:
			h[2]++
		default:
			h[3]++
		}
	}
	return h
}

// DomainDistribution reproduces Figure 3 as fractions by domain.
func (c *Corpus) DomainDistribution() map[Domain]float64 {
	counts := map[Domain]int{}
	for _, r := range c.Records {
		counts[r.Domain]++
	}
	out := map[Domain]float64{}
	for d, n := range counts {
		out[d] = float64(n) / float64(len(c.Records))
	}
	return out
}

// Positives returns the records carrying directives.
func (c *Corpus) Positives() []*Record {
	var out []*Record
	for _, r := range c.Records {
		if r.HasOMP() {
			out = append(out, r)
		}
	}
	return out
}

// String summarizes the corpus.
func (c *Corpus) String() string {
	s := c.Stats()
	return fmt.Sprintf("Open-OMP: %d snippets (%d with directives; %d reduction, %d private, %d dynamic)",
		s.Total, s.WithDirective, s.Reduction, s.Private, s.ScheduleDynamic)
}
