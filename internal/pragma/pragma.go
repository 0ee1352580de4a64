// Package pragma models OpenMP directives for for-loops: the subset the
// paper's corpus keeps (`#pragma omp parallel for` with private,
// firstprivate, reduction, schedule, nowait and collapse clauses), with a
// parser for pragma lines and a canonical printer.
package pragma

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// ScheduleKind enumerates OpenMP loop schedules.
type ScheduleKind int

const (
	// ScheduleNone means no schedule clause (OpenMP defaults to static).
	ScheduleNone ScheduleKind = iota
	// ScheduleStatic divides iterations into equal contiguous chunks.
	ScheduleStatic
	// ScheduleDynamic hands out chunks on demand — the paper's remedy for
	// unbalanced loops that S2S compilers miss.
	ScheduleDynamic
	// ScheduleGuided uses exponentially shrinking chunks.
	ScheduleGuided
)

// String returns the OpenMP spelling of the schedule kind.
func (k ScheduleKind) String() string {
	switch k {
	case ScheduleStatic:
		return "static"
	case ScheduleDynamic:
		return "dynamic"
	case ScheduleGuided:
		return "guided"
	default:
		return ""
	}
}

// Reduction is a single reduction clause: an operator and its variables.
type Reduction struct {
	Op   string // one of + * - & | ^ && || max min
	Vars []string
}

// Directive is a parsed `#pragma omp parallel for` line.
type Directive struct {
	ParallelFor  bool
	Private      []string
	FirstPrivate []string
	Shared       []string
	Reductions   []Reduction
	Schedule     ScheduleKind
	Chunk        int // 0 when unspecified
	NoWait       bool
	Collapse     int // 0 when unspecified
}

// HasPrivate reports whether the directive carries any private or
// firstprivate clause (the paper's RQ2 private task).
func (d *Directive) HasPrivate() bool {
	return d != nil && (len(d.Private) > 0 || len(d.FirstPrivate) > 0)
}

// HasReduction reports whether the directive carries a reduction clause
// (the paper's RQ2 reduction task).
func (d *Directive) HasReduction() bool {
	return d != nil && len(d.Reductions) > 0
}

// validReductionOps are the operators OpenMP accepts in reduction clauses.
var validReductionOps = map[string]bool{
	"+": true, "*": true, "-": true, "&": true, "|": true, "^": true,
	"&&": true, "||": true, "max": true, "min": true,
}

// String prints the directive as a canonical pragma line, with clause order
// and variable order normalized so equal directives print identically.
func (d *Directive) String() string {
	if d == nil {
		return ""
	}
	var stack [128]byte // most directives fit: the string is the one allocation
	b := append(stack[:0], "#pragma omp parallel for"...)
	if len(d.Private) > 0 {
		b = appendVars(append(b, " private("...), d.Private)
	}
	if len(d.FirstPrivate) > 0 {
		b = appendVars(append(b, " firstprivate("...), d.FirstPrivate)
	}
	if len(d.Shared) > 0 {
		b = appendVars(append(b, " shared("...), d.Shared)
	}
	reds := d.Reductions
	byOp := func(a, b Reduction) int { return strings.Compare(a.Op, b.Op) }
	if !slices.IsSortedFunc(reds, byOp) {
		reds = slices.Clone(reds)
		slices.SortStableFunc(reds, byOp)
	}
	for _, r := range reds {
		b = append(b, " reduction("...)
		b = append(b, r.Op...)
		b = appendVars(append(b, ':'), r.Vars)
	}
	if d.Schedule != ScheduleNone {
		b = append(b, " schedule("...)
		b = append(b, d.Schedule.String()...)
		if d.Chunk > 0 {
			b = strconv.AppendInt(append(b, ','), int64(d.Chunk), 10)
		}
		b = append(b, ')')
	}
	if d.Collapse > 0 {
		b = strconv.AppendInt(append(b, " collapse("...), int64(d.Collapse), 10)
		b = append(b, ')')
	}
	if d.NoWait {
		b = append(b, " nowait"...)
	}
	return string(b)
}

// appendVars appends vars in sorted order, comma-separated, and the clause's
// closing parenthesis. A list already in order is read in place.
func appendVars(b []byte, vars []string) []byte {
	if !slices.IsSorted(vars) {
		vars = slices.Clone(vars)
		slices.Sort(vars)
	}
	for i, v := range vars {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, v...)
	}
	return append(b, ')')
}

// Parse parses a pragma line. Accepted spellings include a leading "#",
// a leading "pragma", or just "omp parallel for ...". Returns nil (no error)
// for omp pragmas that are not parallel-for directives (e.g. `omp critical`),
// mirroring the corpus exclusion criteria; returns an error for lines that
// are not omp pragmas at all or that have malformed clauses.
func Parse(line string) (*Directive, error) {
	s := strings.TrimSpace(line)
	s = strings.TrimPrefix(s, "#")
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "pragma")
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "omp") {
		return nil, fmt.Errorf("pragma: not an omp pragma: %q", line)
	}
	s = strings.TrimSpace(strings.TrimPrefix(s, "omp"))

	toks, err := tokenize(s)
	if err != nil {
		return nil, err
	}
	p := &lineParser{toks: toks}

	d := &Directive{}
	if !p.accept("parallel") {
		return nil, nil // omp but not a loop directive: excluded from corpus
	}
	if !p.accept("for") {
		return nil, nil // plain `omp parallel` region: excluded
	}
	d.ParallelFor = true

	for !p.done() {
		name := p.next()
		switch name {
		case "private", "firstprivate", "shared":
			vars, err := p.parenList()
			if err != nil {
				return nil, err
			}
			switch name {
			case "private":
				d.Private = append(d.Private, vars...)
			case "firstprivate":
				d.FirstPrivate = append(d.FirstPrivate, vars...)
			case "shared":
				d.Shared = append(d.Shared, vars...)
			}
		case "reduction":
			if err := p.expect("("); err != nil {
				return nil, err
			}
			op := p.next()
			// Two-token operators arrive split.
			if (op == "&" || op == "|") && p.peek() == op {
				op += p.next()
			}
			if !validReductionOps[op] {
				return nil, fmt.Errorf("pragma: invalid reduction operator %q", op)
			}
			if err := p.expect(":"); err != nil {
				return nil, err
			}
			var vars []string
			for {
				v := p.next()
				if v == "" {
					return nil, fmt.Errorf("pragma: unterminated reduction clause")
				}
				vars = append(vars, v)
				if p.peek() == "," {
					p.next()
					continue
				}
				break
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			d.Reductions = append(d.Reductions, Reduction{Op: op, Vars: vars})
		case "schedule":
			if err := p.expect("("); err != nil {
				return nil, err
			}
			kind := p.next()
			switch kind {
			case "static":
				d.Schedule = ScheduleStatic
			case "dynamic":
				d.Schedule = ScheduleDynamic
			case "guided":
				d.Schedule = ScheduleGuided
			case "auto", "runtime":
				d.Schedule = ScheduleStatic // folded, rare in the corpus
			default:
				return nil, fmt.Errorf("pragma: unknown schedule kind %q", kind)
			}
			if p.peek() == "," {
				p.next()
				n, err := strconv.Atoi(p.next())
				if err != nil {
					return nil, fmt.Errorf("pragma: bad schedule chunk: %v", err)
				}
				d.Chunk = n
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
		case "collapse":
			if err := p.expect("("); err != nil {
				return nil, err
			}
			n, err := strconv.Atoi(p.next())
			if err != nil {
				return nil, fmt.Errorf("pragma: bad collapse count: %v", err)
			}
			d.Collapse = n
			if err := p.expect(")"); err != nil {
				return nil, err
			}
		case "nowait":
			d.NoWait = true
		case "default":
			// default(shared|none): parse and ignore.
			if err := p.expect("("); err != nil {
				return nil, err
			}
			p.next()
			if err := p.expect(")"); err != nil {
				return nil, err
			}
		case "num_threads", "if":
			if err := p.expect("("); err != nil {
				return nil, err
			}
			depth := 1
			for depth > 0 && !p.done() {
				switch p.next() {
				case "(":
					depth++
				case ")":
					depth--
				}
			}
		default:
			return nil, fmt.Errorf("pragma: unknown clause %q", name)
		}
	}
	return d, nil
}

// Equal reports whether two directives are semantically identical (clause
// sets compared order-insensitively via the canonical printer).
func Equal(a, b *Directive) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a.String() == b.String()
}

// lineParser is a trivial token cursor for pragma clause text.
type lineParser struct {
	toks []string
	pos  int
}

func (p *lineParser) done() bool { return p.pos >= len(p.toks) }

func (p *lineParser) peek() string {
	if p.done() {
		return ""
	}
	return p.toks[p.pos]
}

func (p *lineParser) next() string {
	t := p.peek()
	if !p.done() {
		p.pos++
	}
	return t
}

func (p *lineParser) accept(t string) bool {
	if p.peek() == t {
		p.pos++
		return true
	}
	return false
}

func (p *lineParser) expect(t string) error {
	if p.accept(t) {
		return nil
	}
	return fmt.Errorf("pragma: expected %q, got %q", t, p.peek())
}

// parenList parses "( a , b , c )" into its identifiers.
func (p *lineParser) parenList() ([]string, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var vars []string
	for {
		v := p.next()
		switch v {
		case "", ")":
			if len(vars) == 0 {
				return nil, fmt.Errorf("pragma: empty variable list")
			}
			if v == ")" {
				return vars, nil
			}
			return nil, fmt.Errorf("pragma: unterminated variable list")
		case ",":
			continue
		default:
			vars = append(vars, v)
		}
	}
}

// tokenize splits clause text into words, parens, commas, colons and
// operator characters.
func tokenize(s string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '(' || c == ')' || c == ',' || c == ':':
			toks = append(toks, string(c))
			i++
		case c == '+' || c == '*' || c == '-' || c == '&' || c == '|' || c == '^' ||
			c == '<' || c == '>' || c == '=' || c == '!' || c == '/' || c == '%' || c == '.':
			// Comparison/arithmetic characters appear inside if(...) guard
			// expressions; they tokenize as opaque single characters.
			toks = append(toks, string(c))
			i++
		case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9'):
			j := i
			for j < len(s) && (s[j] == '_' || (s[j] >= 'a' && s[j] <= 'z') || (s[j] >= 'A' && s[j] <= 'Z') || (s[j] >= '0' && s[j] <= '9')) {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		default:
			return nil, fmt.Errorf("pragma: unexpected character %q", c)
		}
	}
	return toks, nil
}
