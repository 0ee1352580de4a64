package cast_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pragformer/internal/cast"
	"pragformer/internal/corpus"
	"pragformer/internal/cparse"
	"pragformer/internal/s2s"
)

// targetLoops returns the target loop of every record of a seed-1 corpus.
func targetLoops(t *testing.T) []*cast.For {
	t.Helper()
	var loops []*cast.For
	for _, r := range corpus.Generate(corpus.Config{Seed: 1, Total: 300}).Records {
		f, err := cparse.Parse(r.Code)
		if err != nil {
			t.Fatalf("record %d: %v", r.ID, err)
		}
		if loop := s2s.FirstLoop(f); loop != nil {
			loops = append(loops, loop)
		}
	}
	return loops
}

// exprs lists every expression of n, in walk order.
func exprs(n cast.Node) []cast.Node {
	var out []cast.Node
	cast.Walk(n, func(n cast.Node) bool {
		if _, ok := n.(cast.Expr); ok {
			out = append(out, n)
		}
		return true
	})
	return out
}

// TestPositionsMatchPrint: for every expression of every seed-1 corpus
// target loop, Positions reports where that expression's text begins in
// Print of the loop — its PrintExpr, or that in the parentheses its place
// calls for. A target the walk never reaches gets Pos{}, whatever pos held
// before, and a target listed twice gets its one position twice.
func TestPositionsMatchPrint(t *testing.T) {
	loops := targetLoops(t)
	if len(loops) < 200 {
		t.Fatalf("only %d target loops", len(loops))
	}
	checked := 0
	for _, loop := range loops {
		targets := exprs(loop)
		pos := make([]cast.Pos, len(targets))
		cast.Positions(loop, targets, pos)
		lines := strings.Split(cast.Print(loop), "\n")
		for k, e := range targets {
			p := pos[k]
			if p.Line < 1 || p.Line > len(lines) || p.Col < 1 || p.Col > len(lines[p.Line-1]) {
				t.Fatalf("%q at %+v: outside the print\n%s", cast.PrintExpr(e.(cast.Expr)), p, cast.Print(loop))
			}
			at, text := lines[p.Line-1][p.Col-1:], cast.PrintExpr(e.(cast.Expr))
			if !strings.HasPrefix(at, text) && !strings.HasPrefix(at, "("+text+")") {
				t.Fatalf("%q reported at %d:%d, where the print reads %q", text, p.Line, p.Col, at)
			}
			checked++
		}
	}
	t.Logf("%d expressions of %d loops", checked, len(loops))

	loop := loops[0]
	first := exprs(loop)[0]
	stranger := &cast.Ident{Name: "i"} // not in the loop, though its text is
	pos := []cast.Pos{{Line: 9, Col: 9}, {Line: 9, Col: 9}, {Line: 9, Col: 9}}
	cast.Positions(loop, []cast.Node{first, stranger, first}, pos)
	alone := make([]cast.Pos, 1)
	cast.Positions(loop, []cast.Node{first}, alone)
	if pos[0] != alone[0] || pos[2] != alone[0] || pos[1] != (cast.Pos{}) {
		t.Errorf("positions %+v for [target, stranger, target], want [%+v, {}, %[2]v]", pos, alone[0])
	}
}

// TestPositionsAllocs: once the printer pool holds a buffer, anchoring
// targets allocates nothing — the rendering is never made a string.
func TestPositionsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	for _, loop := range targetLoops(t)[:50] {
		targets := exprs(loop)
		pos := make([]cast.Pos, len(targets))
		cast.Positions(loop, targets, pos) // the buffer grows to this loop
		if n := testing.AllocsPerRun(20, func() { cast.Positions(loop, targets, pos) }); n != 0 {
			t.Fatalf("Positions allocates %.0f times on a warm buffer\n%s", n, cast.Print(loop))
		}
	}
}

// TestPositionsScalesLinearly: a printed node costs one lookup however many
// targets there are, so anchoring a loop with eight times the racing arrays
// takes about eight times as long. A scan of the targets at every node made
// it quadratic: 8,000 arrays took 3.2 s against 46 ms through a map.
func TestPositionsScalesLinearly(t *testing.T) {
	elapsed := func(arrays int) time.Duration {
		var b strings.Builder
		b.WriteString("for (i = 1; i < n; i++) {\n")
		for k := 0; k < arrays; k++ {
			fmt.Fprintf(&b, "a%d[i] = a%d[i - 1] + 1;\n", k, k)
		}
		b.WriteString("}\n")
		f, err := cparse.Parse(b.String())
		if err != nil {
			t.Fatal(err)
		}
		loop := s2s.FirstLoop(f)
		var targets []cast.Node
		for _, e := range exprs(loop) {
			if _, ok := e.(*cast.ArrayRef); ok {
				targets = append(targets, e)
			}
		}
		pos := make([]cast.Pos, len(targets))
		best := time.Duration(1 << 62)
		for range 3 {
			t0 := time.Now()
			cast.Positions(loop, targets, pos)
			best = min(best, time.Since(t0))
		}
		return best
	}
	small, large := elapsed(500), elapsed(4000)
	t.Logf("500 arrays %v, 4000 arrays %v", small, large)
	if large > 24*small {
		t.Errorf("8x the arrays took %.0fx as long, want about 8x", float64(large)/float64(small))
	}
}
