package dep

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pragformer/internal/cast"
)

// longLoop is a 3-deep nest over many arrays, members and symbols: it fills
// every slab of a workspace far past what the short test loops need.
func longLoop() string {
	var b strings.Builder
	b.WriteString("for (p = 1; p < np; p++) { for (q = 0; q < nq; q++) { for (r = 0; r < nr; r++) {\n")
	for s := 0; s < 40; s++ {
		fmt.Fprintf(&b, "u%d[p][q * nr + r] = u%d[p - 1][q * nr + r] + img->plane[q].w * v%d[idx[r]] + fabs(w%d[r + %d]);\n", s, s, s, s, s)
	}
	b.WriteString("} } }")
	return b.String()
}

// bodyLocalLoop declares t in its body, and conflictingInnerLoop reuses j
// with two headers: each leaves names in the workspace's tables that a
// loop analysed after it must not see.
const (
	bodyLocalLoop        = "for (i = 0; i < n; i++) { double t = a[i] * 2; b[i] = t + 1; }"
	conflictingInnerLoop = "for (i = 0; i < n; i++) { for (j = 0; j < m; j++) a[i][j] = 0; for (j = 1; j < k; j++) b[i][j] = b[i][j - 1]; }"
)

// workspaceLoops fill every slab and name table of a workspace; the long
// loop, last, fills the slabs far past what the others need.
var workspaceLoops = []string{
	"for (i = 1; i < n; i++) a[i] = a[i - 1] + 1;",
	"for (i = 0; i < n; i++) { for (j = 0; j < m; j++) c[i * m + j] = c[i * m + j] + x[j]; }",
	"for (i = 0; i < n; i++) hist[b[i]] += 1;",
	"for (i = 0; i < n; i++) { for (j = 0; j < 8; j++) tmp[j] = a[i][j]; for (j = 0; j < 8; j++) out[i][j] = tmp[j]; }",
	"for (i = 0; i < n; i++) s->total = s->total + img->pix[i].r;",
	"for (i = 0; i < 100; i += 2) { a[2 * i] = a[2 * i + 1]; t = a[i]; b[i] = t; }",
	bodyLocalLoop,
	"for (i = 0; i < n; i++) { t = a[i] * 2; b[i] = t + 1; }",
	"for (i = 0; i < n; i++) s += a[i];",
	"for (i = 0; i < n; i++) { s += a[i]; s *= b[i]; }",
	"for (i = 0; i < n; i++) { for (j = 0; j < m; j++) c[i * m + j] = x[j]; }",
	"for (i = 0; i < n; i++) { for (j = 0; j < 8; j++) { m = b[j]; d[i][j] = m; } }",
	conflictingInnerLoop,
	"for (i = 0; i < n; i++) a[i] = g(b[i]);",
	longLoop(),
}

func analysisJSON(t *testing.T, a *Analysis) string {
	t.Helper()
	b, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestWorkspaceCarriesNothingOver(t *testing.T) {
	type parsed struct {
		loop  *cast.For
		funcs map[string]*cast.FuncDef
	}
	var loops []parsed
	for _, src := range workspaceLoops {
		loop, funcs := parseLoop(t, src)
		loops = append(loops, parsed{loop, funcs})
	}
	short, long := loops[1], loops[len(loops)-1]

	// A result owns its memory: analysing a long unrelated loop through the
	// recycled workspace leaves it untouched, and the same loop analysed
	// again afterwards reads the same.
	first := AnalyzeLoop(short.loop, short.funcs).Convert()
	want := analysisJSON(t, first)
	AnalyzeLoop(long.loop, long.funcs).Convert()
	if got := analysisJSON(t, first); got != want {
		t.Errorf("a later analysis rewrote an earlier result:\n got %s\nwant %s", got, want)
	}
	if got := analysisJSON(t, AnalyzeLoop(short.loop, short.funcs).Convert()); got != want {
		t.Errorf("analysis after a long one differs:\n got %s\nwant %s", got, want)
	}

	// Concurrent analyses share nothing but the pool.
	sequential := make([]string, len(loops))
	for i, l := range loops {
		sequential[i] = analysisJSON(t, AnalyzeLoop(l.loop, l.funcs).Convert())
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 40; n++ {
				i := (g + n) % len(loops)
				b, err := json.Marshal(AnalyzeLoop(loops[i].loop, loops[i].funcs).Convert())
				if err != nil || string(b) != sequential[i] {
					t.Errorf("goroutine %d, loop %d: got %s (%v)\nwant %s", g, i, b, err, sequential[i])
				}
			}
		}(g)
	}
	wg.Wait()

	// A released workspace pins nothing: every slab is clean up to its
	// capacity, not just to its length.
	ws := new(workspace)
	for _, l := range loops {
		ws.analyze(new(Analysis), l.loop, l.funcs)
		ws.reset()
	}
	if cap(ws.ctx.accesses) == 0 || cap(ws.ctx.subs) == 0 || cap(ws.forms) == 0 || cap(ws.ns.coefs) == 0 || cap(ws.ns.syms) == 0 ||
		cap(ws.scalars.infos) == 0 || cap(ws.ctx.nestOrder) == 0 || cap(ws.targets) == 0 || cap(ws.pos) == 0 {
		t.Fatal("the test loops left a slab unused")
	}
	if ws.ctx.declared == nil || ws.ctx.unknownSeen == nil || ws.ctx.nestHeaders == nil || ws.ns.varying == nil || ws.scalars.at == nil {
		t.Fatal("the test loops left a name table unused")
	}
	for i, acc := range ws.ctx.accesses[:cap(ws.ctx.accesses)] {
		if acc.name != "" || acc.accumOp != "" || acc.subs != nil || acc.node != nil || acc.forms != nil {
			t.Fatalf("accesses[%d] survives release: %+v", i, acc)
		}
	}
	for i, e := range ws.ctx.subs[:cap(ws.ctx.subs)] {
		if e != nil {
			t.Fatalf("subs[%d] survives release", i)
		}
	}
	for i, acc := range ws.arrays[:cap(ws.arrays)] {
		if acc != nil {
			t.Fatalf("arrays[%d] survives release", i)
		}
	}
	for i, n := range ws.targets[:cap(ws.targets)] {
		if n != nil {
			t.Fatalf("targets[%d] survives release", i)
		}
	}
	for i, f := range ws.forms[:cap(ws.forms)] {
		if f.Coefs != nil || f.Syms != nil {
			t.Fatalf("forms[%d] survives release: %+v", i, f)
		}
	}
	for i, c := range ws.ns.coefs[:cap(ws.ns.coefs)] {
		if c != (nvCoef{}) {
			t.Fatalf("coefs[%d] survives release: %+v", i, c)
		}
	}
	for i, s := range ws.ns.syms[:cap(ws.ns.syms)] {
		if s != (SymCoef{}) {
			t.Fatalf("syms[%d] survives release: %+v", i, s)
		}
	}
	for i, v := range ws.ns.vars[:cap(ws.ns.vars)] {
		if v != "" {
			t.Fatalf("vars[%d] survives release: %q", i, v)
		}
	}
	for i, h := range ws.ns.headers[:cap(ws.ns.headers)] {
		if h.Var != "" || h.Lower.SymCoefs != nil || h.Upper.SymCoefs != nil {
			t.Fatalf("headers[%d] survives release: %+v", i, h)
		}
	}
	for i, info := range ws.scalars.infos[:cap(ws.scalars.infos)] {
		if info != (scalarInfo{}) {
			t.Fatalf("scalars[%d] survives release: %+v", i, info)
		}
	}
	for i, v := range ws.ctx.nestOrder[:cap(ws.ctx.nestOrder)] {
		if v != "" {
			t.Fatalf("nestOrder[%d] survives release: %q", i, v)
		}
	}
	// The name tables are kept for the next analysis, empty; the function
	// bodies belong to the caller and are dropped.
	if ws.ctx.funcs != nil {
		t.Fatal("the function table survives release")
	}
	for name, n := range map[string]int{
		"declared": len(ws.ctx.declared), "unknownSeen": len(ws.ctx.unknownSeen),
		"nestHeaders": len(ws.ctx.nestHeaders), "varying": len(ws.ns.varying), "scalars.at": len(ws.scalars.at),
	} {
		if n != 0 {
			t.Errorf("name table %s holds %d names after release", name, n)
		}
	}
}

// TestWorkspaceReuseEqualsFresh analyses every ordered pair of the
// workspace loops on one workspace, reset between the two: the second
// analysis of each pair, plain and converted, reads as it does on a
// workspace that never served a loop. A table a reset forgot to clear would
// show here as the first loop's names leaking into the second's verdict —
// a body-local t of one loop hiding the private(t) the next one needs.
func TestWorkspaceReuseEqualsFresh(t *testing.T) {
	type parsed struct {
		src   string
		loop  *cast.For
		funcs map[string]*cast.FuncDef
	}
	var loops []parsed
	for _, src := range workspaceLoops {
		loop, funcs := parseLoop(t, src)
		loops = append(loops, parsed{src, loop, funcs})
	}
	views := func(a *Analysis) [2]string { return [2]string{analysisJSON(t, a), analysisJSON(t, a.Convert())} }
	fresh := make([][2]string, len(loops))
	for i, l := range loops {
		a := new(Analysis)
		new(workspace).analyze(a, l.loop, l.funcs)
		fresh[i] = views(a)
	}
	// One workspace and one held analysis serve every pair: the second pass
	// overwrites all of the first's result, as a pooled unit's does.
	ws, held := new(workspace), new(Analysis)
	for _, a := range loops {
		for j, b := range loops {
			ws.analyze(held, a.loop, a.funcs)
			ws.reset()
			ws.analyze(held, b.loop, b.funcs)
			got := views(held)
			ws.reset()
			for v, view := range []string{"plain", "converted"} {
				if got[v] != fresh[j][v] {
					t.Errorf("%s after %q:\n got %s\nwant %s", view, a.src, got[v], fresh[j][v])
				}
			}
		}
	}
}
