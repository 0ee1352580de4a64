package corpus

import (
	"math/rand"
	"strings"
	"testing"

	"pragformer/internal/cast"
	"pragformer/internal/cparse"
	"pragformer/internal/dep"
)

const testTotal = 1200

var testCorpus = Generate(Config{Seed: 1, Total: testTotal}) // shared across tests

func TestGenerateCounts(t *testing.T) {
	if len(testCorpus.Records) != testTotal {
		t.Fatalf("records = %d", len(testCorpus.Records))
	}
	s := testCorpus.Stats()
	posFrac := float64(s.WithDirective) / float64(s.Total)
	if posFrac < 0.42 || posFrac > 0.48 {
		t.Errorf("positive fraction = %.3f, want ≈ 0.4485 (Table 3)", posFrac)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c2 := Generate(Config{Seed: 1, Total: 300})
	c3 := Generate(Config{Seed: 1, Total: 300})
	for i := range c2.Records {
		if c2.Records[i].Code != c3.Records[i].Code {
			t.Fatalf("record %d differs between equal-seed runs", i)
		}
		if c2.Records[i].HasOMP() != c3.Records[i].HasOMP() {
			t.Fatalf("record %d label differs", i)
		}
	}
	c4 := Generate(Config{Seed: 2, Total: 300})
	same := 0
	for i := range c2.Records {
		if c2.Records[i].Code == c4.Records[i].Code {
			same++
		}
	}
	if same > 50 {
		t.Errorf("different seeds produced %d/300 identical records", same)
	}
}

func TestRecordsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range testCorpus.Records {
		if seen[r.Code] {
			t.Fatalf("duplicate record: %s", r.Code)
		}
		seen[r.Code] = true
	}
}

func TestAllRecordsParse(t *testing.T) {
	for _, r := range testCorpus.Records {
		if _, err := cparse.Parse(r.Code); err != nil {
			t.Fatalf("record %d (%s) does not parse: %v\n%s", r.ID, r.Template, err, r.Code)
		}
	}
}

func TestAllRecordsContainForLoop(t *testing.T) {
	for _, r := range testCorpus.Records {
		if !strings.Contains(r.Code, "for") && !strings.Contains(r.Code, "while") {
			t.Fatalf("record %d has no loop:\n%s", r.ID, r.Code)
		}
	}
}

// TestLabelsAreConsistent re-derives each positive record's label from its
// own code text plus the generator's analysis path: a record labeled
// positive must never contain an obvious serial marker.
func TestLabelsAreConsistent(t *testing.T) {
	for _, r := range testCorpus.Records {
		if !r.HasOMP() {
			continue
		}
		for _, bad := range []string{"printf", "fprintf", "rand()", "malloc", "strcat", "break;"} {
			if strings.Contains(r.Code, bad) {
				t.Errorf("positive record %d (%s) contains %q:\n%s", r.ID, r.Template, bad, r.Code)
			}
		}
	}
}

// TestPositiveSelfContainedRecordsPassDep verifies that positives whose
// function bodies are fully included in the code re-analyze as
// parallelizable from text alone.
func TestPositiveSelfContainedRecordsPassDep(t *testing.T) {
	checked := 0
	for _, r := range testCorpus.Records {
		if !r.HasOMP() || checked > 200 {
			continue
		}
		f, err := cparse.Parse(r.Code)
		if err != nil {
			t.Fatal(err)
		}
		funcs := map[string]*cast.FuncDef{}
		var loop *cast.For
		for _, it := range f.Items {
			if fd, ok := it.(*cast.FuncDef); ok {
				funcs[fd.Name] = fd
				continue
			}
			cast.Walk(it, func(n cast.Node) bool {
				if l, ok := n.(*cast.For); ok && loop == nil {
					loop = l
					return false
				}
				return true
			})
		}
		if loop == nil {
			t.Fatalf("positive record %d has no for-loop", r.ID)
		}
		a := dep.AnalyzeLoop(loop, funcs)
		// Records with omitted callee bodies legitimately fail text-only
		// analysis; all others must pass.
		if !a.Parallelizable && len(a.UnknownCalls) == 0 {
			t.Errorf("record %d (%s) labeled positive but text-only analysis says serial: %v\n%s",
				r.ID, r.Template, a.Reasons, r.Code)
		}
		checked++
	}
}

func TestClauseProportions(t *testing.T) {
	s := testCorpus.Stats()
	red := float64(s.Reduction) / float64(s.WithDirective)
	priv := float64(s.Private) / float64(s.WithDirective)
	dyn := float64(s.ScheduleDynamic) / float64(s.WithDirective)
	if red < 0.10 || red > 0.30 {
		t.Errorf("reduction fraction = %.3f, want ≈ 0.19", red)
	}
	if priv < 0.28 || priv > 0.60 {
		t.Errorf("private fraction = %.3f, want ≈ 0.45", priv)
	}
	if dyn < 0.02 || dyn > 0.10 {
		t.Errorf("dynamic fraction = %.3f, want ≈ 0.05", dyn)
	}
	if s.ScheduleStatic+s.ScheduleDynamic != s.WithDirective {
		t.Error("schedule counts do not partition directives")
	}
}

func TestLengthHistogramShape(t *testing.T) {
	h := testCorpus.LengthHistogram()
	tot := h[0] + h[1] + h[2] + h[3]
	if tot != testTotal {
		t.Fatalf("histogram total = %d", tot)
	}
	// Table 4 shape: monotonically decreasing with a heavy head.
	if !(h[0] > h[1] && h[1] > h[2]) {
		t.Errorf("histogram not head-heavy: %v", h)
	}
	if float64(h[0])/float64(tot) < 0.45 {
		t.Errorf("short-snippet share = %.2f, want ≈ 0.58", float64(h[0])/float64(tot))
	}
	if h[3] == 0 {
		t.Error("no >100-line snippets generated")
	}
}

func TestDomainDistributionShape(t *testing.T) {
	d := testCorpus.DomainDistribution()
	if d[DomainGeneric] < 0.35 || d[DomainGeneric] > 0.51 {
		t.Errorf("generic = %.3f, want ≈ 0.43", d[DomainGeneric])
	}
	if d[DomainUnknown] < 0.27 || d[DomainUnknown] > 0.41 {
		t.Errorf("unknown = %.3f, want ≈ 0.335", d[DomainUnknown])
	}
	if d[DomainTesting] < 0.03 || d[DomainTesting] > 0.12 {
		t.Errorf("testing = %.3f, want ≈ 0.07", d[DomainTesting])
	}
}

func TestPositivesNegativesPartition(t *testing.T) {
	var want []*Record
	for _, r := range testCorpus.Records {
		if r.Directive != nil {
			want = append(want, r)
		}
	}
	pos := testCorpus.Positives()
	if len(pos) != len(want) {
		t.Fatalf("positives = %d, records with a directive = %d", len(pos), len(want))
	}
	for k, r := range pos {
		if r != want[k] {
			t.Fatalf("positives[%d] is not the %d-th record with a directive", k, k)
		}
	}
}

func TestHardeningPresent(t *testing.T) {
	var hardened int
	for _, r := range testCorpus.Records {
		if strings.Contains(r.Code, "register") || strings.Contains(r.Code, "union") ||
			strings.Contains(r.Code, "ssize_t") {
			hardened++
		}
	}
	frac := float64(hardened) / float64(len(testCorpus.Records))
	if frac < 0.08 || frac > 0.30 {
		t.Errorf("hardened fraction = %.3f, want ≈ 0.17 (paper: 221/1,274 parse failures)", frac)
	}
}

func TestPolyBenchCounts(t *testing.T) {
	pb := GeneratePolyBench(7)
	if len(pb.Records) != 147 {
		t.Fatalf("polybench total = %d, want 147", len(pb.Records))
	}
	if p := len(pb.Positives()); p != 64 {
		t.Fatalf("polybench positives = %d, want 64", p)
	}
	for _, r := range pb.Records {
		if _, err := cparse.Parse(r.Code); err != nil {
			t.Fatalf("polybench record %d does not parse: %v\n%s", r.ID, err, r.Code)
		}
	}
}

func TestPolyBenchUsesLoopBoundMacro(t *testing.T) {
	pb := GeneratePolyBench(7)
	var macro int
	for _, r := range pb.Positives() {
		if strings.Contains(r.Code, "POLYBENCH_LOOP_BOUND") {
			macro++
		}
	}
	if macro < 50 {
		t.Errorf("only %d/64 positives use POLYBENCH_LOOP_BOUND", macro)
	}
}

func TestPolyBenchMatVecHasPrivate(t *testing.T) {
	pb := GeneratePolyBench(7)
	for _, r := range pb.Positives() {
		if r.Template == "pbMatVec" {
			if !r.NeedsPrivate() {
				t.Errorf("pbMatVec record lacks private clause: %s", r.Directive)
			}
			return
		}
	}
	t.Fatal("no pbMatVec record")
}

func TestSPECCounts(t *testing.T) {
	sp := GenerateSPEC(7)
	if len(sp.Records) != 287 {
		t.Fatalf("spec total = %d, want 287", len(sp.Records))
	}
	if p := len(sp.Positives()); p != 113 {
		t.Fatalf("spec positives = %d, want 113", p)
	}
	for _, r := range sp.Records {
		if _, err := cparse.Parse(r.Code); err != nil {
			t.Fatalf("spec record %d does not parse: %v\n%s", r.ID, err, r.Code)
		}
	}
}

func TestSPECContainsPaperConstructs(t *testing.T) {
	sp := GenerateSPEC(7)
	var ssize, reg, dyn int
	for _, r := range sp.Records {
		if strings.Contains(r.Code, "ssize_t") {
			ssize++
		}
		if strings.Contains(r.Code, "register") {
			reg++
		}
		if r.HasOMP() && r.Directive.Schedule.String() == "dynamic" {
			dyn++
		}
	}
	if ssize < 20 || reg < 20 {
		t.Errorf("ssize_t = %d, register = %d; want both ≥ 20", ssize, reg)
	}
	if dyn == 0 {
		t.Error("no schedule(dynamic,4) colormap records (paper Table 12 ex. 3)")
	}
}

func TestTemplateVariety(t *testing.T) {
	seen := map[string]int{}
	for _, r := range testCorpus.Records {
		seen[r.Template]++
	}
	if len(seen) < 30 {
		t.Errorf("only %d template families in corpus", len(seen))
	}
}

func TestLabelSnippetRules(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := &genCtx{}
	// Tiny loop must label negative despite being dependence-free.
	s := tplTinyLoop(rng, g)
	if d, _ := labelSnippet(s); d != nil {
		t.Error("tiny loop labeled positive")
	}
	// Reduction template labels positive with a reduction clause.
	s = tplReduceSum(rng, g)
	d, a := labelSnippet(s)
	if d == nil || !d.HasReduction() {
		t.Errorf("reduceSum label = %v (%v)", d, a.Reasons)
	}
	// The label never includes the loop variable as private.
	s = tplMatVec(rng, g)
	d, _ = labelSnippet(s)
	if d == nil {
		t.Fatal("matVec labeled negative")
	}
	h := dep.ParseHeader(s.loop)
	for _, p := range d.Private {
		if p == h.Var {
			t.Errorf("loop variable %q in private clause %v", h.Var, d.Private)
		}
	}
}

func TestDomainString(t *testing.T) {
	for _, d := range []Domain{DomainUnknown, DomainBenchmark, DomainTesting, DomainGeneric} {
		if d.String() == "" {
			t.Errorf("empty name for domain %d", d)
		}
	}
}

func TestCorpusString(t *testing.T) {
	if !strings.Contains(testCorpus.String(), "Open-OMP") {
		t.Error("String() missing corpus name")
	}
}

func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(Config{Seed: int64(i), Total: 200})
	}
}
