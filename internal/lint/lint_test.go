package lint

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func check(t *testing.T, src string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "x.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return CheckFile(fset, file, file.Name.Name)
}

func TestPoolLeakFlagged(t *testing.T) {
	fs := check(t, `package nn
import "pragformer/internal/tensor"
func leaky(n int) float64 {
	v := tensor.GetVec(n)
	s := 0.0
	for _, x := range v { s += x }
	return s
}`)
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "PutVec") {
		t.Fatalf("findings = %+v, want one PutVec leak", fs)
	}
}

func TestPoolBalancedIsClean(t *testing.T) {
	fs := check(t, `package nn
import "pragformer/internal/tensor"
func fine(n int) float64 {
	v := tensor.GetVec(n)
	defer tensor.PutVec(v)
	return v[0]
}`)
	if len(fs) != 0 {
		t.Fatalf("findings = %+v, want none", fs)
	}
}

func TestPoolOwnershipTransferAllowed(t *testing.T) {
	// Returning a reference-shaped value may hand the buffer to the caller.
	fs := check(t, `package nn
import "pragformer/internal/tensor"
func handoff(n int) []float64 {
	return tensor.GetVec(n)
}`)
	if len(fs) != 0 {
		t.Fatalf("findings = %+v, want none (ownership transferred)", fs)
	}
}

func TestPoolFieldStoreAllowed(t *testing.T) {
	fs := check(t, `package nn
import "pragformer/internal/tensor"
type cacheT struct{ buf []float64 }
func (c *cacheT) fill(n int) {
	c.buf = tensor.GetVec(n)
}`)
	if len(fs) != 0 {
		t.Fatalf("findings = %+v, want none (stored into a field)", fs)
	}
}

func TestPoolFamiliesIndependent(t *testing.T) {
	// A PutMatrix does not excuse a missing PutVec.
	fs := check(t, `package quant
import "pragformer/internal/tensor"
func mixed(n int) {
	v := tensor.GetVec(n)
	m := tensor.GetMatrix(n, n)
	_ = v
	tensor.PutMatrix(m)
}`)
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "PutVec") {
		t.Fatalf("findings = %+v, want exactly the Vec leak", fs)
	}
}

func TestBorrowWithoutReleaseFlagged(t *testing.T) {
	// A training step that borrows from its list and returns a scalar must
	// release the list: nothing else can give the matrices back.
	fs := check(t, `package core
import "pragformer/internal/nn"
func step(bw *nn.Borrows) float64 {
	d := bw.BorrowDirty(1, 2)
	d.Data[0] = 1
	return d.Data[0]
}`)
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "Release") {
		t.Fatalf("findings = %+v, want one Release leak", fs)
	}
}

func TestBorrowReleasedIsClean(t *testing.T) {
	fs := check(t, `package core
import "pragformer/internal/nn"
func step(bw *nn.Borrows) float64 {
	d := bw.BorrowClone(bw.Borrow(1, 2))
	loss := d.Data[0]
	bw.Release()
	return loss
}`)
	if len(fs) != 0 {
		t.Fatalf("findings = %+v, want none", fs)
	}
}

func TestParseTreeWithoutReleaseFlagged(t *testing.T) {
	// A tree's nodes live in the pooled parser's slabs: a function that
	// keeps nothing of the tree must hand them back.
	fs := check(t, `package scan
import "pragformer/internal/cparse"
func parses(src string) bool {
	t := cparse.ParseTree(src)
	return len(t.Errs) == 0
}`)
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "Release") {
		t.Fatalf("findings = %+v, want one Release leak", fs)
	}
}

func TestParseTreeReleasedIsClean(t *testing.T) {
	fs := check(t, `package scan
import "pragformer/internal/cparse"
func parses(src string) bool {
	t := cparse.ParseTree(src)
	defer t.Release()
	return len(t.Errs) == 0
}`)
	if len(fs) != 0 {
		t.Fatalf("findings = %+v, want none", fs)
	}
}

func TestFieldStoreOfOtherValueIsNoTransfer(t *testing.T) {
	// A function that writes its scratch's fields still has to release a
	// tree it keeps nothing of: only storing the acquired value hands it off.
	fs := check(t, `package scan
import "pragformer/internal/cparse"
func parseSource(src string, sc *scratch) int {
	tree := cparse.ParseTree(src)
	sc.text, sc.ends = sc.text[:0], sc.ends[:0]
	sc.infos = appendLoops(sc.infos[:0], tree.File)
	return len(sc.infos)
}`)
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "parseSource") || !strings.Contains(fs[0].Msg, "Release") {
		t.Fatalf("findings = %+v, want one Release leak in parseSource", fs)
	}
}

func TestFieldStoreOfAcquiredValueIsTransfer(t *testing.T) {
	// The unit keeps the tree until its own Release.
	fs := check(t, `package s2s
import "pragformer/internal/cparse"
func (u *Unit) adopt(code string) {
	t := cparse.ParseTree(code)
	u.given, u.tree = true, t
}`)
	if len(fs) != 0 {
		t.Fatalf("findings = %+v, want none (stored into a field)", fs)
	}
}

func TestNewUnitWithoutReleaseFlagged(t *testing.T) {
	fs := check(t, `package advisor
import "pragformer/internal/s2s"
func parallel(code string) bool {
	u := s2s.NewUnit(code)
	return u.Analysis() != nil
}`)
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "Release") {
		t.Fatalf("findings = %+v, want one Release leak", fs)
	}
}

func TestDeterminismTimeNow(t *testing.T) {
	fs := check(t, `package dep
import "time"
func stamp() int64 { return time.Now().Unix() }`)
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "time.Now") {
		t.Fatalf("findings = %+v, want the time.Now violation", fs)
	}
}

func TestDeterminismGlobalRand(t *testing.T) {
	fs := check(t, `package lime
import "math/rand"
func jitter() float64 { return rand.Float64() }`)
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "rand.Float64") {
		t.Fatalf("findings = %+v, want the global rand violation", fs)
	}
}

func TestDeterminismSeededRandAllowed(t *testing.T) {
	fs := check(t, `package lime
import "math/rand"
func gen(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }`)
	if len(fs) != 0 {
		t.Fatalf("findings = %+v, want none (explicitly seeded)", fs)
	}
}

func TestDeterminismScopedToListedPackages(t *testing.T) {
	// train legitimately reads the clock for logging.
	fs := check(t, `package train
import "time"
func stamp() int64 { return time.Now().Unix() }`)
	if len(fs) != 0 {
		t.Fatalf("findings = %+v, want none outside the deterministic set", fs)
	}
}

func TestDeterminismAliasedImport(t *testing.T) {
	fs := check(t, `package nn
import mr "math/rand"
func jitter() float64 { return mr.Float64() }`)
	if len(fs) != 1 {
		t.Fatalf("findings = %+v, want the aliased rand violation", fs)
	}
}

func TestObsImportFlaggedInKernelPkg(t *testing.T) {
	fs := check(t, `package nn
import "pragformer/internal/obs"
var reg = obs.NewRegistry()`)
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "internal/obs") {
		t.Fatalf("findings = %+v, want the obs import violation", fs)
	}
}

func TestObsImportFlaggedUnderAlias(t *testing.T) {
	// Aliased and blank imports still drag the registry into the kernel.
	fs := check(t, `package tensor
import _ "pragformer/internal/obs"`)
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "internal/obs") {
		t.Fatalf("findings = %+v, want the blank obs import violation", fs)
	}
}

func TestObsImportAllowedOutsideKernels(t *testing.T) {
	// The serving layer is exactly where telemetry belongs.
	fs := check(t, `package serve
import "pragformer/internal/obs"
var reg = obs.NewRegistry()`)
	if len(fs) != 0 {
		t.Fatalf("findings = %+v, want none outside the kernel set", fs)
	}
}

func TestDeterminismShadowedIdentIgnored(t *testing.T) {
	fs := check(t, `package nn
type clock struct{}
func (clock) Now() int { return 0 }
func f() int {
	var time clock
	return time.Now()
}`)
	if len(fs) != 0 {
		t.Fatalf("findings = %+v, want none (no time import at all)", fs)
	}
}
