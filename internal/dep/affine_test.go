package dep_test

import (
	"encoding/json"
	"testing"

	"pragformer/internal/cast"
	"pragformer/internal/dep"
)

func ident(name string) cast.Expr { return &cast.Ident{Name: name} }
func lit(text string) cast.Expr   { return &cast.IntLit{Text: text} }
func bin(op string, l, r cast.Expr) cast.Expr {
	return &cast.BinaryOp{Op: op, L: l, R: r}
}

// TestAffineAllocs pins what a header form costs: a constant or the loop
// variable allocates nothing, and a form with symbols allocates its one
// term slice, which a constant added to it or a scale of it shares.
func TestAffineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes escape analysis")
	}
	for _, c := range []struct {
		name string
		e    cast.Expr
		want float64
	}{
		{"0", lit("0"), 0},
		{"i", ident("i"), 0},
		{"i + 1", bin("+", ident("i"), lit("1")), 0},
		{"n", ident("n"), 1},
		{"n - 1", bin("-", ident("n"), lit("1")), 1},
		{"2 * n", bin("*", lit("2"), ident("n")), 1},
	} {
		if got := testing.AllocsPerRun(20, func() { dep.ToAffine(c.e, "i") }); got != c.want {
			t.Errorf("ToAffine(%s) allocates %.0f times, want %.0f", c.name, got, c.want)
		}
	}
}

// TestAffineJSON pins the JSON of a form to what it printed while its
// symbols were a map (the analysis golden hashes it): an object in name
// order, {} when the form has none and null when it is not affine, keys
// escaped as encoding/json escapes a map key.
func TestAffineJSON(t *testing.T) {
	for _, c := range []struct {
		name string
		e    cast.Expr
		want string
	}{
		{"7", lit("7"), `{"Coef":0,"Const":7,"SymCoefs":{},"OK":true}`},
		{"n - 1", bin("-", ident("n"), lit("1")), `{"Coef":0,"Const":-1,"SymCoefs":{"n":1},"OK":true}`},
		{"m + n - m", bin("-", bin("+", ident("m"), ident("n")), ident("m")), `{"Coef":0,"Const":0,"SymCoefs":{"n":1},"OK":true}`},
		{"m - m", bin("-", ident("m"), ident("m")), `{"Coef":0,"Const":0,"SymCoefs":{},"OK":true}`},
		{"2*n + i + m", bin("+", bin("+", bin("*", lit("2"), ident("n")), ident("i")), ident("m")), `{"Coef":1,"Const":0,"SymCoefs":{"m":1,"n":2},"OK":true}`},
		{"img->w", &cast.Member{X: ident("img"), Field: "w", Arrow: true}, `{"Coef":0,"Const":0,"SymCoefs":{"member:img-\u003ew":1},"OK":true}`},
		{"n * m", bin("*", ident("n"), ident("m")), `{"Coef":0,"Const":0,"SymCoefs":null,"OK":false}`},
	} {
		got, err := json.Marshal(dep.ToAffine(c.e, "i"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("%s: JSON %s, want %s", c.name, got, c.want)
		}
	}
}
