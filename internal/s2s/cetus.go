package s2s

import (
	"strings"

	"pragformer/internal/dep"
	"pragformer/internal/pragma"
)

// Cetus models the Cetus S2S compiler: the most robust of the three (the
// paper reports "only Cetus managed to compile the examples successfully"),
// with real dependence analysis, but with documented pitfalls:
//
//   - explicit private(i) insertion for the loop variable, which developers
//     rarely write (hurting private-clause precision, Table 9);
//   - reduction recognition limited to compound-assignment forms (`s += e`),
//     missing `s = s + e` and fmax/fmin idioms (hurting recall, Table 10);
//   - a profitability threshold far below what developers apply, so tiny
//     loops still get directives (hurting directive precision, Table 8);
//   - always-static scheduling: unbalanced loops are never given
//     schedule(dynamic) (§1.1 example #2);
//   - a frontend that rejects `register`, `restrict`, `union` and unknown
//     typedef names outright (the Table 8–10 compile failures).
type Cetus struct{}

// Name implements Compiler.
func (Cetus) Name() string { return "Cetus" }

// minCetusTrip is the constant trip count below which Cetus declines to
// parallelize; deliberately lower than the human/profitability threshold
// used in corpus labeling, so Cetus still annotates unprofitable loops.
const minCetusTrip = 4

// Compile implements Compiler.
func (c Cetus) Compile(src string) (Result, error) { return compileText(c, src) }

func (c Cetus) decide(u *Unit) (bool, string, error) {
	if err := rejectTokens(u, c.Name(), map[string]bool{
		"register": true, "restrict": true, "union": true,
	}, false, true); err != nil {
		return false, "", err
	}
	if _, _, err := u.parse(); err != nil {
		return false, "", err
	}
	a := u.plainAnalysis()
	if !a.Parallelizable {
		return false, "", nil
	}
	if tc := a.Header.TripCount(); tc >= 0 && tc < minCetusTrip {
		return false, "trip count below Cetus threshold", nil
	}
	// Pitfall: only compound-assignment reductions survive Cetus's pattern
	// matcher; others make the loop look serial, so Cetus declines.
	for _, r := range a.Reductions {
		if !compoundReductionOnly(u.src, r) {
			return false, "reduction form not recognized; loop left serial", nil
		}
	}
	return true, "", nil
}

func (Cetus) directive(a *dep.Analysis) *pragma.Directive {
	// Pitfall: explicit private for the loop variable. Pitfall: no
	// schedule(dynamic) for unbalanced loops; the default static schedule
	// is kept (printed explicitly like Cetus does).
	d := &pragma.Directive{ParallelFor: true, Schedule: pragma.ScheduleStatic}
	d.Private = append(d.Private, a.Header.Var)
	d.Private = append(d.Private, a.Private...)
	d.Reductions = append(d.Reductions, a.Reductions...)
	return d
}

// compoundReductionOnly reports whether the reduction for r.Vars appears
// only in compound-assignment form in the source (a textual check mirroring
// Cetus's syntactic pattern matcher).
func compoundReductionOnly(src string, r pragma.Reduction) bool {
	if r.Op == "max" || r.Op == "min" {
		return false
	}
	for _, v := range r.Vars {
		if !strings.Contains(src, v+" "+r.Op+"=") && !strings.Contains(src, v+" +=") {
			// Accept any compound op spelled with the variable.
			if !compoundAssignPresent(src, v, r.Op) {
				return false
			}
		}
	}
	return true
}

// compoundAssignPresent scans for `v op=` allowing arbitrary spacing.
func compoundAssignPresent(src, v, op string) bool {
	idx := 0
	for {
		j := strings.Index(src[idx:], v)
		if j < 0 {
			return false
		}
		j += idx
		k := j + len(v)
		for k < len(src) && (src[k] == ' ' || src[k] == '\t') {
			k++
		}
		if k+len(op) < len(src) && src[k:k+len(op)] == op && src[k+len(op)] == '=' {
			// Ensure v is a whole token.
			if (j == 0 || !identChar(src[j-1])) && !identChar(src[j+len(v)]) {
				return true
			}
		}
		idx = j + 1
	}
}

func identChar(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}
