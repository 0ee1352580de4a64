package pragma

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// referenceString is String as it was written before it stopped allocating
// per clause: copy, sort, Fprintf, Join. The printer is held to its bytes.
func referenceString(d *Directive) string {
	var b strings.Builder
	b.WriteString("#pragma omp parallel for")
	list := func(name string, vars []string) {
		if len(vars) > 0 {
			vars = append([]string(nil), vars...)
			sort.Strings(vars)
			fmt.Fprintf(&b, " %s(%s)", name, strings.Join(vars, ", "))
		}
	}
	list("private", d.Private)
	list("firstprivate", d.FirstPrivate)
	list("shared", d.Shared)
	reds := append([]Reduction(nil), d.Reductions...)
	sort.Slice(reds, func(i, j int) bool { return reds[i].Op < reds[j].Op })
	for _, r := range reds {
		vars := append([]string(nil), r.Vars...)
		sort.Strings(vars)
		fmt.Fprintf(&b, " reduction(%s:%s)", r.Op, strings.Join(vars, ", "))
	}
	if d.Schedule != ScheduleNone {
		if d.Chunk > 0 {
			fmt.Fprintf(&b, " schedule(%s,%d)", d.Schedule, d.Chunk)
		} else {
			fmt.Fprintf(&b, " schedule(%s)", d.Schedule)
		}
	}
	if d.Collapse > 0 {
		fmt.Fprintf(&b, " collapse(%d)", d.Collapse)
	}
	if d.NoWait {
		b.WriteString(" nowait")
	}
	return b.String()
}

// TestStringMatchesReference prints every combination of clause shapes —
// absent, in order, out of order, reductions sharing an operator or with no
// variable, a directive longer than the printer's stack buffer — and leaves
// the directive as it found it.
func TestStringMatchesReference(t *testing.T) {
	long := make([]string, 40)
	for i := range long {
		long[i] = fmt.Sprintf("variable_%02d", 39-i)
	}
	lists := [][]string{nil, {"t"}, {"a", "b", "c"}, {"tmp", "j", "k"}, long}
	reductions := [][]Reduction{
		nil,
		{{Op: "+", Vars: []string{"s"}}},
		{{Op: "*", Vars: []string{"p"}}, {Op: "+", Vars: []string{"s", "acc"}}},
		{{Op: "max", Vars: []string{"m"}}, {Op: "+", Vars: []string{"z", "a"}}, {Op: "&&", Vars: []string{"ok"}}},
		{{Op: "+", Vars: []string{"second"}}, {Op: "*", Vars: []string{"p"}}, {Op: "+", Vars: []string{"first"}}},
		{{Op: "-", Vars: nil}},
	}
	schedules := []struct {
		kind  ScheduleKind
		chunk int
	}{{ScheduleNone, 0}, {ScheduleNone, 8}, {ScheduleStatic, 0}, {ScheduleDynamic, 16}, {ScheduleGuided, -1}}
	n := 0
	for _, private := range lists {
		for _, first := range lists {
			for _, shared := range lists {
				for _, reds := range reductions {
					for _, sched := range schedules {
						for _, collapse := range []int{0, 2, 12} {
							for _, nowait := range []bool{false, true} {
								d := &Directive{
									ParallelFor: true, Private: private, FirstPrivate: first, Shared: shared,
									Reductions: reds, Schedule: sched.kind, Chunk: sched.chunk,
									Collapse: collapse, NoWait: nowait,
								}
								before := cloneDirective(d)
								if got, want := d.String(), referenceString(d); got != want {
									t.Fatalf("String() = %q\nreference   %q", got, want)
								}
								if !reflect.DeepEqual(d, before) {
									t.Fatalf("String() reordered the directive: %+v, was %+v", d, before)
								}
								n++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d directives", n)
}

func cloneDirective(d *Directive) *Directive {
	c := *d
	c.Private = slices.Clone(d.Private)
	c.FirstPrivate = slices.Clone(d.FirstPrivate)
	c.Shared = slices.Clone(d.Shared)
	c.Reductions = slices.Clone(d.Reductions)
	for i, r := range c.Reductions {
		c.Reductions[i].Vars = slices.Clone(r.Vars)
	}
	return &c
}

// TestStringAllocs gates the printer on the forms the advisor and the S2S
// members print for nearly every positive loop: the string itself, plus a
// sorted copy only when the variables arrive out of order, and nothing for
// a directive without a clause, which prints as a constant.
func TestStringAllocs(t *testing.T) {
	for _, c := range []struct {
		d      *Directive
		budget float64
	}{
		{&Directive{ParallelFor: true}, 0},
		{&Directive{}, 0},
		{&Directive{ParallelFor: true, Chunk: 4}, 0},
		{&Directive{ParallelFor: true, Private: []string{"i", "t"}}, 1},
		{&Directive{ParallelFor: true, Private: []string{"t", "i"}}, 2},
		{&Directive{ParallelFor: true, Private: []string{"i"}, Reductions: []Reduction{{Op: "+", Vars: []string{"s"}}}, Schedule: ScheduleStatic}, 1},
	} {
		if got := testing.AllocsPerRun(100, func() { _ = c.d.String() }); got > c.budget {
			t.Errorf("%q: %.0f allocations, budget %.0f", c.d, got, c.budget)
		}
	}
}
