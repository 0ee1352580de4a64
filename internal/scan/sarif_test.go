package scan

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"pragformer/internal/dep"
)

// sarif mirrors the 2.1.0 shape the report must produce; decoding with
// DisallowUnknownFields is deliberately NOT used — extra properties are
// legal SARIF — but every asserted field is required by the spec.
type sarifShape struct {
	Schema  string `json:"$schema"`
	Version string `json:"version"`
	Runs    []struct {
		Tool struct {
			Driver struct {
				Name  string `json:"name"`
				Rules []struct {
					ID               string `json:"id"`
					ShortDescription struct {
						Text string `json:"text"`
					} `json:"shortDescription"`
				} `json:"rules"`
			} `json:"driver"`
		} `json:"tool"`
		Invocations []struct {
			ExecutionSuccessful bool `json:"executionSuccessful"`
			Notifications       []struct {
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
			} `json:"toolExecutionNotifications"`
		} `json:"invocations"`
		Results []struct {
			RuleID  string `json:"ruleId"`
			Level   string `json:"level"`
			Message struct {
				Text string `json:"text"`
			} `json:"message"`
			Locations []struct {
				PhysicalLocation struct {
					ArtifactLocation struct {
						URI string `json:"uri"`
					} `json:"artifactLocation"`
					Region struct {
						StartLine   int `json:"startLine"`
						StartColumn int `json:"startColumn"`
					} `json:"region"`
				} `json:"physicalLocation"`
			} `json:"locations"`
			PartialFingerprints map[string]string `json:"partialFingerprints"`
		} `json:"results"`
	} `json:"runs"`
}

func TestSARIFShape(t *testing.T) {
	rep, err := Dir(context.Background(), fixtureTree, Config{Workers: 2}, &stubSuggester{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rep.SARIF()
	if err != nil {
		t.Fatal(err)
	}
	var log sarifShape
	if err := json.Unmarshal(raw, &log); err != nil {
		t.Fatalf("SARIF output is not JSON: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if log.Schema != sarifSchema {
		t.Errorf("$schema = %q", log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "pragformer" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	ruleIDs := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s missing shortDescription", r.ID)
		}
		ruleIDs[r.ID] = true
	}
	if !ruleIDs[RuleParallelize] || !ruleIDs[RuleAnnotated] || !ruleIDs[RuleDisagree] {
		t.Errorf("rules = %v", ruleIDs)
	}

	// Fixture: the stub parallelizes the six "+=" loops (sum + histogram +
	// three matmul levels + the recur.c disagreement), and axpy surfaces as
	// an annotated note — 7 results.
	if len(run.Results) != 7 {
		t.Fatalf("results = %d, want 7", len(run.Results))
	}
	annotated := 0
	disagree := 0
	for _, res := range run.Results {
		if !ruleIDs[res.RuleID] {
			t.Errorf("result rule %q not declared by the driver", res.RuleID)
		}
		if res.Message.Text == "" {
			t.Error("result missing message text")
		}
		if len(res.Locations) != 1 {
			t.Fatalf("result locations = %d", len(res.Locations))
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI == "" {
			t.Error("result missing artifact URI")
		}
		if loc.Region.StartLine < 1 || loc.Region.StartColumn < 1 {
			t.Errorf("result region = %+v", loc.Region)
		}
		if res.PartialFingerprints["pragformer/loopHash"] == "" {
			t.Error("result missing loop-hash fingerprint")
		}
		if res.RuleID == RuleAnnotated {
			annotated++
		}
		if res.RuleID == RuleDisagree {
			disagree++
			if res.Level != "warning" {
				t.Errorf("PF1003 level = %q, want warning", res.Level)
			}
		}
	}
	if annotated != 1 {
		t.Errorf("annotated results = %d, want 1", annotated)
	}
	if disagree != 1 {
		t.Errorf("disagree results = %d, want 1 (the recur.c loop)", disagree)
	}

	// The broken fixture file and partial.c's malformed function both
	// surface as invocation notifications.
	if len(run.Invocations) != 1 || !run.Invocations[0].ExecutionSuccessful {
		t.Fatalf("invocations = %+v", run.Invocations)
	}
	notes := run.Invocations[0].Notifications
	if len(notes) != 2 {
		t.Fatalf("notifications = %+v", notes)
	}
	for _, note := range notes {
		if note.Level != "warning" || note.Message.Text == "" {
			t.Errorf("notification = %+v", note)
		}
	}
}

// TestSARIFBackendStable pins the claim that SARIF output carries nothing
// run-dependent: two reports that agree on labels but differ in
// probabilities and cache temperature render identical SARIF.
func TestSARIFBackendStable(t *testing.T) {
	a, err := Dir(context.Background(), fixtureTree, Config{Workers: 1}, &stubSuggester{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Dir(context.Background(), fixtureTree, Config{Workers: 8}, &stubSuggester{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.Loops {
		if b.Loops[i].Suggestion != nil {
			b.Loops[i].Suggestion.Probability += 0.01 // simulate backend drift
		}
	}
	sa, _ := a.SARIF()
	sb, _ := b.SARIF()
	if string(sa) != string(sb) {
		t.Error("SARIF output depends on probabilities or worker count")
	}
}

// TestSARIFDisagreeProperties: PF1003 results carry the dependence witness
// and the top LIME attributions in both the message and the properties bag.
func TestSARIFDisagreeProperties(t *testing.T) {
	rep, err := Dir(context.Background(), fixtureTree, Config{}, &stubSuggester{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rep.SARIF()
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Runs []struct {
			Results []struct {
				RuleID     string `json:"ruleId"`
				Message    struct{ Text string }
				Properties struct {
					Tier         string        `json:"tier"`
					Witness      []string      `json:"witness"`
					Attributions []Attribution `json:"attributions"`
				} `json:"properties"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(raw, &log); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, res := range log.Runs[0].Results {
		if res.RuleID != RuleDisagree {
			continue
		}
		found = true
		if res.Properties.Tier != "disagree" {
			t.Errorf("properties.tier = %q", res.Properties.Tier)
		}
		if len(res.Properties.Witness) == 0 {
			t.Error("PF1003 result missing witness property")
		}
		if len(res.Properties.Attributions) == 0 || res.Properties.Attributions[0].Token == "" {
			t.Errorf("PF1003 attributions = %+v", res.Properties.Attributions)
		}
		if !strings.Contains(res.Message.Text, "dependence analysis disagrees") ||
			!strings.Contains(res.Message.Text, "influential tokens") {
			t.Errorf("PF1003 message = %q", res.Message.Text)
		}
	}
	if !found {
		t.Fatal("no PF1003 result in fixture SARIF")
	}
}

// encoderReports is the synthetic input of the encoder differentials: all
// four rules, loops at several sites, skips with and without a position, an
// empty report, and the characters encoding/json escapes (<, >, &, U+2028,
// a quote) in every string a verdict or a site feeds into the output.
func encoderReports() map[string]*Report {
	const nasty = "a<b>&c\u2028\"q\""
	hash := func(c byte) string { return strings.Repeat(string(c), 64) }
	race := dep.Witness{
		Array: "a" + nasty, Kind: "flow",
		Source:   dep.Site{Expr: "a[i]" + nasty, Line: 2, Col: 3},
		Sink:     dep.Site{Expr: "a[i - 1]", Line: 2, Col: 10},
		Vector:   []string{"<", "*"},
		Distance: "(1,*)" + nasty, Reason: nasty,
	}
	unknown := dep.Witness{Array: "b", Kind: "unknown", Reason: "subscript not affine"}
	sites := []Occurrence{
		{File: "k<1>.c", Line: 3, Col: 5, Function: "f" + nasty, Depth: 1},
		{File: "k2.c", Line: 9, Col: 1},
		{File: "k3.c", Line: 9, Col: 0, Function: "g"},
	}
	all := &Report{
		Tool: "pragformer scan", Root: "/r&d", Backend: "int8",
		Counters: Counters{Files: 3, Skipped: 2, Loops: 9, Unique: 6, Annotated: 1, Disagreements: 2, Witnessed: 3, CacheHits: 2, Inferred: 4},
		Loops: []Loop{
			{Hash: hash('1'), Snippet: "for (;;) x += 1;" + nasty, Occurrences: sites, FromCache: true, Suggestion: &Suggestion{
				Parallelize: true, Probability: 0.75, Directive: "pragma omp parallel for reduction(+:x)" + nasty,
				Tier: "analysis-agrees",
				S2S:  []S2SVerdict{{Compiler: "cetus", Compiled: true, Parallelized: true, Detail: nasty}},
			}},
			{Hash: hash('2'), Snippet: "for (;;) a[i] = a[i - 1];", Occurrences: sites[:2], Suggestion: &Suggestion{
				Parallelize: true, Probability: 0.9, Directive: "pragma omp parallel for" + nasty, Tier: "disagree",
				Witness: []string{"first", "carried dependence on a" + nasty},
				Races:   []dep.Witness{unknown, race},
				Attributions: []Attribution{
					{Index: 0, Token: "for", Weight: 0.1}, {Index: 1, Token: "<", Weight: -0.5},
					{Index: 2, Token: nasty, Weight: 0.5}, {Index: 3, Token: "i", Weight: 0.25}, {Index: 4, Token: "z"},
				},
			}},
			// Disagreement with no evidence at all: tier is the only property.
			{Hash: hash('3'), Snippet: "for (;;) ;", Occurrences: sites[1:2], Suggestion: &Suggestion{
				Parallelize: true, Directive: "pragma omp parallel for", Tier: "disagree"}},
			// Negative verdict that the analysis refuted: PF1004 alone.
			{Hash: hash('4'), Snippet: "for (;;) b[i] = b[i + 1];", Occurrences: sites, Suggestion: &Suggestion{
				Tier: "analysis-agrees", Witness: []string{"anti" + nasty}, Races: []dep.Witness{race},
				Converted: []string{"t" + nasty}}},
			// Positive verdict with a witness: PF1001 and PF1004.
			{Hash: hash('5'), Snippet: "for (;;) c[i] += c[i - 2];", Occurrences: sites[2:], Suggestion: &Suggestion{
				Parallelize: true, Directive: "pragma omp parallel for", Tier: "model-only", Races: []dep.Witness{race, unknown}}},
			{Hash: hash('6'), Snippet: "for (;;) d[i] = 0;", Annotated: true, Occurrences: []Occurrence{
				{File: "k2.c", Line: 20, Col: 2, Function: "h", Pragma: "pragma omp parallel for" + nasty},
				{File: "k3.c", Line: 21, Col: 2, Pragma: "pragma omp for"}}},
			{Hash: hash('7'), Snippet: "for (;;) e[i] = 0;", Error: "inference failed: " + nasty,
				Occurrences: sites[:1]},
			{Hash: hash('8'), Snippet: "for (;;) g[i] = 0;", Occurrences: sites[:1], Suggestion: &Suggestion{Probability: 0.25}},
		},
		Skips: []Skip{
			{File: "broken<1>.c", Line: 4, Col: 7, Reason: "4:7: expected ')'" + nasty},
			{File: "gone.c", Reason: "open gone.c: no such file or directory"},
			{File: "nocol.c", Line: 2, Reason: "2:0: unexpected token"},
		},
	}
	return map[string]*Report{
		"all rules":  all,
		"stable":     all.Stable(),
		"empty":      {Tool: "pragformer scan", Loops: []Loop{}},
		"nil loops":  {Tool: "pragformer scan"},
		"skips only": {Tool: "pragformer scan", Loops: []Loop{}, Skips: all.Skips},
	}
}

// TestEncodersMatchReference holds both report encoders to the bytes of
// the ones they replaced, and to them again on the pooled encoder's second
// use, after a larger document has been through it.
func TestEncodersMatchReference(t *testing.T) {
	reports := encoderReports()
	for round := 0; round < 2; round++ {
		for name, rep := range reports {
			want, err := sarifReference(rep)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rep.SARIF()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("round %d, %s: SARIF drifted from the reference:\n--- got ---\n%s\n--- want ---\n%s", round, name, got, want)
			}
			want, err = json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			got, err = rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("round %d, %s: JSON drifted from MarshalIndent:\n--- got ---\n%s\n--- want ---\n%s", round, name, got, want)
			}
		}
	}
	sarif, err := reports["empty"].SARIF()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(sarif, []byte(`"results": []`)) {
		t.Errorf("an empty report must still carry an empty results array:\n%s", sarif)
	}
	all, err := reports["all rules"].SARIF()
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range []string{RuleParallelize, RuleAnnotated, RuleDisagree, RuleRace} {
		if !bytes.Contains(all, []byte(`"ruleId": "`+rule+`"`)) {
			t.Errorf("the synthetic report has no %s result", rule)
		}
	}
	for _, esc := range []string{`\u003c`, `\u003e`, `\u0026`, `\u2028`, `\"q\"`} {
		if !bytes.Contains(all, []byte(esc)) {
			t.Errorf("the synthetic SARIF does not exercise the %s escape", esc)
		}
	}
}

// TestSARIFAllocs: a log allocates per log, not per loop. Every message of
// it is one string, the results and the PF1003 attributions one slice
// each, so a report whose loops (every rule, functions, skips) are repeated
// 4× renders in at most 2 allocations more than the original, and the
// bytes of the repeated report stay the reference renderer's
// (TestEncodersMatchReference holds the original's).
func TestSARIFAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	one := encoderReports()["all rules"]
	four := *one
	four.Loops = nil
	for range 4 {
		four.Loops = append(four.Loops, one.Loops...)
	}
	want, err := sarifReference(&four)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := four.SARIF(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the repeated report's SARIF differs from the reference (err %v)", err)
	}
	allocs := func(r *Report) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := r.SARIF(); err != nil {
				t.Fatal(err)
			}
		})
	}
	n1, n4 := allocs(one), allocs(&four)
	t.Logf("SARIF: %.0f allocations for %d loops, %.0f for %d", n1, len(one.Loops), n4, len(four.Loops))
	if n4 > n1+2 {
		t.Errorf("SARIF allocates %.0f times for %d loops and %.0f for %d, want at most 2 more", n1, len(one.Loops), n4, len(four.Loops))
	}
}

// TestEncodedBytesAreTheCallers: what JSON and SARIF return is never the
// pooled encoder's memory — a later encode leaves earlier results alone.
func TestEncodedBytesAreTheCallers(t *testing.T) {
	rep := encoderReports()["all rules"]
	first, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	keep := bytes.Clone(first)
	for i := 0; i < 3; i++ {
		if _, err := rep.SARIF(); err != nil {
			t.Fatal(err)
		}
		if _, err := rep.Stable().JSON(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(first, keep) {
		t.Error("a later encode wrote into bytes JSON() had already returned")
	}
}

// sarifReference is the renderer SARIF() replaced, kept as the reference
// the typed one is held to byte for byte: two maps per result, Sprintf
// messages, MarshalIndent plus a newline. Its types and every helper that
// change touched are its own copies, so an edit to the production ones
// cannot move both sides.
func sarifReference(r *Report) ([]byte, error) {
	run := refRun{
		Tool: refTool{Driver: refDriver{
			Name: "pragformer",
			Rules: []refRule{
				{ID: RuleParallelize, ShortDescription: refMessage{
					Text: "Loop is a candidate for an OpenMP parallel-for directive"}},
				{ID: RuleAnnotated, ShortDescription: refMessage{
					Text: "Loop already carries an OpenMP pragma"}},
				{ID: RuleDisagree, ShortDescription: refMessage{
					Text: "review: model and dependence analysis disagree"}},
				{ID: RuleRace, ShortDescription: refMessage{
					Text: "potential loop-carried race found by the dependence analysis"}},
			},
		}},
		Results: []refResult{},
	}
	inv := refInvocation{ExecutionSuccessful: true}
	for _, skip := range r.Skips {
		n := refNotification{
			Level:   "warning",
			Message: refMessage{Text: fmt.Sprintf("file skipped: %s", skip.Reason)},
		}
		if skip.Line > 0 {
			n.Locations = []refLocation{refLoc(skip.File, skip.Line, skip.Col)}
		} else {
			n.Locations = []refLocation{{PhysicalLocation: refPhysicalLocation{
				ArtifactLocation: refArtifactLocation{URI: skip.File}}}}
		}
		inv.Notifications = append(inv.Notifications, n)
	}
	run.Invocations = []refInvocation{inv}

	for _, l := range r.Loops {
		switch {
		case l.Suggestion != nil && l.Suggestion.Parallelize && l.Suggestion.Tier == "disagree":
			s := l.Suggestion
			msg := fmt.Sprintf("review: model suggests `%s` but the dependence analysis disagrees", s.Directive)
			if w := witnessSummary(s.Witness); w != "" {
				msg += fmt.Sprintf(" (%s)", w)
			}
			if v := raceVector(s.Races); v != "" {
				msg += fmt.Sprintf("; distance vector %s", v)
			}
			if toks := refTopTokens(s.Attributions, 3); len(toks) > 0 {
				msg += fmt.Sprintf("; influential tokens: %s", strings.Join(toks, " "))
			}
			props := map[string]any{"tier": s.Tier}
			if len(s.Witness) > 0 {
				props["witness"] = s.Witness
			}
			if len(s.Races) > 0 {
				props["races"] = s.Races
			}
			if top := refTopAttributions(s.Attributions, 3); len(top) > 0 {
				props["attributions"] = top
			}
			for _, occ := range l.Occurrences {
				run.Results = append(run.Results, refResult{
					RuleID:              RuleDisagree,
					Level:               "warning",
					Message:             refMessage{Text: msg + refOccContext(occ)},
					Locations:           []refLocation{refLoc(occ.File, occ.Line, occ.Col)},
					PartialFingerprints: map[string]string{"pragformer/loopHash": l.Hash},
					Properties:          props,
				})
			}
		case l.Suggestion != nil && l.Suggestion.Parallelize:
			msg := fmt.Sprintf("suggest `%s` (%s)", l.Suggestion.Directive, l.Suggestion.Tier)
			for _, occ := range l.Occurrences {
				run.Results = append(run.Results, refResult{
					RuleID:              RuleParallelize,
					Level:               "note",
					Message:             refMessage{Text: msg + refOccContext(occ)},
					Locations:           []refLocation{refLoc(occ.File, occ.Line, occ.Col)},
					PartialFingerprints: map[string]string{"pragformer/loopHash": l.Hash},
				})
			}
		case l.Annotated:
			for _, occ := range l.Occurrences {
				run.Results = append(run.Results, refResult{
					RuleID:              RuleAnnotated,
					Level:               "none",
					Message:             refMessage{Text: fmt.Sprintf("loop already annotated: `#%s`", occ.Pragma)},
					Locations:           []refLocation{refLoc(occ.File, occ.Line, occ.Col)},
					PartialFingerprints: map[string]string{"pragformer/loopHash": l.Hash},
				})
			}
		}
		// Race witnesses are a property of the code, not of the model's
		// verdict: every dep-refuted loop additionally surfaces as PF1004,
		// whatever tier the suggestion landed on.
		if l.Suggestion != nil && len(l.Suggestion.Races) > 0 {
			s := l.Suggestion
			parts := make([]string, 0, len(s.Races))
			for _, w := range s.Races {
				part := fmt.Sprintf("%s dependence on %s: %s -> %s", w.Kind, w.Array, w.Source.Expr, w.Sink.Expr)
				if w.Distance != "" {
					part += fmt.Sprintf(" distance %s", w.Distance)
				}
				if part != w.String() {
					return nil, fmt.Errorf("Witness.String = %q, want %q", w.String(), part)
				}
				parts = append(parts, part)
			}
			msg := "potential loop-carried race: " + strings.Join(parts, "; ")
			props := map[string]any{"races": s.Races}
			if len(s.Witness) > 0 {
				props["witness"] = s.Witness
			}
			for _, occ := range l.Occurrences {
				run.Results = append(run.Results, refResult{
					RuleID:              RuleRace,
					Level:               "warning",
					Message:             refMessage{Text: msg + refOccContext(occ)},
					Locations:           []refLocation{refLoc(occ.File, occ.Line, occ.Col)},
					PartialFingerprints: map[string]string{"pragformer/loopHash": l.Hash},
					Properties:          props,
				})
			}
		}
	}

	log := refLog{Schema: sarifSchema, Version: sarifVersion, Runs: []refRun{run}}
	b, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

type refLog struct {
	Schema  string   `json:"$schema"`
	Version string   `json:"version"`
	Runs    []refRun `json:"runs"`
}

type refRun struct {
	Tool        refTool         `json:"tool"`
	Invocations []refInvocation `json:"invocations"`
	Results     []refResult     `json:"results"`
}

type refTool struct {
	Driver refDriver `json:"driver"`
}

type refDriver struct {
	Name           string    `json:"name"`
	InformationURI string    `json:"informationUri,omitempty"`
	Rules          []refRule `json:"rules"`
}

type refRule struct {
	ID               string     `json:"id"`
	ShortDescription refMessage `json:"shortDescription"`
}

type refInvocation struct {
	ExecutionSuccessful bool              `json:"executionSuccessful"`
	Notifications       []refNotification `json:"toolExecutionNotifications,omitempty"`
}

type refNotification struct {
	Level     string        `json:"level"`
	Message   refMessage    `json:"message"`
	Locations []refLocation `json:"locations,omitempty"`
}

type refResult struct {
	RuleID              string            `json:"ruleId"`
	Level               string            `json:"level"`
	Message             refMessage        `json:"message"`
	Locations           []refLocation     `json:"locations"`
	PartialFingerprints map[string]string `json:"partialFingerprints,omitempty"`
	Properties          map[string]any    `json:"properties,omitempty"`
}

type refMessage struct {
	Text string `json:"text"`
}

type refLocation struct {
	PhysicalLocation refPhysicalLocation `json:"physicalLocation"`
}

type refPhysicalLocation struct {
	ArtifactLocation refArtifactLocation `json:"artifactLocation"`
	Region           *refRegion          `json:"region,omitempty"`
}

type refArtifactLocation struct {
	URI string `json:"uri"`
}

type refRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// topAttributions returns the topK attributions by |weight| (ties broken
// by token order) — the evidence subset PF1003 results carry.
func refTopAttributions(attrs []Attribution, topK int) []Attribution {
	if len(attrs) == 0 {
		return nil
	}
	top := append([]Attribution(nil), attrs...)
	sort.SliceStable(top, func(i, j int) bool {
		return math.Abs(top[i].Weight) > math.Abs(top[j].Weight)
	})
	if topK > 0 && topK < len(top) {
		top = top[:topK]
	}
	return top
}

// topTokens renders the top attribution tokens for the message text.
func refTopTokens(attrs []Attribution, topK int) []string {
	top := refTopAttributions(attrs, topK)
	out := make([]string, 0, len(top))
	for _, a := range top {
		out = append(out, "`"+a.Token+"`")
	}
	return out
}

func refOccContext(occ Occurrence) string {
	if occ.Function == "" {
		return ""
	}
	return fmt.Sprintf(" in function %s", occ.Function)
}

func refLoc(file string, line, col int) refLocation {
	loc := refLocation{PhysicalLocation: refPhysicalLocation{
		ArtifactLocation: refArtifactLocation{URI: file},
	}}
	if line > 0 {
		loc.PhysicalLocation.Region = &refRegion{StartLine: line, StartColumn: col}
	}
	return loc
}
