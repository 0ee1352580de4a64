package scan

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"pragformer/internal/dep"
)

// SARIF 2.1.0 rendering, so scan results plug into code-scanning UIs
// (GitHub code scanning, VS Code SARIF viewers). The mapping:
//
//   - every occurrence of a loop the advisor wants parallelized becomes a
//     result under rule PF1001, carrying the suggested directive in the
//     message and the loop's content hash in partialFingerprints (the
//     stable identity SARIF consumers use to track findings across scans);
//   - loops that already carry a pragma surface as PF1002 notes;
//   - loops where the model and the dependence analysis disagree (tier
//     "disagree") become PF1003 warnings instead of PF1001, with the
//     dependence witness and the top LIME token attributions in the
//     message and result properties — these are review items, not
//     apply-me suggestions;
//   - skipped files become toolExecutionNotifications on the invocation,
//     with the parse position when one is known.
//
// Negative verdicts produce no results — SARIF reports findings, and "no
// directive needed" is the quiet default.

const (
	sarifSchema  = "https://json.schemastore.org/sarif-2.1.0.json"
	sarifVersion = "2.1.0"

	// RuleParallelize identifies "loop should carry an OpenMP directive"
	// results.
	RuleParallelize = "PF1001"
	// RuleAnnotated identifies "loop already annotated" notes.
	RuleAnnotated = "PF1002"
	// RuleDisagree identifies "model and dependence analysis disagree"
	// review warnings.
	RuleDisagree = "PF1003"
	// RuleRace identifies "potential loop-carried race" results: the
	// dependence analysis refuted the loop and produced a structured
	// witness (kind, both access sites, direction/distance vector).
	RuleRace = "PF1004"
)

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool        sarifTool         `json:"tool"`
	Invocations []sarifInvocation `json:"invocations"`
	Results     []sarifResult     `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifInvocation struct {
	ExecutionSuccessful bool                `json:"executionSuccessful"`
	Notifications       []sarifNotification `json:"toolExecutionNotifications,omitempty"`
}

type sarifNotification struct {
	Level     string           `json:"level"`
	Message   sarifMessage     `json:"message"`
	Locations [1]sarifLocation `json:"locations"`
}

// sarifResult holds everything by value — one location, typed fingerprints
// and properties — so a result costs its message string and nothing else.
type sarifResult struct {
	RuleID              string            `json:"ruleId"`
	Level               string            `json:"level"`
	Message             sarifMessage      `json:"message"`
	Locations           [1]sarifLocation  `json:"locations"`
	PartialFingerprints sarifFingerprints `json:"partialFingerprints"`
	Properties          sarifProperties   `json:"properties,omitzero"`
}

type sarifFingerprints struct {
	LoopHash string `json:"pragformer/loopHash"`
}

// sarifProperties is the evidence bag of PF1003 and PF1004 results. The
// fields stand in key order — the order every SARIF log of a tree so far
// was written in, which cross-scan diffs rely on — and the slices are the
// verdict's own.
type sarifProperties struct {
	Attributions []Attribution `json:"attributions,omitempty"`
	Races        []dep.Witness `json:"races,omitempty"`
	Tier         string        `json:"tier,omitempty"`
	Witness      []string      `json:"witness,omitempty"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region,omitzero"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// SARIF renders the report as a SARIF 2.1.0 log. Like Stable JSON, the
// output carries no raw probabilities or cache accounting, so warm and
// cold scans render identical SARIF. PF1003 properties do carry LIME
// attribution weights — identical across backends whenever the backends
// agree on every perturbation label (the hard-label fit), which the
// cross-backend gate diffs Stable JSON, not SARIF, to avoid assuming.
func (r *Report) SARIF() ([]byte, error) {
	run := sarifRun{
		Tool: sarifTool{Driver: sarifDriver{
			Name: "pragformer",
			Rules: []sarifRule{
				{ID: RuleParallelize, ShortDescription: sarifMessage{
					Text: "Loop is a candidate for an OpenMP parallel-for directive"}},
				{ID: RuleAnnotated, ShortDescription: sarifMessage{
					Text: "Loop already carries an OpenMP pragma"}},
				{ID: RuleDisagree, ShortDescription: sarifMessage{
					Text: "review: model and dependence analysis disagree"}},
				{ID: RuleRace, ShortDescription: sarifMessage{
					Text: "potential loop-carried race found by the dependence analysis"}},
			},
		}},
		Results: []sarifResult{},
	}
	inv := sarifInvocation{ExecutionSuccessful: true}
	for _, skip := range r.Skips {
		inv.Notifications = append(inv.Notifications, sarifNotification{
			Level:     "warning",
			Message:   sarifMessage{Text: "file skipped: " + skip.Reason},
			Locations: location(skip.File, skip.Line, skip.Col),
		})
	}
	run.Invocations = []sarifInvocation{inv}

	for i := range r.Loops {
		l := &r.Loops[i]
		s := l.Suggestion
		switch {
		case s != nil && s.Parallelize && s.Tier == "disagree":
			top := topAttributions(s.Attributions, 3)
			msg := "review: model suggests `" + s.Directive + "` but the dependence analysis disagrees"
			if w := witnessSummary(s.Witness); w != "" {
				msg += " (" + w + ")"
			}
			if v := raceVector(s.Races); v != "" {
				msg += "; distance vector " + v
			}
			for k, a := range top {
				if k == 0 {
					msg += "; influential tokens:"
				}
				msg += " `" + a.Token + "`"
			}
			run.add(l, RuleDisagree, "warning", sarifProperties{
				Attributions: top, Races: s.Races, Tier: s.Tier, Witness: s.Witness}, msg)
		case s != nil && s.Parallelize:
			run.add(l, RuleParallelize, "note", sarifProperties{}, "suggest `", s.Directive, "` (", s.Tier, ")")
		case l.Annotated:
			for _, occ := range l.Occurrences {
				run.Results = append(run.Results, l.result(occ, RuleAnnotated, "none",
					"loop already annotated: `#"+occ.Pragma+"`", sarifProperties{}))
			}
		}
		// Race witnesses are a property of the code, not of the model's
		// verdict: every dep-refuted loop additionally surfaces as PF1004,
		// whatever tier the suggestion landed on.
		if s != nil && len(s.Races) > 0 {
			run.add(l, RuleRace, "warning", sarifProperties{Races: s.Races, Witness: s.Witness}, raceMessage(s.Races))
		}
	}

	return encodeIndented(sarifLog{Schema: sarifSchema, Version: sarifVersion, Runs: []sarifRun{run}})
}

// raceVector picks the first concrete witness' distance vector for the
// PF1003 message text.
func raceVector(races []dep.Witness) string {
	for _, w := range races {
		if w.Concrete() && w.Distance != "" {
			return w.Distance
		}
	}
	return ""
}

// raceMessage summarizes the witnesses for a PF1004 result, each as
// dep.Witness.String renders it, in one allocation.
func raceMessage(races []dep.Witness) string {
	const head, between, on, colon, arrow, distance = "potential loop-carried race: ", "; ", " dependence on ", ": ", " -> ", " distance "
	n := len(head)
	for _, w := range races {
		n += len(between+on+colon+arrow+distance) + len(w.Kind) + len(w.Array) + len(w.Source.Expr) + len(w.Sink.Expr) + len(w.Distance)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(head)
	for i, w := range races {
		if i > 0 {
			b.WriteString(between)
		}
		for _, s := range [...]string{w.Kind, on, w.Array, colon, w.Source.Expr, arrow, w.Sink.Expr} {
			b.WriteString(s)
		}
		if w.Distance != "" {
			b.WriteString(distance)
			b.WriteString(w.Distance)
		}
	}
	return b.String()
}

// witnessSummary picks the decisive dependence reason for the PF1003
// message: the last witness line names the analysis' verdict.
func witnessSummary(witness []string) string {
	if len(witness) == 0 {
		return ""
	}
	return witness[len(witness)-1]
}

// topAttributions returns the topK attributions by |weight| (ties broken
// by token order) — the evidence subset PF1003 results carry.
func topAttributions(attrs []Attribution, topK int) []Attribution {
	if len(attrs) == 0 {
		return nil
	}
	top := slices.Clone(attrs)
	slices.SortStableFunc(top, func(a, b Attribution) int {
		return cmp.Compare(math.Abs(b.Weight), math.Abs(a.Weight))
	})
	if topK > 0 && topK < len(top) {
		top = top[:topK]
	}
	return top
}

// add appends one result per occurrence of l, with props shared by all of
// them. The message is msg's parts joined, plus the enclosing function where
// there is one; each text is built in one allocation, and the text without
// a function once per loop.
func (run *sarifRun) add(l *Loop, rule, level string, props sarifProperties, msg ...string) {
	var bare string
	for _, occ := range l.Occurrences {
		text := bare
		if occ.Function != "" {
			text = message(msg, occ.Function)
		} else if text == "" {
			text = message(msg, "")
			bare = text
		}
		run.Results = append(run.Results, l.result(occ, rule, level, text, props))
	}
}

// message joins parts and, when fn is set, " in function " fn. A lone part
// without a function is returned as it is.
func message(parts []string, fn string) string {
	const in = " in function "
	if len(parts) == 1 && fn == "" {
		return parts[0]
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if fn != "" {
		n += len(in) + len(fn)
	}
	var b strings.Builder
	b.Grow(n)
	for _, p := range parts {
		b.WriteString(p)
	}
	if fn != "" {
		b.WriteString(in)
		b.WriteString(fn)
	}
	return b.String()
}

func (l *Loop) result(occ Occurrence, rule, level, text string, props sarifProperties) sarifResult {
	return sarifResult{
		RuleID:              rule,
		Level:               level,
		Message:             sarifMessage{Text: text},
		Locations:           location(occ.File, occ.Line, occ.Col),
		PartialFingerprints: sarifFingerprints{LoopHash: l.Hash},
		Properties:          props,
	}
}

// location is the one-element locations array of a result or notification;
// the region is left out when no line is known.
func location(file string, line, col int) [1]sarifLocation {
	loc := sarifLocation{PhysicalLocation: sarifPhysicalLocation{
		ArtifactLocation: sarifArtifactLocation{URI: file},
	}}
	if line > 0 {
		loc.PhysicalLocation.Region = sarifRegion{StartLine: line, StartColumn: col}
	}
	return [1]sarifLocation{loc}
}
