package scan

import (
	"cmp"
	"math"
	"sync"

	"pragformer/internal/advisor"
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
	Schema  string      `json:"$schema"`
	Version string      `json:"version"`
	Runs    [1]sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool        sarifTool          `json:"tool"`
	Invocations [1]sarifInvocation `json:"invocations"`
	Results     []sarifResult      `json:"results"`
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
	span      textSpan
}

// sarifResult holds everything by value — one location, typed fingerprints
// and properties — and its message is a substring of the one string that
// holds every message of the log, so a result costs nothing of its own.
// span is where that message lies while the log is being written.
type sarifResult struct {
	RuleID              string            `json:"ruleId"`
	Level               string            `json:"level"`
	Message             sarifMessage      `json:"message"`
	Locations           [1]sarifLocation  `json:"locations"`
	PartialFingerprints sarifFingerprints `json:"partialFingerprints"`
	Properties          sarifProperties   `json:"properties,omitzero"`
	span                textSpan
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
//
// A log costs its slices and one string for all of its messages, however
// many loops it reports: the results and the PF1003 attributions are sized
// by a first pass over the loops, and every message is written into one
// pooled buffer that becomes that string.
func (r *Report) SARIF() ([]byte, error) {
	results, attrs := r.sarifSizes()
	buf := sarifTexts.Get().(*[]byte)
	w := sarifWriter{results: make([]sarifResult, 0, results), text: (*buf)[:0]}

	inv := sarifInvocation{ExecutionSuccessful: true}
	if len(r.Skips) > 0 {
		inv.Notifications = make([]sarifNotification, len(r.Skips))
	}
	for i, skip := range r.Skips {
		from := len(w.text)
		w.write("file skipped: ", skip.Reason)
		inv.Notifications[i] = sarifNotification{Level: "warning", Locations: location(skip.File, skip.Line, skip.Col),
			span: textSpan{from, len(w.text)}}
	}

	tops := make([]Attribution, 0, attrs)
	for i := range r.Loops {
		l := &r.Loops[i]
		s := l.Suggestion
		switch verdictRule(l) {
		case RuleDisagree:
			var top []Attribution
			tops, top = appendTop(tops, s.Attributions, topAttributions)
			head := len(w.text)
			w.write("review: model suggests `", s.Directive, "` but the dependence analysis disagrees")
			if wit := witnessSummary(s.Witness); wit != "" {
				w.write(" (", wit, ")")
			}
			if v := raceVector(s.Races); v != "" {
				w.write("; distance vector ", v)
			}
			for k, a := range top {
				if k == 0 {
					w.write("; influential tokens:")
				}
				w.write(" `", a.Token, "`")
			}
			w.add(l, RuleDisagree, "warning", sarifProperties{
				Attributions: top, Races: s.Races, Tier: s.Tier, Witness: s.Witness}, head)
		case RuleParallelize:
			head := len(w.text)
			w.write("suggest `", s.Directive, "` (", s.Tier, ")")
			w.add(l, RuleParallelize, "note", sarifProperties{}, head)
		case RuleAnnotated:
			for _, occ := range l.Occurrences {
				from := len(w.text)
				w.write("loop already annotated: `#", occ.Pragma, "`")
				w.results = append(w.results, l.result(occ, RuleAnnotated, "none", textSpan{from, len(w.text)}, sarifProperties{}))
			}
		}
		// Race witnesses are a property of the code, not of the model's
		// verdict: every dep-refuted loop additionally surfaces as PF1004,
		// whatever tier the suggestion landed on.
		if s != nil && len(s.Races) > 0 {
			head := len(w.text)
			w.writeRaces(s.Races)
			w.add(l, RuleRace, "warning", sarifProperties{Races: s.Races, Witness: s.Witness}, head)
		}
	}

	text := string(w.text)
	if cap(w.text) <= maxPooledText {
		*buf = w.text[:0]
		sarifTexts.Put(buf)
	}
	for i := range inv.Notifications {
		n := &inv.Notifications[i]
		n.Message.Text = text[n.span.from:n.span.to]
	}
	for i := range w.results {
		res := &w.results[i]
		res.Message.Text = text[res.span.from:res.span.to]
	}
	run := sarifRun{
		Tool:        sarifTool{Driver: sarifDriver{Name: "pragformer", Rules: sarifRules}},
		Invocations: [1]sarifInvocation{inv},
		Results:     w.results,
	}
	return encodeIndented(sarifLog{Schema: sarifSchema, Version: sarifVersion, Runs: [1]sarifRun{run}})
}

// sarifRules are the rules every log declares.
var sarifRules = []sarifRule{
	{ID: RuleParallelize, ShortDescription: sarifMessage{
		Text: "Loop is a candidate for an OpenMP parallel-for directive"}},
	{ID: RuleAnnotated, ShortDescription: sarifMessage{
		Text: "Loop already carries an OpenMP pragma"}},
	{ID: RuleDisagree, ShortDescription: sarifMessage{
		Text: "review: model and dependence analysis disagree"}},
	{ID: RuleRace, ShortDescription: sarifMessage{
		Text: "potential loop-carried race found by the dependence analysis"}},
}

// topAttributions is how many attributions, by |weight|, a PF1003 result
// carries as evidence.
const topAttributions = 3

// sarifTexts lends SARIF its message buffer. As with api's encodeBufs, a
// buffer grown past maxPooledText is left to the collector rather than
// kept by the pool.
var sarifTexts = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledText = 1 << 20

// verdictRule is the rule a loop's occurrences surface under for its
// verdict, "" for none (PF1004 is added on top, by its witnesses).
func verdictRule(l *Loop) string {
	s := l.Suggestion
	switch {
	case s != nil && s.Parallelize && s.Tier == advisor.TierDisagree.String():
		return RuleDisagree
	case s != nil && s.Parallelize:
		return RuleParallelize
	case l.Annotated:
		return RuleAnnotated
	}
	return ""
}

// sarifSizes counts the results SARIF appends and the attributions their
// PF1003 evidence carries.
func (r *Report) sarifSizes() (results, attrs int) {
	for i := range r.Loops {
		l := &r.Loops[i]
		switch verdictRule(l) {
		case RuleDisagree:
			attrs += min(len(l.Suggestion.Attributions), topAttributions)
			fallthrough
		case RuleParallelize, RuleAnnotated:
			results += len(l.Occurrences)
		}
		if l.Suggestion != nil && len(l.Suggestion.Races) > 0 {
			results += len(l.Occurrences)
		}
	}
	return results, attrs
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

// writeRaces writes the PF1004 message: every witness as dep.Witness.String
// renders it.
func (w *sarifWriter) writeRaces(races []dep.Witness) {
	w.write("potential loop-carried race: ")
	for i, wit := range races {
		if i > 0 {
			w.write("; ")
		}
		w.write(wit.Kind, " dependence on ", wit.Array, ": ", wit.Source.Expr, " -> ", wit.Sink.Expr)
		if wit.Distance != "" {
			w.write(" distance ", wit.Distance)
		}
	}
}

// witnessSummary picks the decisive dependence reason for the PF1003
// message: the last witness line names the analysis' verdict.
func witnessSummary(witness []string) string {
	if len(witness) == 0 {
		return ""
	}
	return witness[len(witness)-1]
}

// appendTop appends to dst the topK of attrs by |weight|, ties kept in
// token order, and returns dst and what it appended — the evidence subset
// PF1003 results carry, ranked by insertion into at most topK slots.
func appendTop(dst, attrs []Attribution, topK int) ([]Attribution, []Attribution) {
	base := len(dst)
	for _, a := range attrs {
		top := dst[base:]
		j := len(top)
		for j > 0 && cmp.Less(math.Abs(top[j-1].Weight), math.Abs(a.Weight)) {
			j--
		}
		if j == topK {
			continue
		}
		if len(top) < topK {
			dst = append(dst, a)
			top = dst[base:]
		}
		copy(top[j+1:], top[j:len(top)-1])
		top[j] = a
	}
	return dst, dst[base:len(dst):len(dst)]
}

// sarifWriter collects a log's results and writes their messages one after
// another into text; a result holds its message's span of text until the
// whole buffer becomes one string.
type sarifWriter struct {
	results []sarifResult
	text    []byte
}

// textSpan is where a message lies in a sarifWriter's text.
type textSpan struct{ from, to int }

func (w *sarifWriter) write(parts ...string) {
	for _, s := range parts {
		w.text = append(w.text, s...)
	}
}

// add appends one result per occurrence of l, with props shared by all of
// them. The message is the head written last, from text[head:], plus the
// enclosing function where there is one: occurrences without a function
// share the head's span, and one with a function copies the head unless
// it is still the last thing written.
func (w *sarifWriter) add(l *Loop, rule, level string, props sarifProperties, head int) {
	end := len(w.text)
	for _, occ := range l.Occurrences {
		span := textSpan{head, end}
		if occ.Function != "" {
			if len(w.text) != end {
				span.from = len(w.text)
				w.text = append(w.text, w.text[head:end]...)
			}
			w.write(" in function ", occ.Function)
			span.to = len(w.text)
		}
		w.results = append(w.results, l.result(occ, rule, level, span, props))
	}
}

func (l *Loop) result(occ Occurrence, rule, level string, span textSpan, props sarifProperties) sarifResult {
	return sarifResult{
		RuleID:              rule,
		Level:               level,
		Locations:           location(occ.File, occ.Line, occ.Col),
		PartialFingerprints: sarifFingerprints{LoopHash: l.Hash},
		Properties:          props,
		span:                span,
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
