package experiments

// The agreement study audits the corroborated-verdict ladder end to end:
// it runs the trained directive classifier through the advisor (dependence
// analysis + S2S corroboration, LIME off — attribution values are not
// tabulated here) over the held-out test split and the examples/scantree
// fixture tree, and reports how the positive verdicts distribute across
// the tiers. On the corpus rows the ground-truth labels additionally say
// who wins a disagreement: "dep right" counts disagreements where the
// label sides with the dependence analysis — the number that justifies
// rendering PF1003 at warning level instead of trusting the model.

import (
	"context"
	"fmt"
	"io"

	"pragformer/internal/advisor"
	"pragformer/internal/dataset"
	"pragformer/internal/dep"
	"pragformer/internal/scan"
	"pragformer/internal/tokenize"
)

// AgreementRow tabulates one source of loops.
type AgreementRow struct {
	Source   string
	Loops    int // suggestions audited (negatives included)
	Positive int // model verdicts with Parallelize=true

	// Tier distribution over the positive verdicts.
	ModelOnly    int // dependence analysis could not run
	AnalysisOnly int // analysis agrees, no S2S member parallelized
	Corroborated int // analysis agrees and an S2S member parallelized
	Disagree     int // analysis refutes the model

	// HasTruth marks corpus rows, where labels adjudicate disagreements.
	HasTruth bool
	DepRight int // disagreements where the ground truth sides with the analysis

	// Analysis depth over all audited loops (negatives included): how far
	// the dependence engine got, independent of the model's verdict.
	Witnessed int // refuted with a concrete race witness (kind + sites + vector)
	Bailed    int // analysis could not run, or refuted without a concrete witness
	Converted int // refutation rescued by privatization/reduction clauses
}

// AgreementTable is the pop_setbench-style one-driver table: every row is
// produced by the same advisor object, so the numbers are comparable
// across sources by construction.
type AgreementTable struct {
	Rows []AgreementRow
}

// AdvisorModels bundles the pipeline's trained Text-representation
// directive classifier into an advisor the way cmd/pragformer would. The
// pipeline's clause models stay out of it, as they stay out of every
// served bundle: the analysis names the clauses. LIME is disabled: this
// study tabulates tiers, not tokens.
func (p *Pipeline) AdvisorModels() *advisor.Models {
	t := p.Model(dataset.TaskDirective, tokenize.Text)
	return &advisor.Models{
		Directive: t.Model,
		Vocab:     p.Vocab(tokenize.Text),
		NoExplain: true,
	}
}

// RunAgreement measures model/analysis/S2S agreement on the directive
// test split and, when scanTree is non-empty, on the loops of that fixture
// tree (scanned through the same advisor object as the corpus row).
func (p *Pipeline) RunAgreement(scanTree string) AgreementTable {
	models := p.AdvisorModels()
	split := p.DirectiveSplit()

	tab := AgreementTable{}
	codes := make([]string, len(split.Test))
	for i, in := range split.Test {
		codes[i] = in.Rec.Code
	}
	p.progress("agreement study: corroborating %d test snippets", len(codes))
	items, err := models.SuggestBatch(codes)
	if err != nil {
		panic(err) // corpus snippets are generated, always lexable
	}
	row := AgreementRow{Source: "corpus-test", HasTruth: true}
	for i, it := range items {
		if it.Suggestion == nil {
			continue
		}
		cor := it.Suggestion.Corroboration
		tallyTier(&row, cor.Tier, it.Suggestion.Parallelize)
		tallyDepth(&row, cor.DepRan, cor.Races, cor.Converted)
		if cor.Tier == advisor.TierDisagree && !split.Test[i].Label {
			row.DepRight++
		}
	}
	tab.Rows = append(tab.Rows, row)

	if scanTree != "" {
		p.progress("agreement study: scanning %s", scanTree)
		rep, err := scan.Dir(context.Background(), scanTree, scan.Config{}, models)
		if err != nil {
			panic(fmt.Sprintf("agreement study: scan %s: %v", scanTree, err))
		}
		row := AgreementRow{Source: scanTree}
		for _, l := range rep.Loops {
			if l.Suggestion == nil {
				continue
			}
			s := l.Suggestion
			tallyTier(&row, advisor.ParseTier(s.Tier), s.Parallelize)
			// The scan report has no DepRan flag; the witness reasons are
			// only ever attached by an analysis that ran.
			tallyDepth(&row, len(s.Witness) > 0, s.Races, s.Converted)
		}
		tab.Rows = append(tab.Rows, row)
	}
	return tab
}

// tallyDepth classifies how far the analysis got on one loop. A loop the
// analysis cleared (ran, no refutation) lands in no bucket; conversion is
// orthogonal to the witnessed/bailed split (a converted loop's refuting
// witness was dissolved, not produced).
func tallyDepth(row *AgreementRow, depRan bool, races []dep.Witness, converted []string) {
	if len(converted) > 0 {
		row.Converted++
	}
	concrete := false
	for _, w := range races {
		if w.Concrete() {
			concrete = true
		}
	}
	switch {
	case concrete:
		row.Witnessed++
	case !depRan || len(races) > 0:
		row.Bailed++
	}
}

func tallyTier(row *AgreementRow, tier advisor.Tier, positive bool) {
	row.Loops++
	if !positive {
		return
	}
	row.Positive++
	switch tier {
	case advisor.TierDisagree:
		row.Disagree++
	case advisor.TierAnalysisAgrees:
		row.AnalysisOnly++
	case advisor.TierCorroborated:
		row.Corroborated++
	default:
		row.ModelOnly++
	}
}

// Print renders the table.
func (t AgreementTable) Print(w io.Writer) {
	fmt.Fprintln(w, "Corroborated verdicts: tier distribution of positive model verdicts")
	fmt.Fprintf(w, "  %-18s %6s %9s %11s %15s %21s %9s %10s %9s %6s %9s\n",
		"source", "loops", "positive", "model-only", "model+analysis", "model+analysis+compar", "disagree", "dep right",
		"witnessed", "bailed", "converted")
	for _, r := range t.Rows {
		right := "—"
		if r.HasTruth {
			right = fmt.Sprintf("%d/%d", r.DepRight, r.Disagree)
		}
		fmt.Fprintf(w, "  %-18s %6d %9d %11d %15d %21d %9d %10s %9d %6d %9d\n",
			r.Source, r.Loops, r.Positive, r.ModelOnly, r.AnalysisOnly, r.Corroborated, r.Disagree, right,
			r.Witnessed, r.Bailed, r.Converted)
	}
}
