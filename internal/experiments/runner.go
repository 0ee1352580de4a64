package experiments

import (
	"fmt"
	"io"
)

// Experiment names accepted by Run, ordered so the headline comparisons
// (which reuse the Text-representation directive model) complete before the
// representation study trains three further models and the ablations six
// more — partial runs still cover the paper's main tables.
var Names = []string{
	"table3", "table4", "figure3", "table5", "table6", "table7",
	"table8", "figure7", "table9", "table10", "table11", "table12",
	"figures456", "ablation-pretrain", "ablation-heads", "ablation-seqlen",
	"quant", "agreement",
}

// Run executes one named experiment and prints it to w. Unknown names
// return an error listing the valid choices.
func (p *Pipeline) Run(name string, w io.Writer) error {
	switch name {
	case "table3":
		p.RunTable3().Print(w)
	case "table4":
		p.RunTable4().Print(w)
	case "figure3":
		p.RunFigure3().Print(w)
	case "table5":
		p.RunTable5().Print(w)
	case "table6":
		p.RunTable6().Print(w)
	case "table7":
		p.RunTable7().Print(w)
	case "figures456":
		p.RunFigures456().Print(w)
	case "table8":
		p.RunTable8().Print(w)
	case "figure7":
		p.RunFigure7().Print(w)
	case "table9":
		p.RunTable9().Print(w)
	case "table10":
		p.RunTable10().Print(w)
	case "table11":
		p.RunTable11().Print(w)
	case "table12":
		PrintExamples(w, p.RunTable12Figure8())
	case "ablation-pretrain":
		p.RunAblationPretraining().Print(w)
	case "ablation-heads":
		p.RunAblationHeads().Print(w)
	case "ablation-seqlen":
		p.RunAblationSeqLen().Print(w)
	case "quant":
		p.RunQuant().Print(w)
	case "agreement":
		p.RunAgreement(p.Cfg.ScanTree).Print(w)
	default:
		return fmt.Errorf("experiments: unknown experiment %q (valid: %v)", name, Names)
	}
	fmt.Fprintln(w)
	return nil
}

// RunAll executes every experiment in paper order.
func (p *Pipeline) RunAll(w io.Writer) error {
	for _, name := range Names {
		if err := p.Run(name, w); err != nil {
			return err
		}
	}
	return nil
}
