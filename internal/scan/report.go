package scan

import (
	"encoding/json"
	"sync"
)

// JSON renders the report as indented JSON with a trailing newline — the
// `pragformer scan -format json` output. It only reads the report (whose
// verdicts may be a store's), and the bytes are the caller's own.
func (r *Report) JSON() ([]byte, error) { return encodeIndented(r) }

// indentEncoder is a json.Encoder at the report indent whose writer is
// itself: what Encode writes lands in out, a fresh slice each time, while
// the encoder's indent buffer stays with the pooled value. The bytes equal
// json.MarshalIndent(v, "", "  ") plus a newline.
type indentEncoder struct {
	enc *json.Encoder
	out []byte
}

func (e *indentEncoder) Write(p []byte) (int, error) {
	e.out = append(e.out, p...)
	return len(p), nil
}

var indentEncoders = sync.Pool{New: func() any {
	e := new(indentEncoder)
	e.enc = json.NewEncoder(e)
	e.enc.SetIndent("", "  ")
	return e
}}

// encodeIndented is the one encoder behind Report.JSON and Report.SARIF.
func encodeIndented(v any) ([]byte, error) {
	e := indentEncoders.Get().(*indentEncoder)
	err := e.enc.Encode(v)
	out := e.out
	e.out = nil
	indentEncoders.Put(e)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stable returns a deep copy with every run-dependent field cleared: raw
// probabilities (which differ between the float64 and int8 backends even
// when every label agrees), the backend name, the root path, and the cache
// accounting (which differs between cold and warm runs of the same tree).
// Two scans of the same tree with agreeing labels produce byte-identical
// stable JSON regardless of backend or cache temperature — the form the
// golden fixtures and the CI label-agreement gate diff.
func (r *Report) Stable() *Report {
	out := &Report{
		Tool:     r.Tool,
		Counters: r.Counters,
	}
	out.Counters.CacheHits = 0
	out.Counters.Inferred = 0
	out.Loops = make([]Loop, len(r.Loops))
	for i, l := range r.Loops {
		c := l
		c.FromCache = false
		c.queued = false
		c.Occurrences = append([]Occurrence(nil), l.Occurrences...)
		if l.Suggestion != nil {
			s := l.Suggestion.clone()
			s.Probability = 0
			// Attribution weights are backend-identical only while every
			// perturbation label agrees; the stable form keeps the
			// attributed token list but drops the numbers so the
			// cross-backend golden gate stays strictly label-driven.
			for k := range s.Attributions {
				s.Attributions[k].Weight = 0
			}
			c.Suggestion = s
		}
		out.Loops[i] = c
	}
	out.Skips = append([]Skip(nil), r.Skips...)
	return out
}
