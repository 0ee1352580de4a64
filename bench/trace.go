package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pragformer/internal/obs"
)

// span is one timed region recorded by the harness: around an op, around a
// replayed layer call, or adopted from the spans the program returns.
// Times are microseconds since the recorder was made. Parent 0 is the root.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
	Parent int    `json:"parent"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) us(t time.Time) int64 { return t.Sub(r.epoch).Microseconds() }

// add records a span and returns its id.
func (r *recorder) add(name string, start, end time.Time, parent int) int {
	return r.addUs(name, r.us(start), r.us(end), parent)
}

func (r *recorder) addUs(name string, start, end int64, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Name: name, Start: start, End: end, Parent: parent})
	return id
}

// time runs fn inside a span.
func (r *recorder) time(name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	r.add(name, t0, t1, 0)
	return t1.Sub(t0)
}

// programParent nests the program's flat span list: which span a name runs
// inside. Names not listed are children of the op itself. Replica spans
// reach the router merged into its trace with offsets from the replica's
// own start, so they are placed relative to the forward that carried them.
var programParent = map[string]string{
	"store.get":     "route",
	"queue-wait":    "forward",
	"batch-compute": "forward",
	"infer":         "batch-compute",
	"corroborate":   "batch-compute",
}

// adopt records the program's spans for one op as descendants of the op
// span. scan reports store.get/store.put at the top level, so nesting
// applies only when the parent name is present.
func (r *recorder) adopt(op int, opStart time.Time, spans []obs.WireSpan) {
	base := r.us(opStart)
	ids := map[string]int{}
	starts := map[string]int64{}
	place := func(s obs.WireSpan, parent int, origin int64) {
		st := origin + s.StartUs
		id := r.addUs(s.Name, st, st+s.DurUs, parent)
		if _, dup := ids[s.Name]; !dup {
			ids[s.Name], starts[s.Name] = id, st
		}
	}
	var nested []obs.WireSpan
	for _, s := range spans {
		if _, ok := programParent[s.Name]; ok {
			nested = append(nested, s)
			continue
		}
		place(s, op, base)
	}
	// Parents before children: "batch-compute" must exist before "infer".
	sort.SliceStable(nested, func(i, j int) bool {
		return depth(nested[i].Name) < depth(nested[j].Name)
	})
	for _, s := range nested {
		pid, ok := ids[programParent[s.Name]]
		if !ok {
			place(s, op, base)
			continue
		}
		origin := base
		if fwd, ok := starts["forward"]; ok && programParent[s.Name] != "route" {
			origin = fwd
		}
		place(s, pid, origin)
	}
}

func depth(name string) int {
	d := 0
	for p, ok := programParent[name]; ok; p, ok = programParent[p] {
		d++
	}
	return d
}

// layerTotal aggregates one span name.
type layerTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"` // total minus what child spans cover
}

// totals computes per-name totals and self times. A span's self time is
// its duration minus the part of its interval that its children cover.
func (r *recorder) totals() []layerTotal {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := map[string]*layerTotal{}
	for _, s := range spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTotal{Name: s.Name}
			by[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.TotalMs += float64(dur) / 1000
		lt.SelfMs += float64(dur-covered(s, children[s.ID])) / 1000
	}
	out := make([]layerTotal, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	end := parent.Start
	for _, k := range kids {
		s, e := max(k.Start, end), min(k.End, parent.End)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// coverage is the share of the named spans' time that their children
// account for: program spans over client wall.
func coverage(totals []layerTotal, name string) float64 {
	for _, lt := range totals {
		if lt.Name == name && lt.TotalMs > 0 {
			return 1 - lt.SelfMs/lt.TotalMs
		}
	}
	return 0
}

// maxFileSpans bounds the span file: the hot workload records several
// hundred thousand spans and the first 50 000 show every shape there is.
// The totals printed and stored beside them cover every span.
const maxFileSpans = 50000

// write stores the spans and their totals as bench/out/trace-<workload>.json.
func (r *recorder) write(dir, workload string, totals []layerTotal) (string, error) {
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	doc := struct {
		Workload  string       `json:"workload"`
		Spans     []span       `json:"spans"`
		Truncated int          `json:"spans_not_written,omitempty"`
		Totals    []layerTotal `json:"totals"`
	}{Workload: workload, Spans: spans, Totals: totals}
	if len(spans) > maxFileSpans {
		doc.Spans, doc.Truncated = spans[:maxFileSpans], len(spans)-maxFileSpans
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	return path, os.WriteFile(path, b, 0o644)
}
