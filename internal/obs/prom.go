package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
)

// families snapshots the registered families in registration order.
func (r *Registry) families() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*family(nil), r.order...)
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (HELP/TYPE headers, then one sample line per series,
// families and series in registration order).
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range r.families() {
		f.mu.Lock()
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.help)
		b.WriteString("\n# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.typ)
		b.WriteByte('\n')
		for _, ls := range f.order {
			f.series[ls].expose(&b, f.name, ls)
		}
		f.mu.Unlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON renders every registered series as one JSON object. Each key
// is the series as /metrics names it (`name` or `name{labels}`); a
// counter or gauge maps to its number, a histogram to its count, sum,
// p50, p90, p99 and max, in seconds.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := make(map[string]any)
	for _, f := range r.families() {
		f.mu.Lock()
		for _, ls := range f.order {
			key := f.name
			if ls != "" {
				key += "{" + ls + "}"
			}
			out[key] = f.series[ls].value()
		}
		f.mu.Unlock()
	}
	return json.NewEncoder(w).Encode(out)
}

// Handler serves GET /metrics in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// JSONHandler serves GET /statz: the registry as WriteJSON renders it.
func (r *Registry) JSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
}
