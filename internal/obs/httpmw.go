package obs

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// RequestHistogram is the canonical request-duration series for one HTTP
// path, the one the middleware records into.
func RequestHistogram(reg *Registry, path string) *Histogram {
	return reg.Histogram("pf_request_duration_seconds",
		"HTTP request duration in seconds, by path.",
		Labels{"path": path}, nil)
}

// The wire names are not in canonical MIME form, so Header.Get would
// re-canonicalize them, allocating, on every request; inbound lookups use
// these, which Get recognizes as canonical and returns at once.
var (
	traceKey    = http.CanonicalHeaderKey(TraceHeader)
	deadlineKey = http.CanonicalHeaderKey(DeadlineHeader)
)

// Middleware instruments HTTP routes: request-duration histograms, trace
// minting/propagation via the X-PF-Trace header, and client deadline
// enforcement via X-PF-Deadline-Ms (an already-expired budget is answered
// 504 before the handler runs).
type Middleware struct {
	reg    *Registry
	logger *slog.Logger
}

// NewMiddleware builds a middleware over reg. A nil logger traces only the
// requests carrying TraceHeader; a non-nil one traces every request and
// receives one structured line per request.
func NewMiddleware(reg *Registry, logger *slog.Logger) *Middleware {
	return &Middleware{reg: reg, logger: logger}
}

// statusWriter captures the response status for the per-request log line.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Wrap instruments one route. path is both the metric label and the
// logical route name.
func (m *Middleware) Wrap(path string, next http.HandlerFunc) http.HandlerFunc {
	hist := RequestHistogram(m.reg, path)
	expired := m.reg.Counter("pf_deadline_exceeded_total",
		"Requests shed because the client deadline had already expired.",
		Labels{"path": path})
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer func() { hist.ObserveSince(start) }()

		ctx := r.Context()
		ms, hasDeadline, err := deadlineMs(r.Header)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "bad "+DeadlineHeader+" header: "+err.Error())
			return
		}
		if hasDeadline {
			if ms <= 0 {
				expired.Inc()
				jsonError(w, http.StatusGatewayTimeout, "deadline expired before processing")
				return
			}
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
			defer cancel()
		}

		var tr *Trace
		if id := r.Header.Get(traceKey); id != "" || m.logger != nil {
			tr = NewTrace(id)
			ctx = WithTrace(ctx, tr)
			w.Header().Set(TraceHeader, tr.ID)
		}

		if ctx != r.Context() {
			r = r.WithContext(ctx)
		}
		if m.logger == nil {
			next(w, r)
			return
		}
		// Only a logged request needs its status captured.
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next(sw, r)
		attrs := []slog.Attr{
			slog.String("trace", tr.ID),
			slog.String("path", path),
			slog.Int("status", sw.status),
			slog.Duration("dur", time.Since(start)),
		}
		for _, st := range tr.Summary() {
			attrs = append(attrs, slog.Group(st.Name,
				slog.Int("count", st.Count), slog.Duration("total", st.Total)))
		}
		m.logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	}
}

// deadlineMs parses the remaining-budget header; hasDeadline is false when
// the header is absent.
func deadlineMs(h http.Header) (ms int64, hasDeadline bool, err error) {
	v := h.Get(deadlineKey)
	if v == "" {
		return 0, false, nil
	}
	ms, err = strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, false, err
	}
	return ms, true, nil
}

// SetDeadlineHeader writes the context's remaining budget onto an outbound
// request, clamped to at least 1ms (a sub-millisecond remainder still has
// to survive JSON round-trips; the receiving middleware re-arms its own
// timer). No-op when the context has no deadline.
func SetDeadlineHeader(ctx context.Context, h http.Header) {
	dl, ok := ctx.Deadline()
	if !ok {
		return
	}
	ms := time.Until(dl).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	h.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
}

func jsonError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// WithPprof overlays the net/http/pprof handlers on an API handler. The
// binaries call it only under their -pprof flag, so profiling is never
// exposed by accident.
func WithPprof(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", next)
	return mux
}
