// Package api is the HTTP/JSON contract cmd/serve and cmd/router both
// speak: the request and response bodies of POST /predict, /suggest and
// /scan, the replica's readiness body, the error and load-shedding
// replies, the bounded body decode, and the handler shell of each of the
// three POST routes. A replica renders
// these types, the router decodes, merges and re-renders the same ones —
// except /suggest results, which it relays as the replica's bytes — so a
// field added here reaches both sides or neither.
//
// Bodies are read whole and decoded by json.Unmarshal, except the /suggest
// request both binaries decode many times a second and the reply of relayed
// items the router reads from a replica, which strict readers decode without
// reflection, handing json.Unmarshal every body they do not match exactly;
// an untraced reply of relayed items is written without re-encoding them
// (wire.go).
//
// The flat verdict itself is scan.Suggestion — already the report, cache
// and store form — and a /suggest item is scan.Verdict, that verdict plus
// an error slot: what a replica answers /suggest with is what its /scan
// hands the scan pipeline, and the router's /scan decodes replica replies
// straight into the items the pipeline reads.
package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"pragformer/internal/obs"
	"pragformer/internal/scan"
)

// Limits on outside input. One /scan request may not starve the engine:
// payloads over MaxScanFiles files or MaxScanBytes total source are
// rejected up front, and every POST body is cut off at MaxBodyBytes
// before decoding (2x covers JSON escaping overhead), so the limits cap
// memory, not just report shape.
const (
	MaxScanFiles = 512
	MaxScanBytes = 8 << 20
	MaxBodyBytes = 2 * MaxScanBytes
)

// PredictRequest is the /predict body. Results come back in the order
// codes, code, ids.
type PredictRequest struct {
	Code  string   `json:"code,omitempty"`
	Codes []string `json:"codes,omitempty"`
	IDs   [][]int  `json:"ids,omitempty"`
}

// PredictResult is one /predict outcome.
type PredictResult struct {
	Probability float64 `json:"probability"`
	Parallelize bool    `json:"parallelize"`
	Error       string  `json:"error,omitempty"`
}

// Response is the /predict and /suggest reply: one result per request
// item, in request order.
type Response[T any] struct {
	Results []T `json:"results"`
	// Trace carries the spans of a traced request: the replica's own, and
	// on the router's reply the merged fleet-wide trace.
	Trace *obs.Wire `json:"trace,omitempty"`
}

// PredictResponse is the /predict reply.
type PredictResponse = Response[PredictResult]

// SuggestRequest is the /suggest body. Results come back in the order
// codes, code.
type SuggestRequest struct {
	Code  string   `json:"code,omitempty"`
	Codes []string `json:"codes,omitempty"`
}

// SuggestResult is one /suggest outcome: the flat verdict, or a per-item
// error (unlexable snippet, shed, failed forward). It is the scan
// pipeline's own verdict item.
type SuggestResult = scan.Verdict

// SuggestResponse is the /suggest reply.
type SuggestResponse = Response[SuggestResult]

// ScanRequest is the /scan body.
type ScanRequest struct {
	Files []ScanFile `json:"files"`
	// Format selects the response rendering: "json" (default) or "sarif".
	Format string `json:"format,omitempty"`
	// IncludeAnnotated also advises loops that already carry a pragma.
	IncludeAnnotated bool `json:"include_annotated,omitempty"`
	// Stable strips run-dependent fields (probabilities, backend, cache
	// counters) like `pragformer scan -stable` — what golden comparisons
	// and the tier CI smoke diff against.
	Stable bool `json:"stable,omitempty"`
}

// ScanFile is one in-memory source file.
type ScanFile struct {
	Path   string `json:"path"`
	Source string `json:"source"`
}

// Readiness is a replica's GET /readyz body, answered 200 when Ready and
// 503 otherwise, and everything the router's prober reads of a replica.
type Readiness struct {
	Ready      bool   `json:"ready"`
	State      string `json:"state"` // "ok" | "draining" | "reloading"
	Backend    string `json:"backend"`
	Generation uint64 `json:"generation"`
}

// jsonContentType is every JSON reply's Content-Type value, one slice
// shared by all of them: a server only reads the headers it writes.
var jsonContentType = []string{"application/json"}

// encodeBuf is a buffer with a JSON encoder writing into it.
type encodeBuf struct {
	bytes.Buffer
	enc *json.Encoder
}

// encodeBufs lends WriteJSON and writeResults their buffers. As with
// readBufs, a buffer grown past maxPooledRead goes to the collector.
var encodeBufs = sync.Pool{New: func() any {
	b := new(encodeBuf)
	b.enc = json.NewEncoder(&b.Buffer)
	return b
}}

// release empties b and returns it to the pool.
func (b *encodeBuf) release() {
	if b.Cap() <= maxPooledRead {
		b.Reset()
		encodeBufs.Put(b)
	}
}

// WriteJSON answers with status and v as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	b := encodeBufs.Get().(*encodeBuf)
	// An encode or write error means v cannot be rendered or the connection
	// is gone; nothing useful is left to do.
	if b.enc.Encode(v) == nil {
		_, _ = w.Write(b.Bytes())
	}
	b.release()
}

// Error answers with status and {"error": msg}.
func Error(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{"error": msg})
}

// Shed is the load-shedding reply: 429 with a Retry-After hint sized to
// a couple of batching windows.
func Shed(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	Error(w, http.StatusTooManyRequests, msg)
}

// readBufs lends ReadJSON its read buffers. A buffer grown past
// maxPooledRead (a large /scan body) goes to the collector instead, so the
// pool never pins one.
var readBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledRead = 1 << 20

// ReadJSON reads r to its end into a pooled buffer and decodes the whole of
// it into v: an empty body, a truncated value and bytes after the value are
// all errors. A /suggest request and a reply of relayed items are read
// without reflection (readStrict); every other body, and any error, is
// json.Unmarshal's. The buffer goes back to the pool on return; v keeps
// nothing of it, because every decoder copies each string and item it
// stores.
func ReadJSON(r io.Reader, v any) error {
	buf := readBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledRead {
			buf.Reset()
			readBufs.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(r); err != nil {
		return err
	}
	if readStrict(buf.Bytes(), v) {
		return nil
	}
	return json.Unmarshal(buf.Bytes(), v)
}

// DecodeBody decodes a POST body of at most MaxBodyBytes into v with
// ReadJSON. On failure it has answered — 413 for an oversized body, 400 for
// anything else — and reports false.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := ReadJSON(http.MaxBytesReader(w, r.Body, MaxBodyBytes), v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		Error(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
	} else {
		Error(w, http.StatusBadRequest, fmt.Sprintf("bad request: %v", err))
	}
	return false
}

// ServePredict is POST /predict on both binaries: decode, put the items in
// reply order (codes, code, ids), answer, render. answer is what differs
// per side — the engine's batcher on a replica, the fleet fan-out on the
// router — and returns one result per item, codes first, plus how many of
// them it refused for saturation; shedMsg is that side's 429 text.
func ServePredict(w http.ResponseWriter, r *http.Request, shedMsg string,
	answer func(ctx context.Context, codes []string, ids [][]int) (results []PredictResult, shed int)) {
	var req PredictRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	codes := req.Codes
	if req.Code != "" {
		codes = append(codes, req.Code)
	}
	results, shed := answer(r.Context(), codes, req.IDs)
	respond(w, r, shedMsg, results, shed)
}

// ServeSuggest is POST /suggest on both binaries, as ServePredict is
// /predict. T is what a result is held as: a SuggestResult on a replica,
// the replica's rendered bytes of one on the router.
func ServeSuggest[T any](w http.ResponseWriter, r *http.Request, shedMsg string,
	answer func(ctx context.Context, codes []string) (results []T, shed int)) {
	d := new(struct {
		req  SuggestRequest
		slot [1]string
	})
	if !DecodeBody(w, r, &d.req) {
		return
	}
	results, shed := answer(r.Context(), withCode(d.req.Codes, d.req.Code, &d.slot))
	respond(w, r, shedMsg, results, shed)
}

// withCode is a request's items in reply order, codes then code. A request
// of one code answers it from slot, allocated with the decoded request,
// instead of a slice of its own.
func withCode(codes []string, code string, slot *[1]string) []string {
	switch {
	case code == "":
		return codes
	case len(codes) == 0:
		slot[0] = code
		return slot[:]
	}
	return append(codes, code)
}

// respond renders an answered request. Only a request every item of which
// was shed turns into a whole-request 429; mixed outcomes keep the inline
// per-item error contract. Relayed items of an untraced reply are written
// as they are (writeResults).
func respond[T any](w http.ResponseWriter, r *http.Request, shedMsg string, results []T, shed int) {
	if len(results) > 0 && shed == len(results) {
		Shed(w, shedMsg)
		return
	}
	trace := obs.TraceFrom(r.Context()).Wire()
	if items, ok := any(results).([]json.RawMessage); ok && items != nil && trace == nil {
		writeResults(w, items)
		return
	}
	WriteJSON(w, http.StatusOK, Response[T]{Results: results, Trace: trace})
}

// ServeScan is POST /scan on both binaries: decode, enforce the limits,
// run the scan pipeline, render JSON or SARIF. The caller supplies what
// differs per side — base carries its batch size, backend label and verdict
// store (parse workers take scan's default), suggest its inference path
// (the engine's suggest batcher on a replica, the fleet fan-out on the
// router). A trace is never attached: scan bytes are golden-compared.
func ServeScan(w http.ResponseWriter, r *http.Request, base scan.Config, suggest func(codes []string) []scan.Verdict) {
	var req ScanRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	if len(req.Files) == 0 {
		Error(w, http.StatusBadRequest, "no files in scan request")
		return
	}
	if len(req.Files) > MaxScanFiles {
		Error(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("%d files exceeds the per-request limit of %d", len(req.Files), MaxScanFiles))
		return
	}
	total := 0
	srcs := make([]scan.Source, len(req.Files))
	for i, f := range req.Files {
		if f.Path == "" {
			Error(w, http.StatusBadRequest, fmt.Sprintf("file %d has no path", i))
			return
		}
		total += len(f.Source)
		srcs[i] = scan.Source{Path: f.Path, Data: []byte(f.Source)}
	}
	if total > MaxScanBytes {
		Error(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("%d source bytes exceeds the per-request limit of %d", total, MaxScanBytes))
		return
	}
	if req.Format != "" && req.Format != "json" && req.Format != "sarif" {
		Error(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (json|sarif)", req.Format))
		return
	}
	cfg := base
	cfg.IncludeAnnotated = req.IncludeAnnotated

	rep, err := scan.Files(r.Context(), srcs, cfg, suggest)
	if err != nil {
		status := http.StatusInternalServerError
		if r.Context().Err() != nil {
			status = 499 // client closed request
		}
		Error(w, status, err.Error())
		return
	}
	if req.Stable {
		rep = rep.Stable()
	}
	var out []byte
	if req.Format == "sarif" {
		out, err = rep.SARIF()
	} else {
		out, err = rep.JSON()
	}
	if err != nil {
		Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(out)
}
