package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"pragformer/internal/advisor"
	"pragformer/internal/core"
	"pragformer/internal/obs"
	"pragformer/internal/serve"
	"pragformer/internal/tier"
)

// fleet is the serving tier in one process: a router with default
// settings in front of replicas with default settings, each behind its own
// loopback HTTP server, built through public functions only.
type fleet struct {
	engines  []*serve.Engine
	replicas []*httptest.Server
	router   *tier.Router
	front    *httptest.Server
	client   *http.Client
}

// newFleet starts n replicas serving models and a router over them. conns
// is how many keep-alive connections the load generator may hold.
func newFleet(models *advisor.Models, n, conns int) (*fleet, error) {
	f := &fleet{client: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute,
		},
	}}
	var urls []string
	for i := 0; i < n; i++ {
		e, err := serve.New(models, serve.Config{})
		if err != nil {
			f.close()
			return nil, err
		}
		srv := httptest.NewServer(e.Handler())
		f.engines = append(f.engines, e)
		f.replicas = append(f.replicas, srv)
		urls = append(urls, srv.URL)
	}
	// Backend is named, as cmd/router's -backend names it in a deployment:
	// left empty the router adopts it from its first probe, two seconds in,
	// and every verdict stored before that is keyed under the old name.
	rt, err := tier.New(tier.Config{Replicas: urls, Backend: core.BackendFloat64})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	f.front = httptest.NewServer(rt.Handler())
	return f, nil
}

func (f *fleet) close() {
	if f.front != nil {
		f.front.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.replicas {
		s.Close()
	}
	for _, e := range f.engines {
		e.Close()
	}
	f.client.CloseIdleConnections()
}

// post sends one JSON body and reads the whole reply into buf. A non-empty
// traceID asks the program to trace the request and return its spans.
func (f *fleet) post(url string, body []byte, traceID string, buf *bytes.Buffer) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(obs.TraceHeader, traceID)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", url, resp.StatusCode, buf.String())
	}
	return nil
}

// suggestReply is the part of a /suggest response the harness reads.
type suggestReply struct {
	Results []json.RawMessage `json:"results"`
	Trace   *obs.Wire         `json:"trace"`
}

// verdict is the part of one result that the checks compare.
type verdict struct {
	Parallelize bool   `json:"parallelize"`
	Directive   string `json:"directive"`
	Tier        string `json:"tier"`
	Error       string `json:"error"`
}

func verdictOf(s *advisor.Suggestion) verdict {
	v := verdict{Parallelize: s.Parallelize, Tier: s.Tier().String()}
	if s.Directive != nil {
		v.Directive = s.Directive.String()
	}
	return v
}

func codeBody(code string) []byte {
	b, _ := json.Marshal(map[string]string{"code": code}) // a string map cannot fail to marshal
	return b
}

// scrape reads a /metrics page into series → value, and times the read.
func (f *fleet) scrape(base string) (map[string]float64, time.Duration, error) {
	t0 := time.Now()
	resp, err := f.client.Get(base + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, 0, err
	}
	d := time.Since(t0)
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out, d, nil
}

// fleetCounters is what the router and the replicas counted.
type fleetCounters struct {
	requests, storeHits, storeMisses, forwards, forwardErrs, tierSheds float64
	engine                                                             serve.PathStats
	queueWaitS, computeS                                               float64
	queueWaitN, computeN                                               float64
}

func (f *fleet) counters() (fleetCounters, time.Duration, error) {
	m, d, err := f.scrape(f.front.URL)
	if err != nil {
		return fleetCounters{}, 0, err
	}
	c := fleetCounters{
		requests:    m[`pf_request_duration_seconds_count{path="/suggest"}`],
		storeHits:   m["pf_store_hits_total"],
		storeMisses: m["pf_store_misses_total"],
		forwards:    m["pf_forwards_total"],
		forwardErrs: m["pf_forward_errors_total"],
		tierSheds:   m["pf_sheds_total"],
	}
	for _, e := range f.engines {
		s := e.Stats().Suggest
		c.engine.Requests += s.Requests
		c.engine.CacheHits += s.CacheHits
		c.engine.Batches += s.Batches
		c.engine.Items += s.Items
		c.engine.Sheds += s.Sheds
		l := obs.Labels{"path": "suggest"}
		qw := e.Metrics().Histogram("pf_batch_queue_wait_seconds", "", l, nil)
		bc := e.Metrics().Histogram("pf_batch_compute_seconds", "", l, nil)
		c.queueWaitS, c.queueWaitN = c.queueWaitS+qw.Sum(), c.queueWaitN+float64(qw.Count())
		c.computeS, c.computeN = c.computeS+bc.Sum(), c.computeN+float64(bc.Count())
	}
	return c, d, nil
}

// layerMetrics turns the counter movement between two reads into the
// serve.* and tier.* counter metrics.
func (a fleetCounters) layerMetrics(b fleetCounters) map[string]float64 {
	ratio := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	moved := func(a, b uint64) float64 { return float64(b - a) }
	ea, eb := a.engine, b.engine
	return map[string]float64{
		"serve.queue_wait_us":       1e6 * ratio(b.queueWaitS-a.queueWaitS, b.queueWaitN-a.queueWaitN),
		"serve.batch_compute_us":    1e6 * ratio(b.computeS-a.computeS, b.computeN-a.computeN),
		"serve.avg_batch":           ratio(moved(ea.Items, eb.Items), moved(ea.Batches, eb.Batches)),
		"serve.cache_hit_ratio":     ratio(moved(ea.CacheHits, eb.CacheHits), moved(ea.Requests, eb.Requests)),
		"serve.sheds":               moved(ea.Sheds, eb.Sheds),
		"tier.store_hit_ratio":      ratio(b.storeHits-a.storeHits, b.storeHits-a.storeHits+b.storeMisses-a.storeMisses),
		"tier.forwards_per_request": ratio(b.forwards-a.forwards, b.requests-a.requests),
		"tier.sheds":                b.tierSheds - a.tierSheds,
		"tier.forward_errors":       b.forwardErrs - a.forwardErrs,
	}
}
