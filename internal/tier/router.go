// Package tier is the sharded serving tier over cmd/serve replicas: a
// consistent-hash router with bounded-load spill, per-replica and
// per-client admission control, a shared read-through verdict store, and
// health-gated rolling reloads.
//
// The routing key is the same sha-256 canonical-print hash the scan cache
// uses (scan.HashSnippet), so every request for one loop — /predict,
// /suggest, or a loop inside /scan — lands on the replica whose LRU and
// batcher already saw it. Replica health is overlaid at lookup time: the
// ring itself is immutable, and draining/ejected replicas are skipped by
// walking the key's deterministic spill sequence.
package tier

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"pragformer/internal/api"
	"pragformer/internal/cast"
	"pragformer/internal/cparse"
	"pragformer/internal/lru"
	"pragformer/internal/obs"
	"pragformer/internal/s2s"
	"pragformer/internal/scan"
)

// Config parameterizes the router.
type Config struct {
	// Replicas lists the cmd/serve base URLs ("http://host:port").
	Replicas []string
	// MaxInFlight is the hard per-replica in-flight cap; with every
	// routable replica at the cap the router sheds (429). 0 = 64.
	MaxInFlight int
	// FailThreshold ejects a replica after this many consecutive forward
	// or probe failures (0 = 3).
	FailThreshold int
	// ProbeInterval paces the background health prober (0 = 2s).
	ProbeInterval time.Duration
	// DrainTimeout bounds each replica's drain during a rolling reload
	// and the readiness wait after it (0 = 10s).
	DrainTimeout time.Duration
	// RatePerSec/Burst configure the per-client token buckets
	// (RatePerSec <= 0 disables client rate limiting).
	RatePerSec float64
	Burst      int
	// Backend names the backend whose verdicts the store holds; "" adopts
	// the first backend a probe reports (rolling the store: what was stored
	// before belonged to no named backend). The store is keyed by a
	// snippet's hash alone, and a new bundle arrives by POST /reload, which
	// rolls it. ModelID is a label that /healthz echoes beside Backend: it
	// keys nothing.
	Backend string
	ModelID string
	// Client is the HTTP client for forwards and probes (nil = a client
	// with a 30s timeout over a router-owned transport: no gzip, and up to
	// MaxInFlight idle connections kept per replica). A forward goes
	// straight through its Transport, bounded by its Timeout.
	Client *http.Client
	// Logger, when set, makes the router trace every request, not just those
	// carrying the X-PF-Trace header, and receives one structured line per
	// request. Traces propagate to replicas over fan-out forwards and
	// replica spans are merged into the response.
	Logger *slog.Logger
}

// fillDefaults fills the zero fields. For a nil Client it returns the
// transport it built the client on, which the router owns.
func (c *Config) fillDefaults() *http.Transport {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Client != nil {
		return nil
	}
	// A replica never answers with gzip, so asking for it is a header map
	// per forward for nothing. A forward beyond the idle pool dials a
	// connection and closes it after its reply.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.DisableCompression = true
	tr.MaxIdleConnsPerHost = c.MaxInFlight
	c.Client = &http.Client{Timeout: 30 * time.Second, Transport: tr}
	return tr
}

// errNoReplica reports that no routable replica could accept a request —
// the router-level saturation signal, rendered as 429/503.
var errNoReplica = errors.New("tier: no routable replica")

const shedMessage = "no replica can accept the request, retry later"

// Router fans requests across the replica fleet.
type Router struct {
	cfg   Config
	ring  *ring
	reps  map[string]*replica
	order []string // config order, for display and rolling reload
	// store is the tier-wide verdict store, keyed by the bare content hash;
	// its generation stands for the fleet's model bundle (a rolling reload
	// rolls it). Requests go through pinStore.
	store   *lru.Cache[*verdict]
	limiter *limiter
	client  *http.Client
	// transport is client's Transport: what every forward goes through.
	transport http.RoundTripper
	// owned is the transport fillDefaults built, whose idle connections
	// Close closes; nil for a caller's client.
	owned *http.Transport
	reg   *obs.Registry

	backend atomic.Pointer[string] // adopted verdict-namespace backend

	// Registry counters (registerMetrics), which /statz and /metrics
	// render. deadlineExp counts forwards abandoned because the
	// client budget expired between admission and the forward itself (the
	// middleware already sheds budgets that arrive expired).
	deadlineExp *obs.Counter
	forwards    *obs.Counter
	forwardErrs *obs.Counter
	sheds       *obs.Counter
	rateLimited *obs.Counter
	storeHits   *obs.Counter
	storeMisses *obs.Counter
	ejects      *obs.Counter
	readmits    *obs.Counter
	reloads     *obs.Counter

	reloadMu sync.Mutex // one rolling reload at a time

	done chan struct{}
	wg   sync.WaitGroup
}

// New builds a router over the configured replicas and starts its health
// prober. Close releases the prober.
func New(cfg Config) (*Router, error) {
	owned := cfg.fillDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("tier: no replicas configured")
	}
	rt := &Router{
		cfg:       cfg,
		ring:      newRing(cfg.Replicas),
		reps:      make(map[string]*replica, len(cfg.Replicas)),
		order:     append([]string(nil), cfg.Replicas...),
		store:     lru.New[*verdict](storeCap),
		limiter:   newLimiter(cfg.RatePerSec, cfg.Burst),
		client:    cfg.Client,
		transport: cfg.Client.Transport,
		owned:     owned,
		reg:       obs.NewRegistry(),
		done:      make(chan struct{}),
	}
	if rt.transport == nil {
		rt.transport = http.DefaultTransport
	}
	b := cfg.Backend
	rt.backend.Store(&b)
	for _, name := range cfg.Replicas {
		if _, dup := rt.reps[name]; dup {
			return nil, fmt.Errorf("tier: duplicate replica %q", name)
		}
		rep, err := newReplica(name)
		if err != nil {
			return nil, err
		}
		rt.reps[name] = rep
	}
	rt.registerMetrics()
	rt.wg.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// registerMetrics creates the router counters in the registry and wires
// the store and per-replica gauges into it.
func (rt *Router) registerMetrics() {
	reg := rt.reg
	rt.deadlineExp = reg.Counter("pf_deadline_exceeded_total",
		"Requests shed because the client deadline had already expired.",
		obs.Labels{"path": "forward"})
	rt.forwards = reg.Counter("pf_forwards_total", "Forwards attempted to replicas.", nil)
	rt.forwardErrs = reg.Counter("pf_forward_errors_total", "Forwards that failed at transport or replica level.", nil)
	rt.sheds = reg.Counter("pf_sheds_total", "Request items shed with no routable replica.", nil)
	rt.rateLimited = reg.Counter("pf_rate_limited_total", "Requests refused by the per-client token buckets.", nil)
	rt.storeHits = reg.Counter("pf_store_hits_total", "Verdict-store read-through hits.", nil)
	rt.storeMisses = reg.Counter("pf_store_misses_total", "Verdict-store read-through misses.", nil)
	rt.ejects = reg.Counter("pf_ejects_total", "Replicas ejected after consecutive failures.", nil)
	rt.readmits = reg.Counter("pf_readmits_total", "Ejected replicas readmitted after a healthy re-probe.", nil)
	rt.reloads = reg.Counter("pf_reloads_total", "Completed rolling reloads.", nil)
	reg.GaugeFunc("pf_store_len", "Verdicts currently in the shared store.", nil,
		func() float64 { return float64(rt.store.Len()) })
	reg.GaugeFunc("pf_store_generation", "Verdict-store generation (rolled by reloads).", nil,
		func() float64 { return float64(rt.store.Gen()) })
	for _, name := range rt.order {
		rep := rt.reps[name]
		l := obs.Labels{"replica": name}
		rep.statzErrs = reg.Counter("pf_statz_errors_total",
			"Failed replica /readyz probes: no answer, a status other than 200 or 503, or an undecodable body.", l)
		reg.GaugeFunc("pf_replica_in_flight", "Router-side in-flight forwards per replica.", l,
			func() float64 { return float64(rep.inflight.Load()) })
		reg.GaugeFunc("pf_replica_state", "Replica health state: 0 healthy, 1 draining, 2 ejected.", l,
			func() float64 { return float64(rep.getState()) })
		reg.GaugeFunc("pf_replica_generation", "Model generation the replica's last successful probe reported.", l,
			func() float64 { return float64(rep.generation.Load()) })
	}
}

// Close stops the background prober and closes the idle connections of a
// router-owned transport.
func (rt *Router) Close() {
	close(rt.done)
	rt.wg.Wait()
	if rt.owned != nil {
		rt.owned.CloseIdleConnections()
	}
}

// Handler returns the router's HTTP API — the same surface as one
// cmd/serve replica, fleet-wide. The request-serving POST routes run
// under the obs middleware (duration histograms, X-PF-Trace propagation,
// X-PF-Deadline-Ms enforcement), then the token-bucket gate.
func (rt *Router) Handler() http.Handler {
	mw := obs.NewMiddleware(rt.reg, rt.cfg.Logger)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", mw.Wrap("/predict", rt.admitted(rt.handlePredict)))
	mux.HandleFunc("POST /suggest", mw.Wrap("/suggest", rt.admitted(rt.handleSuggest)))
	mux.HandleFunc("POST /scan", mw.Wrap("/scan", rt.admitted(rt.handleScan)))
	mux.HandleFunc("POST /reload", rt.handleReload)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.Handle("GET /statz", rt.reg.JSONHandler())
	mux.Handle("GET /metrics", rt.reg.Handler())
	return mux
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "replicas": len(rt.order),
		"backend": rt.backendLabel(), "model_id": rt.cfg.ModelID})
}

func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	healthy := 0
	for _, rep := range rt.reps {
		if rep.routable() {
			healthy++
		}
	}
	status := http.StatusOK
	if healthy == 0 {
		status = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, status, map[string]any{"ready": healthy > 0, "healthy": healthy, "replicas": len(rt.order)})
}

// admitted wraps a handler with the per-client token-bucket gate.
func (rt *Router) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		end := obs.TraceFrom(r.Context()).Start("admit")
		ok := rt.limiter.allow(clientKey(r), time.Now())
		end()
		if !ok {
			rt.rateLimited.Inc()
			api.Shed(w, "client rate limit exceeded")
			return
		}
		h(w, r)
	}
}

// loadFactor bounds how far above the mean a replica's router-side
// in-flight count may sit before a key spills to the next replica in its
// walk order: the classic bounded-load setting.
const loadFactor = 1.25

// pick selects the replica for a key: the first routable replica in the
// key's walk order whose in-flight count sits under the bounded-load
// threshold ceil(loadFactor·(total+1)/healthy). At least one routable
// replica is always under that threshold, so pick only returns nil when
// every routable replica is at the MaxInFlight hard cap — true saturation
// — or when nothing is routable at all.
func (rt *Router) pick(key string) *replica {
	// Fleets of up to 8 replicas keep the walk on the stack.
	var names [8]string
	var reps [8]*replica
	walk := rt.ring.walk(names[:0], key)
	routable := reps[:0]
	var total int64
	for _, name := range walk {
		r := rt.reps[name]
		if r.routable() {
			routable = append(routable, r)
			total += r.inflight.Load()
		}
	}
	if len(routable) == 0 {
		return nil
	}
	threshold := int64(math.Ceil(loadFactor * float64(total+1) / float64(len(routable))))
	var best *replica
	for _, r := range routable {
		load := r.inflight.Load()
		if load >= int64(rt.cfg.MaxInFlight) {
			continue
		}
		if load < threshold {
			return r
		}
		if best == nil || load < best.inflight.Load() {
			best = r
		}
	}
	return best
}

// forwardHeader is the header of every untraced forward without a
// deadline, one map shared by all of them: a RoundTripper does not modify
// the request.
var forwardHeader = http.Header{"Content-Type": {"application/json"}}

// forwardReqs lends fanOut the request of each share, whose slices are
// reused from share to share. One grown past maxPooledItems items (a large
// batch) goes to the collector instead, so the pool never pins one.
var forwardReqs = sync.Pool{New: func() any { return new(api.PredictRequest) }}

const maxPooledItems = 1 << 12

// releaseRequest drops req's strings and ids, so the pool pins no request
// text, and returns it to the pool.
func releaseRequest(req *api.PredictRequest) {
	clear(req.Codes)
	clear(req.IDs)
	req.Codes, req.IDs = req.Codes[:0], req.IDs[:0]
	if cap(req.Codes)+cap(req.IDs) <= maxPooledItems {
		forwardReqs.Put(req)
	}
}

// forward POSTs body to rep and decodes the reply into out, carrying the
// bounded-load in-flight accounting and the ejection failure counting.
// A replica-side 429 propagates as serve.ErrSaturated-alike shedding but
// does NOT count toward ejection — a saturated replica is healthy. The
// request is a copy of rep's template for path and goes straight to the
// client's Transport, under the client's Timeout.
func (rt *Router) forward(ctx context.Context, rep *replica, path string, body *api.PredictRequest, out any) error {
	// A budget that expired while the request sat in admission or an
	// earlier group's shadow is shed here, before marshal and transport.
	if err := ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			rt.deadlineExp.Inc()
		}
		return err
	}
	tr := obs.TraceFrom(ctx)
	defer tr.Start("forward")()
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	rt.forwards.Inc()
	sendCtx := ctx
	if rt.client.Timeout > 0 {
		var cancel context.CancelFunc
		sendCtx, cancel = context.WithTimeout(ctx, rt.client.Timeout)
		defer cancel()
	}
	req := rep.forwards[path].WithContext(sendCtx)
	if _, hasDeadline := ctx.Deadline(); tr != nil || hasDeadline {
		req.Header = forwardHeader.Clone()
		if tr != nil {
			req.Header.Set(obs.TraceHeader, tr.ID)
		}
		obs.SetDeadlineHeader(ctx, req.Header)
	}
	// The body is a reader net/http knows to be in memory: it writes the
	// headers and body of such a request at once, and flushes the headers
	// on their own before any other body.
	req.ContentLength = int64(len(buf))
	req.Body = io.NopCloser(bytes.NewReader(buf))
	resp, err := rt.transport.RoundTrip(req)
	if err != nil {
		// Transport failure: connection refused, timeout — the ejection
		// signal. Context cancellation is the client's doing, not the
		// replica's.
		if ctx.Err() == nil {
			rt.noteFailure(rep)
		}
		rt.forwardErrs.Inc()
		return &url.Error{Op: "Post", URL: req.URL.Redacted(), Err: err}
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		rep.fails.Store(0)
		return errNoReplica
	case resp.StatusCode >= 500:
		rt.noteFailure(rep)
		rt.forwardErrs.Inc()
		return fmt.Errorf("tier: %s%s: %s", rep.name, path, readErr(resp.Body))
	case resp.StatusCode != http.StatusOK:
		rep.fails.Store(0)
		return fmt.Errorf("tier: %s%s: %s", rep.name, path, readErr(resp.Body))
	}
	rep.fails.Store(0)
	return api.ReadJSON(io.LimitReader(resp.Body, 64<<20), out)
}

// readErr extracts the {"error": ...} body of a failed forward.
func readErr(r io.Reader) string {
	var e struct {
		Error string `json:"error"`
	}
	if api.ReadJSON(io.LimitReader(r, 1<<16), &e) == nil && e.Error != "" {
		return e.Error
	}
	return "replica error"
}

// backendLabel is the namespace backend currently in force.
func (rt *Router) backendLabel() string { return *rt.backend.Load() }

// canonical parses one snippet and returns its canonically printed target
// loop plus the scan-compatible content hash; ok is false when the snippet
// has no parseable loop (such requests still route, by raw-text hash). The
// parse is dead once printed: its slabs go back to the parser pool.
func canonical(code string) (snippet, hash string, ok bool) {
	t := cparse.ParseTree(code)
	defer t.Release()
	if len(t.Errs) > 0 {
		return "", "", false
	}
	loop := s2s.FirstLoop(t.File)
	if loop == nil {
		return "", "", false
	}
	snip := cast.Print(loop)
	return snip, scan.HashSnippet(snip), true
}

// routeKey is the ring key for one code snippet: the canonical loop hash
// when the snippet parses (cache affinity with /scan and the verdict
// store), else the hash of the raw text.
func routeKey(code string) string {
	if _, h, ok := canonical(code); ok {
		return h
	}
	return scan.HashSnippet(code)
}

// idsKey is the ring key for a raw id sequence.
func idsKey(ids []int) string {
	var buf bytes.Buffer
	tmp := make([]byte, binary.MaxVarintLen64)
	for _, id := range ids {
		buf.Write(tmp[:binary.PutVarint(tmp, int64(id))])
	}
	return scan.HashSnippet(buf.String())
}

// group is one replica's slice of a fanned-out request.
type group struct {
	rep     *replica
	indices []int
}

// groupByKey routes item i of n by key(i) and buckets the indices per
// replica, preserving request order inside each bucket. An item whose key
// comes back with routed false needs no replica (it is already answered);
// unroutable indices land in the nil-replica bucket. There are at most as
// many buckets as replicas, so a bucket is found by a scan. The buckets come
// in the call's fan-out state, nil when no item needs a replica; a one-item
// request's bucket and index are held in the state itself.
func groupByKey[R any](rt *Router, n int, key func(i int) (k string, routed bool)) *fanState[R] {
	if n == 1 {
		k, routed := key(0)
		if !routed {
			return nil
		}
		s := new(fanState[R])
		s.one[0] = group{rep: rt.pick(k), indices: s.index[:]} // index[0] is item 0
		s.groups = s.one[:]
		return s
	}
	var groups []group
	for i := 0; i < n; i++ {
		k, routed := key(i)
		if !routed {
			continue
		}
		rep := rt.pick(k)
		j := 0
		for j < len(groups) && groups[j].rep != rep {
			j++
		}
		if j == len(groups) {
			groups = append(groups, group{rep: rep})
		}
		groups[j].indices = append(groups[j].indices, i)
	}
	if len(groups) == 0 {
		return nil
	}
	return &fanState[R]{groups: groups}
}

// fanOut is the router's one replica round, behind /predict, /suggest and
// every /scan chunk. The items are codes then ids, in reply order: item i
// is routed by key(i) unless that says it needs no replica, each replica's
// share is forwarded to path concurrently, and its reply (or the share-wide
// error) is settled into results in request order. A replica's trace is
// merged into the request's. The last share is forwarded on the caller's
// goroutine. Returns how many items were shed for want of a replica.
func fanOut[R any](ctx context.Context, rt *Router, path string, codes []string, ids [][]int, results []R,
	key func(i int) (k string, routed bool), setErr func(*R, string)) int {
	tr := obs.TraceFrom(ctx)
	endRoute := tr.Start("route")
	s := groupByKey[R](rt, len(results), key)
	endRoute()
	if s == nil {
		return 0
	}
	s.rt, s.ctx, s.tr, s.path, s.codes, s.ids, s.results, s.setErr = rt, ctx, tr, path, codes, ids, results, setErr
	last := len(s.groups) - 1
	for k := range s.groups[:last] {
		s.wg.Add(1)
		go func(g *group) {
			defer s.wg.Done()
			s.share(g)
		}(&s.groups[k])
	}
	s.share(&s.groups[last])
	s.wg.Wait()
	return int(s.shed.Load())
}

// fanState is what one fanOut call's shares have in common, one allocation
// for the call.
type fanState[R any] struct {
	rt      *Router
	ctx     context.Context
	tr      *obs.Trace
	path    string
	codes   []string
	ids     [][]int
	results []R
	setErr  func(*R, string)
	wg      sync.WaitGroup
	shed    atomic.Int64

	groups []group
	one    [1]group // a one-item request's groups
	index  [1]int   // and its indices
}

// share forwards one replica's share of the items and settles its reply.
func (s *fanState[R]) share(g *group) {
	var resp api.Response[R]
	err := errNoReplica
	if g.rep != nil {
		// A /suggest share is the same body without ids.
		body := forwardReqs.Get().(*api.PredictRequest)
		for _, i := range g.indices {
			if i < len(s.codes) {
				body.Codes = append(body.Codes, s.codes[i])
			} else {
				body.IDs = append(body.IDs, s.ids[i-len(s.codes)])
			}
		}
		err = s.rt.forward(s.ctx, g.rep, s.path, body, &resp)
		releaseRequest(body)
	}
	settleGroup(g, s.results, resp.Results, err, s.setErr, &s.shed, s.rt.sheds)
	if err == nil {
		s.tr.Merge(resp.Trace)
	}
}

// settleGroup copies one replica's results back into request order, or
// spreads the group-wide error over its items (a replica-side shed counts
// toward the whole-request 429 decision).
func settleGroup[R any](g *group, out, in []R, err error, setErr func(*R, string), shed *atomic.Int64, sheds *obs.Counter) {
	if err != nil {
		for _, i := range g.indices {
			setErr(&out[i], err.Error())
			if errors.Is(err, errNoReplica) {
				shed.Add(1)
				sheds.Inc()
			}
		}
		return
	}
	for k, i := range g.indices {
		if k < len(in) {
			out[i] = in[k]
		} else {
			setErr(&out[i], "tier: short replica response")
		}
	}
}

func setPredictErr(r *api.PredictResult, msg string) { r.Error = msg }
func setSuggestErr(r *api.SuggestResult, msg string) { r.Error = msg }

// setRelayErr renders an error item as a replica would.
func setRelayErr(r *json.RawMessage, msg string) {
	*r, _ = json.Marshal(api.SuggestResult{Error: msg})
}

func (rt *Router) handlePredict(w http.ResponseWriter, r *http.Request) {
	api.ServePredict(w, r, shedMessage, rt.answerPredict)
}

func (rt *Router) handleSuggest(w http.ResponseWriter, r *http.Request) {
	api.ServeSuggest(w, r, shedMessage, rt.answerSuggest)
}

func (rt *Router) answerPredict(ctx context.Context, codes []string, ids [][]int) ([]api.PredictResult, int) {
	results := make([]api.PredictResult, len(codes)+len(ids))
	shed := fanOut(ctx, rt, "/predict", codes, ids, results, func(i int) (string, bool) {
		if i < len(codes) {
			return routeKey(codes[i]), true
		}
		return idsKey(ids[i-len(codes)]), true
	}, setPredictErr)
	return results, shed
}

// answerSuggest is the store read-through around the fan-out: a stored
// verdict for a snippet's canonical loop answers without a forward — the
// scan dedupe contract, fleet-wide — and what the replicas answer for the
// rest is stored on the way back. Every stored key is the hash of a
// canonical print and its verdict was computed for exactly that text, so
// the request text's own digest is probed first, from the stack, and a hit
// there answers without a parse or a string of the hash; only a miss pays
// for canonical, and probes again when the canonical print is a different
// text. Either way the item counts as one store hit or one miss.
//
// A result is relayed as the replica rendered it: the router neither
// decodes nor re-renders a verdict on this path, and stores the bytes it
// relayed.
func (rt *Router) answerSuggest(ctx context.Context, codes []string) ([]json.RawMessage, int) {
	tr := obs.TraceFrom(ctx)
	results := make([]json.RawMessage, len(codes))
	// puts[i] is the key item i's answer is stored under, set only for an
	// item whose request text is its canonical print: a formatting variant
	// can never poison the canonical loop's verdict slot. A request every
	// item of which hits allocates none.
	var puts []string
	store := rt.pinStore() // before anything is routed
	get := func(h string) (*verdict, bool) {
		defer tr.Start("store.get")()
		return store.probe(h)
	}
	getDigest := func(digits []byte) (*verdict, bool) {
		defer tr.Start("store.get")()
		return store.probeDigest(digits)
	}
	shed := fanOut(ctx, rt, "/suggest", codes, nil, results, func(i int) (string, bool) {
		d := scan.Digest(codes[i])
		v, hit := getDigest(d[:])
		h, canon := "", false
		if !hit {
			switch snip, ch, ok := canonical(codes[i]); {
			case !ok: // an unparseable snippet still routes, by its raw-text hash
				h = string(d[:])
			case snip == codes[i]:
				h, canon = ch, true
			default:
				h = ch
				v, hit = get(h)
			}
		}
		store.count(hit)
		if hit {
			results[i] = v.wireBytes()
			return "", false
		}
		if canon {
			if puts == nil {
				puts = make([]string, len(codes))
			}
			puts[i] = h
		}
		return h, true
	}, setRelayErr)
	if puts != nil {
		// An error item — a failed forward's, or the replica's — is never
		// stored. The store shares the relayed bytes with the answer; neither
		// writes to them.
		defer tr.Start("store.put")()
		for i, h := range puts {
			if h != "" && !isErrorItem(results[i]) {
				store.putWire(h, results[i])
			}
		}
	}
	return results, shed
}
