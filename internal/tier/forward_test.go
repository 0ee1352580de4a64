package tier

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pragformer/internal/api"
)

// roundTripFunc is a test transport.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestForwardBodyBytes: a forward's body is json.Marshal's rendering of the
// share's request, for codes holding '<', '&', U+2028 and newlines, with
// and without ids, and its ContentLength is its length. The shares follow
// one another through one pooled request, so none carries an item of the
// one before.
func TestForwardBodyBytes(t *testing.T) {
	codes := []string{
		"for (i = 0; i < n; i++)\n\ta[i] = b[i] & c[i];\n",
		"for (i = 0; i < n; i++) s += a[i] > 0 ? a[i] : 0; /* \u2028 é 日本 \"q\" \\ */",
		"",
	}
	ids := [][]int{{3, 1, 4}, {1}}
	var mu sync.Mutex
	var seen [][]byte
	client := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil || int64(len(body)) != r.ContentLength {
			t.Errorf("%s: read %d bytes (%v), ContentLength %d", r.URL.Path, len(body), err, r.ContentLength)
		}
		var req api.PredictRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Errorf("%s: %q: %v", r.URL.Path, body, err)
		}
		mu.Lock()
		seen = append(seen, body)
		mu.Unlock()
		items := strings.Repeat(`{"parallelize":true},`, len(req.Codes)+len(req.IDs))
		reply := `{"results":[` + strings.TrimSuffix(items, ",") + `]}`
		return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(strings.NewReader(reply))}, nil
	})}
	rt, err := New(Config{Replicas: []string{"http://replica.test"}, Client: client, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		call func()
		want api.PredictRequest
	}{
		{"/suggest", func() { rt.answerSuggest(ctx, codes) }, api.PredictRequest{Codes: codes}},
		{"/predict", func() { rt.answerPredict(ctx, codes, ids) }, api.PredictRequest{Codes: codes, IDs: ids}},
		{"/predict ids", func() { rt.answerPredict(ctx, nil, ids) }, api.PredictRequest{IDs: ids}},
	} {
		seen = nil
		tc.call()
		want, err := json.Marshal(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != 1 || !bytes.Equal(seen[0], want) {
			t.Errorf("%s: forwarded %q, want %q", tc.name, seen, want)
		}
	}
}

// TestReleaseRequest: a share's request goes back to the pool holding no
// request text — its strings and ids dropped, its arrays kept for the next
// share — and its body bytes were json.Marshal's own copy, so nothing a
// transport still reads is reused.
func TestReleaseRequest(t *testing.T) {
	req := forwardReqs.Get().(*api.PredictRequest)
	req.Codes = append(req.Codes, "a[i] = 0;", "b[i] = 1;")
	req.IDs = append(req.IDs, []int{1, 2})
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	sent := string(body)
	releaseRequest(req)
	if len(req.Codes) != 0 || len(req.IDs) != 0 || req.Codes[:2][0] != "" || req.Codes[:2][1] != "" || req.IDs[:1][0] != nil {
		t.Errorf("a released request holds codes %q and ids %v", req.Codes[:2], req.IDs[:1])
	}
	if string(body) != sent {
		t.Errorf("releasing the request changed the body sent: %q, was %q", body, sent)
	}
}

// TestRouterKeepsReplicaConnections: a router over its own transport keeps
// as many idle connections to a replica as forwards may be in flight, so a
// second round of concurrent forwards dials nothing (the default transport
// keeps two). No forward asks for gzip.
func TestRouterKeepsReplicaConnections(t *testing.T) {
	const width = 8
	var dials, arrived atomic.Int64
	var gate atomic.Pointer[chan struct{}]
	var gzipAsked atomic.Bool
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Accept-Encoding") != "" {
			gzipAsked.Store(true)
		}
		var req api.SuggestRequest
		if err := api.ReadJSON(r.Body, &req); err != nil {
			t.Error(err)
		}
		// A round's forwards are answered once all of them have arrived, so
		// the round holds width connections at once.
		g := *gate.Load()
		if arrived.Add(1)%width == 0 {
			close(g)
		}
		select {
		case <-g:
		case <-time.After(10 * time.Second):
			t.Error("a round's forwards did not arrive together")
		}
		api.WriteJSON(w, http.StatusOK, api.SuggestResponse{Results: make([]api.SuggestResult, len(req.Codes))})
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	rt, err := New(Config{Replicas: []string{srv.URL}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for round := range 2 {
		g := make(chan struct{})
		gate.Store(&g)
		before := dials.Load()
		var wg sync.WaitGroup
		for i := range width {
			wg.Add(1)
			go func() {
				defer wg.Done()
				code := fmt.Sprintf("for (i = 0; i < %d; i++) a[i] = 0;", round*width+i+2)
				if res, _ := rt.answerSuggest(context.Background(), []string{code}); isErrorItem(res[0]) {
					t.Errorf("round %d: %s", round, res[0])
				}
			}()
		}
		wg.Wait()
		opened := dials.Load() - before
		t.Logf("round %d of %d concurrent forwards opened %d connections", round, width, opened)
		if round == 1 && opened != 0 {
			t.Errorf("the second round of %d forwards opened %d connections, want 0", width, opened)
		}
	}
	if gzipAsked.Load() {
		t.Error("a forward asked the replica for gzip")
	}
}

// TestNewRejectsBadReplicaURL: a replica URL that does not parse fails New,
// naming the replica, rather than every forward to it.
func TestNewRejectsBadReplicaURL(t *testing.T) {
	const bad = "http://[::1"
	rt, err := New(Config{Replicas: []string{"http://127.0.0.1:1", bad}})
	if err == nil {
		rt.Close()
		t.Fatal("New accepted a replica URL that does not parse")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) {
		t.Errorf("error %q does not name the replica %q", err, bad)
	}
}
