package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"pragformer/internal/dep"
	"pragformer/internal/scan"
)

// readSuggestSeeds are bodies of every shape a /suggest request takes, and
// of the shapes the strict reader must hand to json.Unmarshal.
var readSuggestSeeds = []string{
	// TestDecodeBody's and TestDecodeBodyErrors' bodies.
	``, `{"code": "a`, `{"code":"a"}{"code":"b"}`, "{\"code\":\"a\"}\n", `{"code": `, `{"code": 3}`, `{"code": "x"}`,
	// Escapes: what json.Marshal writes for '<', U+2028 and a newline,
	// every short escape, a surrogate pair and a lone surrogate.
	`{"code":"for (i = 0; i < n; i++)\n  a[i] = 0;"}`, `{"code":"\u003c\u2028 \u0026\u003e"}`,
	`{"codes":["a\nb\t\"\\\/\b\f\r", "", "\u00e9日本"]}`, `{"code":"\ud83d\ude00"}`, `{"code":"\ud83d"}`,
	`{"code":"é\u0000\ufffd\uffff"}`,
	// Keys json.Unmarshal matches without byte equality, duplicates, nulls,
	// unknown keys, an escaped key and items that are not strings.
	`{"Code":"x"}`, `{"CODE":"x","codes":["y"]}`, `{"code":"x"}`, `{"code":"a","code":"b"}`,
	`{"codes":["a","b"],"codes":["c"]}`, `{"code":null}`, `{"codes":null}`, `{"codes":[null]}`, `{"codes":["a",1]}`,
	`{"x":1}`, `{}`, `null`, `[]`, `"code"`, ` { "codes" : [ "a" , "b" ] , "code" : "c" } `,
	`{"codes":[]}`, `{"codes":["a"],"trace":{"id":"cafe","spans":[]}}`,
	// Invalid UTF-8, raw and in a key.
	"{\"code\":\"\xff\"}", "{\"codes\":[\"a\xc3\"]}", "{\"\xff\":1}",
	// Reply-shaped bodies, which a request decode ignores or refuses.
	`{"results":[{"parallelize":true,"directive":"#pragma omp parallel for"},{"parallelize":false,"error":"x"}]}`,
	`{"results":[]}`, `{"results":null}`, `{"results":[1],"results":[2,3]}`, `{"results":[1,]}`,
}

// FuzzReadSuggest: for any body, ReadJSON into a fresh SuggestRequest — by
// the strict reader or its hand-off — gives json.Unmarshal's values and
// json.Unmarshal's error text.
func FuzzReadSuggest(f *testing.F) {
	for _, s := range readSuggestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want SuggestRequest
		gotErr, wantErr := ReadJSON(bytes.NewReader(body), &got), json.Unmarshal(body, &want)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: error %v, json.Unmarshal's %v", body, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded %#v, json.Unmarshal %#v", body, got, want)
		}
	})
}

// TestReadStrictShapes: the strict reader takes the requests the /suggest
// hop carries, escapes and all, and declines, leaving the target fresh,
// what json.Unmarshal must decide.
func TestReadStrictShapes(t *testing.T) {
	for _, tc := range []struct {
		body   string
		strict bool
	}{
		{`{"code":"for (i = 0; i < n; i++)\n  a[i] = 0;"}`, true},
		{`{"codes":["a\nb\t\"\\\/\b\f\r","é日本 "]}` + "\n", true},
		{`{"codes":[]}`, true},
		{`{}`, true},
		{`{"code":"a","code":"b"}`, true},
		{`{"Code":"x"}`, false},
		{`{"code":null}`, false},
		{`{"code":"a","codes":["b",1]}`, false},
		{`{"code":"\ud83d\ude00"}`, false},
		{"{\"code\":\"\xff\"}", false},
		{`{"code":"a"}{"code":"b"}`, false},
		{`{"code":"a","trace":{"id":"cafe"}}`, false},
		{`{"results":[]}`, false},
	} {
		var req SuggestRequest
		if got := readStrict([]byte(tc.body), &req); got != tc.strict {
			t.Errorf("%q: strict %v, want %v", tc.body, got, tc.strict)
		}
		if !tc.strict && !reflect.DeepEqual(req, SuggestRequest{}) {
			t.Errorf("%q: declined but left %#v", tc.body, req)
		}
	}
	// A nil target is json.Unmarshal's to refuse, and every other type's
	// body json.Unmarshal's to decode.
	if readStrict([]byte(`{}`), (*SuggestRequest)(nil)) {
		t.Error("decoded strictly into a nil pointer")
	}
	if readStrict([]byte(`{"results":[]}`), new(Response[json.RawMessage])) {
		t.Error("decoded a reply strictly")
	}
	// A request that is not fresh is json.Unmarshal's to merge into.
	used := SuggestRequest{Code: "x"}
	if readStrict([]byte(`{"codes":["a"]}`), &used) {
		t.Error("decoded strictly into a request that already held a code")
	}
}

// TestReadStrictAllocs: a request costs its strings, and a list of them its
// list besides.
func TestReadStrictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, tc := range []struct {
		body string
		want float64
	}{
		{`{"code":"for (i = 0; i < n; i++)\n  a[i] = b[i] & c;"}`, 1},
		{`{"codes":["for (i = 0; i < n; i++)\n  a[i] = 0;","s += a[i];"]}`, 3},
	} {
		var req SuggestRequest
		body := []byte(tc.body)
		got := testing.AllocsPerRun(100, func() {
			req = SuggestRequest{}
			if !readStrict(body, &req) {
				t.Fatalf("%s: declined", body)
			}
		})
		if got != tc.want {
			t.Errorf("%s: %.0f allocations, want %.0f", body, got, tc.want)
		}
	}
}

// TestWriteResultsMatchesWriteJSON: the relayed reply is byte for byte what
// WriteJSON renders for the same items, for items json.Marshal rendered
// from verdicts with '<', '&', U+2028 and non-ASCII text, error items, a
// missing item, and no items.
func TestWriteResultsMatchesWriteJSON(t *testing.T) {
	render := func(r SuggestResult) json.RawMessage {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	verdict := render(SuggestResult{Suggestion: scan.Suggestion{
		Parallelize: true, Probability: 0.5,
		Directive: "#pragma omp parallel for reduction(&&: ok)",
		Witness:   []string{"a[i] < a[i+1] \u2028 é 日本 &"},
		Races:     []dep.Witness{{Array: "a", Kind: "flow", Vector: []string{"<", ">"}}},
	}})
	for _, items := range [][]json.RawMessage{
		{verdict},
		{verdict, render(SuggestResult{Error: "lex: unexpected character '<' in \"a & b\""}), verdict},
		{render(SuggestResult{Error: "tier: no routable replica"}), nil},
		{},
	} {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		writeResults(got, items)
		WriteJSON(want, http.StatusOK, Response[json.RawMessage]{Results: items})
		if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) || got.Body.String() != want.Body.String() {
			t.Errorf("writeResults: %d %v %s\nWriteJSON:    %d %v %s",
				got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
		}
	}
}
