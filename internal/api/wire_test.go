package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"unsafe"

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
	// Reply-shaped bodies, which a request decode ignores or refuses, and a
	// reply read takes or hands to json.Unmarshal: whitespace inside and
	// between items, nested arrays, strings holding ']', '}' and '\"',
	// numbers and literals, null items, duplicate keys, a trace, a key
	// json.Unmarshal matches by case, and truncated bodies.
	`{"results":[{"parallelize":true,"directive":"#pragma omp parallel for"},{"parallelize":false,"error":"x"}]}`,
	`{"results":[]}`, `{"results":null}`, `{"results":[1],"results":[2,3]}`, `{"results":[1,]}`,
	"{\"results\":[{\"parallelize\":true}]}\n", " {\n\t\"results\" :\r[ { \"a\" : [ 1 , [ ] ] } ,\n 2 ] } ",
	`{"results":[[[1,[2]],[]],{"w":["]","}","\"]}","\\"]}]}`, `{"results":["]}\"",-0.5e+3,true,false,{}]}`,
	`{"results":[null]}`, `{"results":[{"a":1},null]}`, `{"results":["abc"],"results":[1]}`,
	`{"results":[{"parallelize":true}],"trace":{"id":"cafe","spans":[]}}`, `{"trace":null,"results":[1]}`,
	`{"Results":[1]}`, `{"res\u0075lts":[1]}`, `{"results":{}}`, `{"results":[{"a":"\u003c\u2028"}]}`,
	`{"results":[{"parallelize":tr`, `{"results":[1,2`, `{"results":[1]`, `{"results":`,
}

// FuzzReadSuggest: for any body, ReadJSON into a fresh SuggestRequest, and
// into a fresh Response[json.RawMessage] — by the strict readers or their
// hand-off — gives json.Unmarshal's values and json.Unmarshal's error text.
// Every reply item owns its bytes: no item shares a backing array with
// another or with the body, and an item the strict reader copied is
// exactly as long as its array (json.Unmarshal's may have room to spare).
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

		var gotReply, wantReply Response[json.RawMessage]
		gotErr, wantErr = ReadJSON(bytes.NewReader(body), &gotReply), json.Unmarshal(body, &wantReply)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: reply error %v, json.Unmarshal's %v", body, gotErr, wantErr)
		}
		if !reflect.DeepEqual(gotReply, wantReply) {
			t.Fatalf("%q: reply decoded %#v, json.Unmarshal %#v", body, gotReply, wantReply)
		}
		strict := readStrict(body, new(Response[json.RawMessage]))
		spans := [][2]uintptr{span(body)}
		for k, item := range gotReply.Results {
			if strict && cap(item) != len(item) {
				t.Fatalf("%q: item %d has cap %d, len %d", body, k, cap(item), len(item))
			}
			s := span(item)
			for _, o := range spans {
				if s[0] < o[1] && o[0] < s[1] {
					t.Fatalf("%q: item %d shares its backing array", body, k)
				}
			}
			spans = append(spans, s)
		}
	})
}

// span is the address range of b's backing array from b's first byte to its
// capacity.
func span(b []byte) [2]uintptr {
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return [2]uintptr{p, p + uintptr(cap(b))}
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
	// A request that is not fresh is json.Unmarshal's to merge into.
	used := SuggestRequest{Code: "x"}
	if readStrict([]byte(`{"codes":["a"]}`), &used) {
		t.Error("decoded strictly into a request that already held a code")
	}

	// A reply of relayed items is read strictly, each item the value's
	// bytes as they stand. A null list or item, a key that is not byte-equal
	// to results (a trace, a duplicate, another case, an escape) and any
	// other shape are json.Unmarshal's.
	for _, tc := range []struct {
		body   string
		strict bool
		items  []string
	}{
		{`{"results":[]}`, true, []string{}},
		{`{"results":[{"parallelize":true},{"parallelize":false,"error":"x"}]}` + "\n", true,
			[]string{`{"parallelize":true}`, `{"parallelize":false,"error":"x"}`}},
		{" { \"results\" : [ {\"a\" : [1, \"]}\\\"\"]} ,\n 2.5e3 , \"x\" , true ] } ", true,
			[]string{`{"a" : [1, "]}\""]}`, `2.5e3`, `"x"`, `true`}},
		{`{"results":null}`, false, nil},
		{`{"results":[{"a":1},null]}`, false, nil},
		{`{"results":[1],"results":[2,3]}`, false, nil},
		{`{"results":[1],"trace":{"id":"cafe","spans":[]}}`, false, nil},
		{`{"Results":[1]}`, false, nil},
		{`{"res\u0075lts":[1]}`, false, nil},
		{`{"results":{}}`, false, nil},
		{`{}`, false, nil},
		{`{"results":[1]`, false, nil},
	} {
		var resp Response[json.RawMessage]
		if got := readStrict([]byte(tc.body), &resp); got != tc.strict {
			t.Errorf("reply %q: strict %v, want %v", tc.body, got, tc.strict)
		}
		var items []string
		if resp.Results != nil {
			items = []string{}
		}
		for _, item := range resp.Results {
			items = append(items, string(item))
		}
		if !reflect.DeepEqual(items, tc.items) || resp.Trace != nil {
			t.Errorf("reply %q: items %q and trace %v, want %q", tc.body, items, resp.Trace, tc.items)
		}
	}
	// A reply that is not fresh is json.Unmarshal's to merge into.
	if readStrict([]byte(`{"results":[1]}`), &Response[json.RawMessage]{Results: []json.RawMessage{}}) {
		t.Error("decoded strictly into a reply that already held results")
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
